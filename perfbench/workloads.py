"""The three workloads and the tally that times, checks and accounts
for every call they make into the program.

Every call into the public API (``AmgTSolver.setup``, ``solve``,
``solve_krylov``) is a timed operation, except one warm-up solve per
kept solver, the tracemalloc probe of the traced run, and the untimed
checks after each operation.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext
from fractions import Fraction
from time import perf_counter

import numpy as np

from repro import AmgTSolver
from repro.amg.precision import PrecisionSchedule
from repro.gpu import get_device
from repro.perf.timeline import PerformanceLog

import inputs
import verify

DEVICE = "H100"

#: Operation kind -> (host metric, model metric, accounting phase).
OPS = {
    "setup": ("setup_s", "model_setup_us", "setup"),
    "resetup": ("resetup_s", "model_setup_us", "setup"),
    "cycle": ("cycle_solve_s", "model_solve_us", "solve"),
    "krylov": ("krylov_solve_s", "model_solve_us", "solve"),
}

#: PerformanceLog.phase_totals' kernel categories.
_CONVERSIONS = ("csr2mbsr", "mbsr2csr", "csr2bsr")

#: Failures expected at the benchmark's inputs today: (case, config) ->
#: (operations, reason).  They are counted in ``failed`` and
#: ``passed_frac`` like any other failure; listing them only keeps them
#: from marking the run incorrect.  Any other failure does.
_FALLBACK = ("a patch that falls back to a cold setup under the mixed "
             "schedule leaves the fine level's Galerkin product at fp32-like "
             "accuracy; later patches inherit the operator")
EXPECTED_FAILURES = {
    ("thermal1x1e5", "amgt-mixed"):
        (("setup",), "fp16 overflow: the coarse LU raises on inf entries"),
    ("thermal1x1e8", "amgt-mixed"):
        (("setup", "cycle", "krylov"),
         "fp16 overflow: coarse operators and solves turn non-finite"),
    ("thermal1x1e-8", "amgt-mixed"):
        (("setup", "cycle", "krylov"),
         "fp16 underflow: coarse operators flush to zero, solves turn NaN"),
    **{(f"{kind}{draw}", "amgt-mixed"): (("resetup",), _FALLBACK)
       for kind in inputs.EVOLVING_KINDS
       for draw in range(inputs.EVOLVING_DRAWS)},
    ("thermal1", "amgt-mixed"): (("resetup",), _FALLBACK),
    ("mc2depi", "amgt-mixed"): (("resetup",), _FALLBACK),
}


def expected_failure(case: str, config: str, op: str) -> str | None:
    """The documented reason for an expected failure, else None."""
    ops, reason = EXPECTED_FAILURES.get((case, config), ((), None))
    return reason if op in ops else None


def config_name(backend: str, precision: str) -> str:
    return f"{backend}-{precision}"


def level_precisions(precision: str, num_levels: int) -> list[str]:
    if precision == "fp64":
        return ["fp64"] * num_levels
    return PrecisionSchedule.mixed(get_device(DEVICE)).describe(num_levels)


class Tally:
    """Samples, failures and exact counters of one benchmark run."""

    def __init__(self) -> None:
        #: (metric, key) -> values, one per round (or pass)
        self.samples: dict[tuple, list] = defaultdict(list)
        #: (host metric, key) -> start time of each sample
        self.started: dict[tuple, list] = defaultdict(list)
        #: Every distinct operation attempted, and key -> failure record
        #: of those that failed.  An operation is counted once however
        #: many rounds (or passes) repeat it, so ``attempted`` and
        #: ``failed`` do not move with the number of rounds that fit into
        #: ``--seconds``.  It fails if any repeat fails.
        self.keys: set[tuple] = set()
        self.failures: dict[tuple, dict] = {}
        self.invariant_errors: list[str] = []
        #: key -> exact counter tuples, which must all be equal
        self.exact: dict[tuple, list] = defaultdict(list)
        #: Set by the traced run: a layers.SpanRecorder, or None.
        self.recorder = None
        #: Wall time of every timed call, split by traced / untraced.
        self.wall = {False: 0.0, True: 0.0}
        #: Traced pass only: op id -> (key, wall seconds)
        self.traced_ops: list[tuple] = []
        #: Traced pass only: exact model sums per (phase, category), and
        #: per-kernel counters.
        self.model_parts: dict[tuple, Fraction] = defaultdict(Fraction)
        self.kernel_counts: dict[str, float] = defaultdict(float)
        self.krylov_iterations = 0
        self.patched = [0, 0]  # patched re-setups, re-setups
        self.peak_bytes: dict[tuple, float] = {}
        #: Set by the traced run: take the tracemalloc probe in both
        #: passes, so that both make the same calls.
        self.probe_memory = False
        #: Cold-start subprocesses run so far (their operation keys).
        self.cold_starts = 0
        #: Set by the untraced run: called just before every timed call
        #: (the host-speed calibration sample nearest to it).
        self.before_op = None

    @property
    def attempted(self) -> int:
        return len(self.keys)

    def outcome(self, key: tuple, failure: dict | None) -> None:
        """Count one repeat of operation *key*; *failure* is its failure
        record (with ``label``), or None if it passed."""
        self.keys.add(key)
        if failure is None:
            return
        first = self.failures.setdefault(key, {**failure,
                                               "failed_repeats": 0})
        first["failed_repeats"] += 1

    # ------------------------------------------------------------------
    def op(self, kind: str, key: tuple, solver: AmgTSolver, call, check):
        """Run one timed API call; returns its result, or None if it
        raised.

        *check(result)* returns a failure label or None.  A failed call
        still contributes its elapsed time and model time, and a result
        that fails its check is still returned: the caller goes on as a
        user would, who cannot see the failure.
        """
        host_metric, model_metric, phase = OPS[kind]
        try:
            n0 = len(solver.performance.records)
        except RuntimeError:  # before the first setup
            n0 = 0
        rec = self.recorder
        root = rec.root(len(self.traced_ops)) if rec else nullcontext()
        result = error = None
        if self.before_op is not None:
            self.before_op()
        t0 = perf_counter()
        try:
            with root:
                result = call()
        except Exception as exc:  # the failure is the measurement
            error = exc
        wall = perf_counter() - t0
        if rec is not None:
            self.traced_ops.append((key, wall))
        self.wall[rec is not None] += wall
        try:
            records = solver.performance.records[n0:]
        except RuntimeError:
            records = []
        model_us = self._account(key, phase, records)
        self.samples[(host_metric, key)].append(wall)
        self.started[(host_metric, key)].append(t0)
        self.samples[(model_metric, key)].append(model_us)
        label = "raised" if error is not None else check(result)
        iterations = getattr(result, "iterations", -1)
        exact = (len(records), model_us,
                 math.fsum(r.counters.total_mma for r in records),
                 math.fsum(r.counters.bytes_read + r.counters.bytes_written
                           for r in records), iterations)
        self.exact[key].append(exact)
        if rec is not None and kind == "krylov" and error is None:
            self.krylov_iterations += int(iterations)
        self.outcome(key, None if label is None else {
            "case": key[0], "config": key[1], "op": kind,
            "key": "/".join(map(str, key)), "label": label,
            "detail": repr(error)[:200] if error is not None else "",
            "expected": expected_failure(key[0], key[1], kind),
        })
        return result

    def _account(self, key, phase, records) -> float:
        """Model µs of one call, checked against the program's own
        accounting; in the traced pass also summed per layer."""
        total = math.fsum(r.sim_time_us for r in records)
        parts = defaultdict(list)
        for r in records:
            if r.phase != phase:
                self.invariant_errors.append(
                    f"{key}: {r.kernel} record in phase {r.phase!r}, "
                    f"expected {phase!r}")
            if r.kernel in ("spgemm", "spmv"):
                parts[r.kernel].append(r.sim_time_us)
            elif r.kernel in _CONVERSIONS:
                parts["conversion"].append(r.sim_time_us)
            else:
                parts["other"].append(r.sim_time_us)
        # The program's PhaseTotals sums the same records in call order.
        program = PerformanceLog(records=list(records)).phase_totals(phase)
        for cat, vals in parts.items():
            mine = math.fsum(vals)
            theirs = getattr(program, f"{cat}_us")
            if abs(mine - theirs) > 1e-9 * max(abs(mine), 1.0):
                self.invariant_errors.append(
                    f"{key}: {phase}.{cat} {mine!r} != program {theirs!r}")
        if self.recorder is not None:
            # Exact (rational) sums: the reported parts add up to the
            # run's model total with no rounding at all.
            for cat, vals in parts.items():
                self.model_parts[(phase, cat)] += sum(map(Fraction, vals),
                                                      Fraction(0))
            for r in records:
                kc = self.kernel_counts
                if r.kernel in ("spgemm", "spmv"):
                    kc[f"{r.kernel}.mma"] += r.counters.total_mma
                    kc[f"{r.kernel}.bytes"] += (r.counters.bytes_read
                                                + r.counters.bytes_written)
        return total

    # -- operation helpers ------------------------------------------------
    def setup(self, key, solver, a, kind="setup", **kw):
        def call():
            return solver.setup(a, **kw)

        def check(s):
            return verify.check_hierarchy(
                a, s.hierarchy, level_precisions(s.precision_name,
                                                 s.hierarchy.num_levels))

        out = self.op(kind, key, solver, call, check)
        if kind == "resetup" and self.recorder is not None:
            self.patched[1] += 1
            if out is not None and out.hierarchy.patched:
                self.patched[0] += 1
        return out

    def cycle_solve(self, key, solver, a_sp, b):
        return self.op(
            "cycle", key, solver, lambda: solver.solve(b),
            lambda r: verify.check_solution(a_sp, b, r.x,
                                            verify.CYCLE_TOL)[0])

    def krylov_solve(self, key, solver, a_sp, b, method):
        tol = verify.KRYLOV_TOL * verify.KRYLOV_SLACK
        return self.op(
            "krylov", key, solver,
            lambda: solver.solve_krylov(b, method=method),
            lambda r: verify.check_solution(a_sp, b, r.x, tol)[0])

    def measure_peak_bytes(self, key, solver, b) -> None:
        """Transient host memory of a one-cycle solve (traced run only,
        untimed): the tracemalloc peak above the starting level, median
        of three; the traced pass's value is kept.

        Not an exact counter: the program's own logs grow by whole list
        reallocations, which shifts the peak by up to tens of kB from one
        call to the next.
        """
        if not self.probe_memory:
            return
        peaks = []
        for _ in range(3):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                solver.solve(b, max_iterations=1)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        self.peak_bytes[key] = float(np.median(peaks))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
#
# A workload is a list of steps.  A step is ``step(tally, state)``;
# *state* is a dict shared by the steps of one pass (solvers kept alive
# for later steps).  One round runs every step once with a fresh state.
# The traced run runs each step twice, untraced then traced, each pass
# with its own state, so both passes see identical inputs.

def _warm_up(solver, b) -> None:
    """One untimed single-cycle solve: lazy conversions and imports done."""
    solver.solve(b, max_iterations=1)


def _method(a) -> str:
    return "pcg" if inputs.is_symmetric(a) else "gmres"


def _solver(backend: str, precision: str) -> AmgTSolver:
    return AmgTSolver(backend=backend, device=DEVICE, precision=precision)


def _resetup(tally: Tally, key, solver, a, seed: int, visit):
    """Timed patched re-setup on a local edit of *a*, the matrix the
    solver holds; returns the edited matrix, which it holds next."""
    edited = inputs.local_edit(a, seed, key[0], visit)
    tally.setup(key + ("resetup", visit), solver, edited, kind="resetup",
                reuse=True, patch=True)
    return edited


def _cold_case(name, backend, precision, seed, keep: bool):
    """Step: one timed cold setup of a fresh matrix; with *keep*, the
    solver stays in the pass state for later anchor visits."""
    key = (name, config_name(backend, precision))

    def step(tally, state):
        a = inputs.make_matrix(name, seed)
        solver = _solver(backend, precision)
        if tally.setup(key, solver, a) is None or not keep:
            return
        _warm_up(solver, inputs.rhs(a.nrows, seed, name, "warm-up"))
        tally.measure_peak_bytes(key, solver,
                                 inputs.rhs(a.nrows, seed, name, "peak"))
        state[key] = (solver, a, _method(a))

    return step


def _anchor_visit(seed: int, visit: int):
    """Step: one solve, one Krylov solve and one re-setup on every kept
    anchor solver."""

    def step(tally, state):
        for key, (solver, a, method) in state.items():
            a_sp = inputs.to_scipy(a)
            b = inputs.rhs(a.nrows, seed, key[0], "anchor", visit)
            tally.cycle_solve(key + ("cycle", visit), solver, a_sp, b)
            tally.krylov_solve(key + ("krylov", visit), solver, a_sp, b,
                               method)
            state[key] = (solver, _resetup(tally, key, solver, a, seed,
                                           visit), method)

    return step


#: cold_setup's anchors: the cases it also solves and re-sets up, so that
#: it reports every end-to-end metric.  thermal1 is symmetric (PCG) and
#: mc2depi nonsymmetric (GMRES) with a seeded structure.
ANCHORS = ("thermal1", "mc2depi")
#: Anchor visits per round, spread evenly between the cold setups.
ANCHOR_VISITS = 5


def cold_setup(seed: int):
    """One cold setup per (case, configuration) on a fresh matrix; the
    anchors first, then the rest, with the anchor visits spread among
    them."""
    names = list(ANCHORS) + [n for n in inputs.cold_setup_cases()
                             if n not in ANCHORS]
    cases = [_cold_case(n, b, p, seed, keep=n in ANCHORS)
             for n in names for b, p in inputs.CONFIGS]
    head = len(ANCHORS) * len(inputs.CONFIGS)
    rest = cases[head:]
    steps = cases[:head]
    chunk = -(-len(rest) // ANCHOR_VISITS)
    for v in range(ANCHOR_VISITS):
        steps += rest[v * chunk:(v + 1) * chunk]
        steps.append(_anchor_visit(seed, v))
    return steps


#: One operator, many right-hand sides: scalar Poisson, block elasticity,
#: an irregular power network, a nonsymmetric operator, dense tiles, and
#: thermal1 scaled out of fp16's range both ways.
REPEATED_CASES = ("thermal1", "cant", "TSOPF_RS_b300_c3", "venkat25",
                  "nd24k", "thermal1x1e8", "thermal1x1e-8")
#: Right-hand sides per operator in one round, and successive local
#: edits (each a patched re-setup) of the thermal1 operators after them.
RHS_PER_ROUND = 1
RESETUPS = 12


def repeated_solve(seed: int):
    steps = []
    for name in REPEATED_CASES:
        for backend, precision in inputs.CONFIGS:
            key = (name, config_name(backend, precision))

            def step(tally, state, name=name, backend=backend,
                     precision=precision, key=key):
                a = inputs.make_matrix(name, seed)
                a_sp = inputs.to_scipy(a)
                method = _method(a)
                solver = _solver(backend, precision)
                if tally.setup(key, solver, a) is None:
                    return
                _warm_up(solver, inputs.rhs(a.nrows, seed, name, "warm-up"))
                tally.measure_peak_bytes(
                    key, solver, inputs.rhs(a.nrows, seed, name, "peak"))
                for j in range(RHS_PER_ROUND):
                    b = inputs.rhs(a.nrows, seed, name, j)
                    tally.cycle_solve(key + ("cycle", j), solver, a_sp, b)
                    tally.krylov_solve(key + ("krylov", j), solver, a_sp,
                                       b, method)
                if name == "thermal1":
                    for v in range(RESETUPS):
                        a = _resetup(tally, key, solver, a, seed, v)

            steps.append(step)
    return steps


def evolving(seed: int):
    """Newton, refine and timestep sequences: a cold setup of the base
    matrix, then per step a patched re-setup and a Krylov solve.  The
    first draw of each kind ends with one paper-mode solve on its last
    matrix."""
    steps = []
    for kind in inputs.EVOLVING_KINDS:
        for draw in range(inputs.EVOLVING_DRAWS):
            for backend, precision in inputs.CONFIGS:
                key = (f"{kind}{draw}", config_name(backend, precision))

                def step(tally, state, kind=kind, draw=draw,
                         backend=backend, precision=precision, key=key):
                    seq = inputs.evolving(kind, seed, draw)
                    method = _method(seq[0])
                    b = inputs.rhs(seq[0].nrows, seed, kind, draw)
                    solver = _solver(backend, precision)
                    if tally.setup(key, solver, seq[0]) is None:
                        return
                    for i, a in enumerate(seq[1:], 1):
                        tally.setup(key + (i, "resetup"), solver, a,
                                    kind="resetup", reuse=True, patch=True)
                        tally.krylov_solve(key + (i, "krylov"), solver,
                                           inputs.to_scipy(a), b, method)
                    if draw == 0:
                        tally.cycle_solve(key + ("cycle",), solver,
                                          inputs.to_scipy(seq[-1]), b)
                        tally.measure_peak_bytes(key, solver, b)

                steps.append(step)
    return steps


WORKLOADS = {
    "cold_setup": cold_setup,
    "repeated_solve": repeated_solve,
    "evolving": evolving,
}


def geomean_of_medians(samples: dict, metric: str) -> float | None:
    """Geometric mean over the metric's cases of each case's median."""
    meds = [float(np.median(v)) for (m, _), v in samples.items()
            if m == metric]
    meds = [m for m in meds if m > 0]
    if not meds:
        return None
    return math.exp(math.fsum(math.log(m) for m in meds) / len(meds))
