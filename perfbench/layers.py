"""Span recorder for the traced run.

Each layer is timed from outside: its public function is replaced, at
the attribute its caller resolves, by a wrapper that records a span
(name, start, end, parent span, case id).  A layer's self time is its
span's duration minus the time of the spans directly inside it, so the
self times of one case add up to the case's wall time.  Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

from repro.obs import trace as obs_trace

#: (layer, owner, attribute).  The owner is a module, or ``module:Class``
#: for a method.  Modules that import a function by name are patched in
#: the importing module (``repro.amg.hierarchy.strength_of_connection``);
#: functions imported inside a function body resolve through their home
#: module at call time and are patched there.
TARGETS = (
    ("amg.strength", "repro.amg.hierarchy", "strength_of_connection"),
    ("amg.strength", "repro.amg.patch", "strength_of_connection"),
    ("amg.coarsen", "repro.amg.hierarchy", "pmis_coarsen"),
    ("amg.coarsen", "repro.amg.coarsen", "pmis_coarsen"),
    ("amg.interp", "repro.amg.hierarchy", "build_interpolation"),
    ("amg.interp", "repro.amg.patch", "build_interpolation"),
    ("amg.galerkin", "repro.amg.hierarchy", "galerkin_product"),
    ("amg.coarse", "repro.amg.coarse:CoarseSolver", "__init__"),
    ("amg.coarse", "repro.amg.coarse:CoarseSolver", "solve"),
    ("amg.patch", "repro.amg.patch", "patched_resetup"),
    ("kernels.spgemm", "repro.hypre.backends", "csr_spgemm"),
    ("kernels.spgemm", "repro.hypre.backends", "mbsr_spgemm"),
    ("kernels.spgemm", "repro.kernels.setup_cache:SetupPlanCache",
     "rap_numeric_rows"),
    ("kernels.spgemm", "repro.kernels.spgemm", "mbsr_spgemm_rows"),
    ("formats.convert", "repro.hypre.csr_matrix:HypreCSRMatrix",
     "amgt_csr2mbsr"),
    ("formats.convert", "repro.kernels.setup_cache:SetupPlanCache",
     "mbsr2csr"),
    ("formats.convert", "repro.kernels.setup_cache:SetupPlanCache",
     "patch_csr2mbsr"),
    ("formats.convert", "repro.formats.convert", "mbsr_to_csr"),
    ("check.fingerprint", "repro.check.fingerprint", "pattern_fingerprint"),
    ("check.fingerprint", "repro.amg.patch", "row_digests"),
    ("check.fingerprint", "repro.amg.patch", "diff_rows"),
    ("kernels.spmv", "repro.hypre.backends", "csr_spmv"),
    ("kernels.spmv", "repro.hypre.backends", "mbsr_spmv"),
    ("amg.cycle", "repro.amg.cycle", "mg_cycle"),
    ("amg.smooth", "repro.amg.cycle", "_smooth"),
    ("solvers", "repro.solvers", "pcg"),
    ("solvers", "repro.solvers", "gmres"),
    ("accounting", "repro.kernels.record:KernelRecord", "price"),
    ("accounting", "repro.perf.timeline:PerformanceLog", "append"),
    ("accounting", "repro.obs.metrics", "observe_kernel"),
)

#: Layers in report order; ``api`` is program time inside a timed call
#: that no wrapped layer covers.
LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS)) + ("api",)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class SpanRecorder:
    """In-memory spans plus per-layer self time and call counts."""

    def __init__(self) -> None:
        #: (span id, parent id or -1, layer, case id, start, end)
        self.spans: list[tuple] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Calls per wrapped target, for the never-called check.
        self.target_calls: Counter = Counter()
        self._stack: list[list] = []
        self._case = -1
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------
    def _enter(self, layer: str) -> list:
        frame = [len(self.spans), layer, perf_counter(), 0.0]
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, layer, start, child = frame
        dur = end - start
        self.busy[layer] += dur - child
        self.calls[layer] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans[sid] = (sid, parent, layer, self._case, start, end)

    def root(self, case_id: int):
        """Context manager for one timed API call of case *case_id*."""
        return _Root(self, case_id)

    # -- wrapping -----------------------------------------------------------
    def install(self) -> None:
        for layer, owner, attr in TARGETS:
            obj = _resolve(owner)
            if isinstance(obj, type):
                original = obj.__dict__[attr]  # KeyError: target moved
            else:
                original = getattr(obj, attr)  # AttributeError: renamed
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(layer, (layer, owner, attr),
                                          original))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def _wrap(self, layer: str, target: tuple, fn):
        enter, leave, counts = self._enter, self._exit, self.target_calls
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not stack:  # outside a timed call: warm-up, checks
                return fn(*args, **kwargs)
            counts[target] += 1
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def never_called(self) -> list[tuple]:
        return [t for t in TARGETS if self.target_calls[t] == 0]

    def case_self_times(self) -> dict[int, float]:
        """Sum of self times of every span, per case id."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, float] = defaultdict(float)
        for sid, _, _, case, start, end in self.spans:
            out[case] += (end - start) - child[sid]
        return out


class _Root:
    """One timed call: the ``api`` span, with the program's own metrics
    registry switched on for its duration (cache counts come from it)."""

    def __init__(self, rec: SpanRecorder, case_id: int) -> None:
        self.rec, self.case_id = rec, case_id

    def __enter__(self):
        obs_trace.enable()
        self.rec._case = self.case_id
        self.frame = self.rec._enter("api")
        return self

    def __exit__(self, *exc) -> None:
        self.rec._exit(self.frame)
        self.rec._case = -1
        obs_trace.disable()
