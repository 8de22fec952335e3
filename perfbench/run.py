"""End-to-end AMG benchmark: host time and simulated-device time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_setup --seed 0 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one round twice, step by step, untraced then traced,
and reports the per-layer metrics.  Human-readable lines go first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results (per-case
samples, failures, run metadata and, when traced, every span) are written
to ``.perfbench_out/`` under the current directory.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: BLAS/OpenMP threads, pinned before numpy loads.  One thread keeps the
#: timings steady on a shared host; the setting is recorded in the output.
THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = Path(".perfbench_out")

#: Cold-start subprocesses per run (the metric is their median).
COLD_STARTS = 9

#: End-to-end metrics: name -> unit.  Must match BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "cold_start_s": "s",
    "cycle_solve_s": "s",
    "krylov_solve_s": "s",
    "resetup_s": "s",
    "model_setup_us": "sim_us",
    "model_solve_us": "sim_us",
    "passed_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: Host self-time reconciliation tolerance of each traced call: the sum
#: of its spans' self times must be within this of its wall time.
RECONCILE_REL, RECONCILE_ABS = 0.01, 5e-4


def _environment() -> dict:
    """Pin threads and clear the program's REPRO_* switches (tracing,
    contract checking, dump directories) so every run measures the
    default configuration."""
    for var in _THREAD_VARS:
        os.environ[var] = str(THREADS)
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return {var: os.environ[var] for var in _THREAD_VARS}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cold_setup", "repeated_solve", "evolving"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cold_start(seed: int, tally, values: list) -> None:
    """One fresh-interpreter sample of import + first setup + first solve
    (``cold_start.py``), checked like any other call."""
    key = ("cold_start", tally.cold_starts)
    tally.cold_starts += 1
    started = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold_start.py"), str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    failure = {"case": "thermal1", "config": "amgt-fp64", "op": "cold_start",
               "key": "/".join(map(str, key)), "expected": None}
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tally.outcome(key, {**failure, "label": "raised",
                            "detail": proc.stderr[-200:]})
        return
    values.append((started, out["cold_start_s"]))
    tally.outcome(key, None if out["label"] is None else
                  {**failure, "label": out["label"], "detail": ""})


def exact_mismatches(tally) -> list[str]:
    errors = []
    for key, values in tally.exact.items():
        if any(v != values[0] for v in values[1:]):
            errors.append(f"exact counters differ for {key}: {values}")
    return errors


def end_to_end(tally, cold: list, calibration) -> dict:
    """The end-to-end metrics, host times in reference seconds."""
    import resource
    import statistics

    from workloads import geomean_of_medians

    samples = dict(tally.samples)
    for (metric, key), started in tally.started.items():
        samples[(metric, key)] = [
            wall * calibration.scale_at(t)
            for wall, t in zip(tally.samples[(metric, key)], started)]
    values = {m: geomean_of_medians(samples, m) for m in END_TO_END
              if m not in ("cold_start_s", "passed_frac", "peak_rss_mb")}
    values["cold_start_s"] = (
        statistics.median(s * calibration.scale_at(t) for t, s in cold)
        if cold else None)
    failed = len(tally.failures)
    values["passed_frac"] = (tally.attempted - failed) / tally.attempted
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return values


def per_layer(tally, rec) -> dict:
    """Per-layer metrics of the traced pass: name -> (value, unit)."""
    from repro.obs import names as obs_names
    from repro.obs.metrics import REGISTRY

    from layers import LAYERS

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (rec.calls[layer], "count")
        out[f"{layer}.busy_s"] = (rec.busy[layer], "s")
    kc = tally.kernel_counts
    parts = {k: float(v) for k, v in tally.model_parts.items()}
    out["kernels.spgemm.model_us"] = (
        parts.get(("setup", "spgemm"), 0.0), "sim_us")
    out["kernels.spgemm.mma_issues"] = (kc["spgemm.mma"], "count")
    out["kernels.spgemm.model_bytes"] = (kc["spgemm.bytes"], "B")
    out["kernels.spmv.model_us"] = (parts.get(("solve", "spmv"), 0.0),
                                    "sim_us")
    out["kernels.spmv.mma_issues"] = (kc["spmv.mma"], "count")
    out["kernels.spmv.model_bytes"] = (kc["spmv.bytes"], "B")
    out["formats.convert.model_us"] = (
        float(tally.model_parts[("setup", "conversion")]
              + tally.model_parts[("solve", "conversion")]), "sim_us")
    for phase, cats in MODEL_PARTS.items():
        for cat in cats:
            out[f"model.{phase}.{cat}_us"] = (parts.get((phase, cat), 0.0),
                                              "sim_us")
    snap = REGISTRY.snapshot()
    hits = misses = 0.0
    for sample in snap.get(obs_names.SETUP_CACHE_REQUESTS,
                           {}).get("samples", []):
        if sample["labels"].get("result") == "hit":
            hits += sample["value"]
        else:
            misses += sample["value"]
    out["kernels.setup_cache.hits"] = (hits, "count")
    out["kernels.setup_cache.misses"] = (misses, "count")
    out["kernels.setup_cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    patched, resetups = tally.patched
    out["amg.patch.patched_frac"] = (
        patched / resetups if resetups else 0.0, "ratio")
    out["solvers.iterations"] = (tally.krylov_iterations, "count")
    out["tape.records"] = (REGISTRY.total(obs_names.TAPE_RECORDS), "count")
    out["host.peak_bytes_per_cycle"] = (
        sum(tally.peak_bytes.values()), "B")
    out["trace.overhead_frac"] = (
        tally.wall[True] / tally.wall[False] - 1.0, "ratio")
    out["trace.spans"] = (len(rec.spans), "count")
    return out


#: The per-layer model split; every record of the run must fall in one
#: of these, so the parts reconcile to the phase totals.
MODEL_PARTS = {"setup": ("spgemm", "conversion", "other"),
               "solve": ("spmv", "conversion", "other")}


def run_untraced(args, tally, cold: list, calibration) -> int:
    """Rounds until ``--seconds`` is used up (a round starts only if the
    last one still fits; at least one runs).  The cold-start samples are
    spread over the first round, and reference-kernel samples are taken
    before every step, every cold start and every timed call, so drift in
    the host's speed during a run touches them as it touches the cases."""
    from workloads import WORKLOADS

    steps = WORKLOADS[args.workload](args.seed)
    tally.before_op = lambda: calibration.sample(repeats=1)
    marks = [round(i * len(steps) / (COLD_STARTS - 1))
             for i in range(COLD_STARTS)]
    begin = perf_counter()
    rounds = 0
    while True:
        t0 = perf_counter()
        extra = 0.0  # cold-start time, which later rounds do not repeat
        state: dict = {}
        for i, step in enumerate(steps + [None]):
            if rounds == 0:
                for _ in range(marks.count(i)):
                    t1 = perf_counter()
                    calibration.sample()
                    cold_start(args.seed, tally, cold)
                    extra += perf_counter() - t1
            calibration.sample()
            if step is not None:
                step(tally, state)
        rounds += 1
        last = perf_counter() - t0 - extra
        if perf_counter() - begin + last > args.seconds:
            return rounds


def run_traced(args, tally):
    from layers import SpanRecorder
    from workloads import WORKLOADS

    rec = SpanRecorder()
    tally.probe_memory = True
    states: dict = {False: {}, True: {}}
    for step in WORKLOADS[args.workload](args.seed):
        tally.recorder = None
        step(tally, states[False])
        tally.recorder = rec
        rec.install()
        try:
            step(tally, states[True])
        finally:
            rec.uninstall()
            tally.recorder = None
    missing = rec.never_called()
    if missing:
        names = ", ".join(f"{owner}.{attr} ({layer})"
                          for layer, owner, attr in missing)
        raise SystemExit(f"traced run: wrapped functions never called: "
                         f"{names}; a layer was renamed or bypassed")
    errors = []
    self_times = rec.case_self_times()
    for op_id, (key, wall) in enumerate(tally.traced_ops):
        spent = self_times.get(op_id, 0.0)
        if abs(spent - wall) > RECONCILE_REL * wall + RECONCILE_ABS:
            errors.append(f"self times of {key} sum to {spent:.6f} s, "
                          f"wall {wall:.6f} s")
    stray = set(tally.model_parts) - {(p, c) for p, cats
                                      in MODEL_PARTS.items() for c in cats}
    if stray:
        errors.append(f"model time outside the per-layer split: {stray}")
    return rec, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = _environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import warnings

    from repro.obs.ledger import run_metadata

    from calibrate import Calibration
    from workloads import Tally

    # The scaled mixed-precision cases overflow on purpose; their numpy
    # warnings would bury the report.
    warnings.simplefilter("ignore", RuntimeWarning)
    tally = Tally()
    rec = None
    cold: list[tuple[float, float]] = []
    calibration = Calibration()
    if args.trace:
        rec, errors = run_traced(args, tally)
        rounds = 1
    else:
        rounds = run_untraced(args, tally, cold, calibration)
        errors = []
    errors += tally.invariant_errors + exact_mismatches(tally)
    unexpected = [f for f in tally.failures.values() if not f["expected"]]
    correct = not errors and not unexpected

    if args.trace:
        metrics = per_layer(tally, rec)
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in
                   end_to_end(tally, cold, calibration).items()}
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        raise SystemExit(f"perfbench: no samples for {missing}")

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
            "nproc": os.cpu_count(), "threads": threads,
            "calibration": calibration.describe(), **run_metadata()}
    _write_results(args, meta, tally, rec, metrics, errors, cold)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} nproc={meta['nproc']} threads={THREADS}")
    if not args.trace:
        cal = meta["calibration"]
        print(f"  host times in reference seconds: measured x "
              f"{cal['factor']:.4f} at the run's median (reference kernel "
              f"{cal['median_s']:.6f} s here, {cal['reference_s']} s on the "
              f"reference host)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    print(f"  failed_frac {len(tally.failures)}/{tally.attempted}")
    for f in tally.failures.values():
        print(f"    {f['label']:17s} {f['key']:40s} "
              f"{f['expected'] or 'UNEXPECTED'}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _write_results(args, meta, tally, rec, metrics, errors, cold) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    samples = {}
    for (metric, key), values in tally.samples.items():
        samples.setdefault(metric, {})["/".join(map(str, key))] = values
    payload = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "failures": list(tally.failures.values()),
        "errors": errors,
        "samples": samples,
        "cold_starts": [s for _, s in cold],
    }
    if rec is not None:
        payload["ops"] = [["/".join(map(str, key)), wall]
                          for key, wall in tally.traced_ops]
        payload["spans"] = {
            "columns": ["id", "parent", "layer", "op", "start", "end"],
            "rows": rec.spans,
        }
    path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
