"""Hypothesis fuzz driver for the kernel contract checker.

Generates degenerate operand shapes — empty matrices, 1x1, dimensions that
are not multiples of the 4x4 tile, duplicate COO entries, explicit zeros,
rank counts exceeding the row count — and drives every kernel entry point
through them across all precisions and both SpMV plan paths, under
:func:`repro.check.runtime.checked_region` so each call self-verifies
against the differential oracle.  Any breach surfaces as
:class:`~repro.check.violation.ContractViolation`.

Run directly::

    python -m repro.check.fuzz            # full budget
    python -m repro.check.fuzz --smoke    # CI budget (>= 200 cases)

Exit status 1 on the first contract violation (hypothesis shrinks the
failing example before it is reported).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.runtime import checked_region
from repro.check.violation import ContractViolation
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import Precision

__all__ = ["main"]

#: Degenerate-leaning dimensions: empty, single, sub-tile, off-tile, exact
#: multiples of the 4x4 block, and just past them.
_DIMS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17]
_DENSITIES = [0.0, 0.05, 0.15, 0.3, 0.6, 1.0]
_PRECISIONS = [Precision.FP64, Precision.FP32, Precision.FP16]

#: Cases executed so far (one generated example = one case).
_cases = 0

#: (target_name, smoke_examples, full_examples) — smoke sums to >= 200.
_SMOKE = {
    "spmv": 50,
    "spgemm": 40,
    "csr_kernels": 40,
    "conversion_cache": 40,
    "solver": 15,
    "partition": 20,
    "evolve": 15,
    "evolve_mixed": 20,
}
_FULL_MULTIPLIER = 4


def _random_csr(m: int, n: int, density: float, seed: int,
                value_scale: float = 1.0e3) -> CSRMatrix:
    """Random CSR with duplicate COO entries and explicit zeros.

    Values are bounded to ``|v| <= value_scale`` so FP16 quantisation never
    overflows to inf (non-finite propagation is a separate concern from
    the accumulation contracts this driver checks).
    """
    total = int(round(m * n * density))
    if m == 0 or n == 0 or total == 0:
        return CSRMatrix.zeros((m, n))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=total)
    cols = rng.integers(0, n, size=total)  # duplicates likely, by design
    vals = rng.uniform(-value_scale, value_scale, size=total)
    vals[rng.random(total) < 0.1] = 0.0  # explicit stored zeros
    return CSRMatrix.from_coo(rows, cols, vals, (m, n))


def _random_spd(n: int, seed: int) -> CSRMatrix:
    """Small sparse SPD matrix (for solver round-trips)."""
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1.0, 1.0, size=(n, n))
    dense[np.abs(dense) < 0.6] = 0.0  # sparsify
    spd = dense @ dense.T + n * np.eye(n)
    return CSRMatrix.from_scipy(sp.csr_matrix(spd))


def _bump() -> None:
    global _cases
    _cases += 1


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------
_shape2 = st.tuples(
    st.sampled_from(_DIMS), st.sampled_from(_DIMS),
    st.sampled_from(_DENSITIES), st.integers(0, 2**32 - 1),
)
_shape3 = st.tuples(
    st.sampled_from(_DIMS), st.sampled_from(_DIMS), st.sampled_from(_DIMS),
    st.sampled_from(_DENSITIES), st.integers(0, 2**32 - 1),
)


def _fuzz_spmv(case) -> None:
    """mbsr_spmv across all precisions and both plan paths."""
    from repro.check import oracle
    from repro.formats.convert import csr_to_mbsr
    from repro.kernels.spmv import mbsr_spmv

    m, n, density, seed = case
    a = _random_csr(m, n, density, seed)
    am = csr_to_mbsr(a)
    x = np.random.default_rng(seed ^ 0x5A).uniform(-1e3, 1e3, size=n)
    with checked_region():
        oracle.verify_conversion(a, am)
        for prec in _PRECISIONS:
            for allow_tc in (True, False):
                # threshold 0 forces the tensor-core path, 1e9 the
                # CUDA-core path — both schedules on the same operand.
                for threshold in (0.0, 1.0e9):
                    plan = am.cache.spmv_plan(allow_tc, threshold)
                    mbsr_spmv(am, x, prec, plan, allow_tensor_cores=allow_tc)
    _bump()


def _fuzz_spgemm(case) -> None:
    """mbsr_spgemm across precisions, plus the out_dtype override."""
    from repro.formats.convert import csr_to_mbsr
    from repro.kernels.spgemm import mbsr_spgemm

    m, k, n, density, seed = case
    am = csr_to_mbsr(_random_csr(m, k, density, seed))
    bm = csr_to_mbsr(_random_csr(k, n, density, seed ^ 0xB))
    with checked_region():
        for prec in _PRECISIONS:
            mbsr_spgemm(am, bm, prec)
        mbsr_spgemm(am, bm, Precision.FP32, out_dtype=np.float64)
    _bump()


def _fuzz_csr_kernels(case) -> None:
    """Vendor-style csr_spmv / csr_spgemm across precisions."""
    from repro.kernels.baseline import csr_spgemm, csr_spmv

    m, k, n, density, seed = case
    a = _random_csr(m, k, density, seed)
    b = _random_csr(k, n, density, seed ^ 0xC)
    x = np.random.default_rng(seed ^ 0xD).uniform(-1e3, 1e3, size=k)
    with checked_region():
        for prec in _PRECISIONS:
            csr_spmv(a, x, prec)
            csr_spgemm(a, b, prec)
    _bump()


def _fuzz_conversion_cache(case) -> None:
    """Format conversions, casts, transposes + OperatorCache coherence."""
    from repro.check.structural import validate_mbsr, validate_operator_cache
    from repro.hypre.csr_matrix import HypreCSRMatrix

    m, n, density, seed = case
    a = _random_csr(m, n, density, seed)
    with checked_region():
        wrapped = HypreCSRMatrix(csr=a)
        am, _ = wrapped.amgt_csr2mbsr()  # hook verifies the round-trip
        cache = am.cache
        # Touch every memoised field, then recompute-and-compare.
        cache.pop_per_tile, cache.nnz, cache.block_row_ids
        cache.blocks_per_row, cache.x_gather, cache.y_scatter
        cache.tiles(np.float16, np.float32)
        cache.tiles(np.float32, np.float32)
        cache.spmv_plan(True)
        cache.spmv_plan(False, 3.0)
        validate_operator_cache(am)
        validate_mbsr(am.transpose(), kernel="mbsr_transpose")
        for prec in _PRECISIONS:
            cast = wrapped.mbsr_at_precision(prec)
            validate_mbsr(cast, kernel="mbsr_astype")
    _bump()


_solver_case = st.tuples(
    st.integers(2, 12), st.integers(0, 2**32 - 1),
    st.sampled_from(["amgt", "hypre"]), st.sampled_from(["fp64", "mixed"]),
)


def _fuzz_solver(case) -> None:
    """Short checked solves on tiny SPD systems, both backends."""
    from repro.amg.solver import AmgTSolver

    n, seed, backend, precision = case
    a = _random_spd(n, seed)
    solver = AmgTSolver(backend=backend, precision=precision, checked=True)
    solver.setup(a)
    b = np.random.default_rng(seed ^ 0xE).uniform(-1.0, 1.0, size=n)
    solver.solve(b, max_iterations=2)
    _bump()


_partition_case = st.tuples(
    st.integers(2, 10), st.integers(1, 40), st.integers(0, 2**32 - 1),
)


def _fuzz_partition(case) -> None:
    """partition_rows with ranks > n, and the distributed round-trip."""
    from repro.amg.cycle import SolveParams, amg_solve
    from repro.check.structural import validate_partition
    from repro.dist.par_solver import ParAMGSolver
    from repro.dist.partition import partition_rows

    n, ranks, seed = case
    validate_partition(partition_rows(n, ranks), n)
    validate_partition(partition_rows(0, ranks), 0)

    a = _random_spd(n, seed)
    b = np.random.default_rng(seed ^ 0xF).uniform(-1.0, 1.0, size=n)
    par = ParAMGSolver(num_ranks=ranks, backend="amgt", checked=True)
    par.setup(a)
    x_par, _ = par.solve(b, max_iterations=3)
    x_ser, _ = amg_solve(par.hierarchy, b, params=SolveParams(max_iterations=3))
    if not np.allclose(x_par, x_ser, rtol=1e-9, atol=1e-9):
        raise ContractViolation(
            "ParAMGSolver.solve", "dist/serial-roundtrip",
            f"distributed iterate differs from the serial solve by "
            f"{float(np.max(np.abs(x_par - x_ser)))!r} "
            f"(n={n}, ranks={ranks}, seed={seed})",
        )
    _bump()


_evolve_case = st.tuples(
    st.sampled_from(["newton", "timestep", "refine"]),
    st.sampled_from([8, 12, 17]),
    st.sampled_from([0.02, 0.08, 0.25]),
    st.integers(0, 2**32 - 1),
)


def _fuzz_evolve(case) -> None:
    """Evolving sequences: diff exactness + patched/cold bit-identity.

    Two contracts per step of the sequence:

    * the per-row fingerprint diff names *exactly* the rows that changed
      (no misses, no spurious rows);
    * whatever ``amg_setup(reuse=..., patch=True)`` returns — patched or
      any fallback — carries the same bits as a cold setup of the new
      matrix.
    """
    from repro.amg.hierarchy import amg_setup
    from repro.check.fingerprint import diff_rows, row_digests
    from repro.matrices.generators import evolving_sequence

    kind, nx, frac, seed = case
    seq = evolving_sequence(kind, nx=nx, steps=2, dirty_frac=frac, seed=seed)
    prev_mat, prev_h = seq[0], amg_setup(seq[0])
    for a in seq[1:]:
        predicted = diff_rows(row_digests(prev_mat, values=True),
                              row_digests(a, values=True))
        actual = [
            i for i in range(a.nrows)
            if not np.array_equal(prev_mat.indptr[i:i + 2] - prev_mat.indptr[i],
                                  a.indptr[i:i + 2] - a.indptr[i])
            or not np.array_equal(
                prev_mat.indices[prev_mat.indptr[i]:prev_mat.indptr[i + 1]],
                a.indices[a.indptr[i]:a.indptr[i + 1]])
            or not np.array_equal(
                prev_mat.data[prev_mat.indptr[i]:prev_mat.indptr[i + 1]],
                a.data[a.indptr[i]:a.indptr[i + 1]])
        ]
        if predicted.tolist() != actual:
            raise ContractViolation(
                "fingerprint.diff_rows", "patch/diff-exact",
                f"digest diff predicted rows {predicted.tolist()} but "
                f"{actual} changed ({kind}, nx={nx}, frac={frac}, "
                f"seed={seed})",
            )
        h = amg_setup(a, reuse=prev_h, patch=True)
        _check_cold_identical(h, amg_setup(a),
                              f"{kind}, nx={nx}, frac={frac}, seed={seed}")
        prev_mat, prev_h = a, h
    _bump()


def _check_cold_identical(h, cold, context: str) -> None:
    """Every level operator and smoothing diagonal of *h* bytewise equal
    to those of the cold setup *cold*."""
    if h.num_levels != cold.num_levels:
        raise ContractViolation(
            "amg_setup", "patch/cold-identical",
            f"level count {h.num_levels} != cold {cold.num_levels} "
            f"({context}, patched={h.patched})",
        )
    for k, (lp, lc) in enumerate(zip(h.levels, cold.levels)):
        for name in ("a", "p", "r"):
            mp, mc = getattr(lp, name), getattr(lc, name)
            if (mp is None) != (mc is None):
                raise ContractViolation(
                    "amg_setup", "patch/cold-identical",
                    f"level {k} operator {name!r} presence differs",
                )
            if mp is None:
                continue
            if not (np.array_equal(mp.indptr, mc.indptr)
                    and np.array_equal(mp.indices, mc.indices)
                    and mp.data.tobytes() == mc.data.tobytes()):
                raise ContractViolation(
                    "amg_setup", "patch/cold-identical",
                    f"level {k} operator {name!r} differs from the cold "
                    f"setup ({context}, patched={h.patched})",
                )
        if lp.dinv.tobytes() != lc.dinv.tobytes():
            raise ContractViolation(
                "amg_setup", "patch/cold-identical",
                f"level {k} smoothing diagonal differs from the cold "
                f"setup ({context}, patched={h.patched})",
            )


_evolve_mixed_case = st.tuples(
    st.sampled_from(["newton", "timestep", "refine"]),
    st.sampled_from([8, 12, 17]),
    st.sampled_from([0.02, 0.08, 0.25]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, 0.1, 0.03]),
)


def _fuzz_evolve_mixed(case) -> None:
    """Evolving sequences through the driver on the mixed schedule.

    ``BoomerAMG(AmgTBackend(precision="mixed"))`` re-sets-up each step
    with ``reuse=True, patch=True`` at a drawn dirty-row budget, so the
    patch succeeds or falls back at any level.  Whatever it returns must
    carry the bits of a fresh solver's cold setup: a fallback that ran a
    level's products at another level's precision shows up here.
    """
    from repro.gpu import A100
    from repro.hypre.backends import AmgTBackend
    from repro.hypre.boomeramg import BoomerAMG
    from repro.matrices.generators import evolving_sequence

    kind, nx, frac, seed, threshold = case

    def fresh() -> BoomerAMG:
        return BoomerAMG(AmgTBackend(A100, precision="mixed"))

    seq = evolving_sequence(kind, nx=nx, steps=2, dirty_frac=frac, seed=seed)
    solver = fresh()
    solver.setup(seq[0])
    for a in seq[1:]:
        h = solver.setup(a, reuse=True, patch=True,
                         patch_threshold=threshold)
        _check_cold_identical(
            h, fresh().setup(a),
            f"mixed {kind}, nx={nx}, frac={frac}, seed={seed}, "
            f"threshold={threshold}",
        )
    _bump()


_TARGETS = [
    ("spmv", _fuzz_spmv, _shape2),
    ("spgemm", _fuzz_spgemm, _shape3),
    ("csr_kernels", _fuzz_csr_kernels, _shape3),
    ("conversion_cache", _fuzz_conversion_cache, _shape2),
    ("solver", _fuzz_solver, _solver_case),
    ("partition", _fuzz_partition, _partition_case),
    ("evolve", _fuzz_evolve, _evolve_case),
    ("evolve_mixed", _fuzz_evolve_mixed, _evolve_mixed_case),
]


def _run_target(fn, strategy, max_examples: int) -> None:
    runner = settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=list(HealthCheck),
    )(given(strategy)(fn))
    runner()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.fuzz", description=__doc__
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="bounded CI budget (>= 200 cases) instead of the full sweep",
    )
    parser.add_argument(
        "--target", choices=[name for name, _, _ in _TARGETS],
        help="run a single target instead of all of them",
    )
    args = parser.parse_args(argv)

    global _cases
    _cases = 0
    for name, fn, strategy in _TARGETS:
        if args.target and name != args.target:
            continue
        budget = _SMOKE[name] * (1 if args.smoke else _FULL_MULTIPLIER)
        print(f"[fuzz] {name}: {budget} cases ...", flush=True)
        try:
            _run_target(fn, strategy, budget)
        except ContractViolation as exc:
            print(f"[fuzz] FAIL after {_cases} cases: {exc}", file=sys.stderr)
            return 1
    print(f"[fuzz] OK: {_cases} cases, zero contract violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
