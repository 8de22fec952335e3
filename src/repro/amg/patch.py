"""Incremental hierarchy patching: dirty-row diff, replay and splice.

``patched_resetup`` rebuilds a hierarchy against a *locally* changed fine
matrix by diffing per-row value digests (:mod:`repro.check.fingerprint`)
level by level against a cached hierarchy and recomputing only what the
dirt can reach, splicing the recomputed rows into the cached operators:

* **cheap stages run cold** — strength-of-connection, PMIS, the smoothing
  diagonals and the coarse solver are recomputed in full (they are linear
  passes; redoing them keeps the patched hierarchy *bit-identical to a
  cold setup*, not merely to a frozen-interpolation re-setup);
* **expensive stages are patched** — interpolation rows are rebuilt only
  for the dirty F points and their strong neighbours
  (:func:`repro.amg.interp.build_interpolation` with ``rows=``), and the
  Galerkin product replays only the dirty coarse rows, both through a
  pluggable :class:`CSRPatcher`-style engine so the AmgT backend can
  substitute block-aligned mBSR replays over its spliced plan cache.

The function returns ``(hierarchy, None)`` on success or
``(None, reason)`` when the cached structure cannot be patched — dirty
fraction above the threshold, a drifted C/F splitting (the splitting must
match for any cached interpolation row to remain valid), or a level
structure the cold loop would not reproduce.  Every fallback reason feeds
the ``setup_reuse_total`` observability counter.

Correctness contract: every operator of a patched hierarchy is
byte-identical to the one a full cold setup would produce on the new
matrix.  Under ``REPRO_CHECK=1`` :func:`verify_patched_hierarchy` runs
that cold setup and compares, level by level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amg.coarse import CoarseSolver
from repro.amg.galerkin import INTERP, RA, RAP, SetupProduct, csr_product
from repro.amg.hierarchy import AMGHierarchy, AMGLevel, SetupParams
from repro.amg.interp import build_interpolation
from repro.amg.smoothers import l1_jacobi_diagonal
from repro.amg.strength import strength_of_connection
from repro.check.fingerprint import diff_rows, row_digests
from repro.formats.csr import CSRMatrix
from repro.kernels.setup_cache import splice_segments

__all__ = [
    "LevelDirt",
    "CSRPatcher",
    "replace_rows",
    "patched_resetup",
    "verify_patched_hierarchy",
]

#: mBSR tile height: dirty sets are expanded to this granularity wherever
#: a block-structured backend consumes them, so scalar-row reasoning stays
#: sound for block-row plan splices.
_BLOCK = 4


@dataclass(frozen=True)
class LevelDirt:
    """Dirt context handed to a patcher's Galerkin replay.

    ``dv`` are the value-dirty rows of the level matrix; ``covered`` the
    full-space rows of P that were rebuilt and spliced.  A block backend
    derives its conversion-template dirty blocks from these.
    """

    dv: np.ndarray
    covered: np.ndarray


def replace_rows(base: CSRMatrix, rows: np.ndarray, sub: CSRMatrix) -> CSRMatrix:
    """Splice the rows of compact *sub* into *base* at the sorted *rows*.

    Row ``rows[i]`` of the result is row ``i`` of *sub*; every other row
    is copied from *base* verbatim, so the splice is bit-identical to a
    full rebuild whenever *sub* holds the rebuilt rows.
    """
    rows = np.asarray(rows, dtype=np.int64)
    geom = splice_segments(base.indptr, rows, np.diff(sub.indptr))
    return CSRMatrix(
        base.shape,
        geom.new_ptr,
        geom.splice(base.indices, sub.indices),
        geom.splice(base.data, sub.data),
        _canonical=True,
    )


class CSRPatcher:
    """Row-ranged product engine for the scalar CSR backends.

    The CSR SpGEMM is row-local, so computing ``A[rows] @ B`` through the
    very setup product the cold setup uses, at the same level and role,
    reproduces the selected rows of the full product bit for bit.  The
    AmgT backend supplies its own patcher (block-aligned mBSR replays over
    the spliced plan cache); this one serves the baseline and the HYPRE
    vendor path.
    """

    def __init__(self, spgemm: SetupProduct | None = None):
        self.spgemm = spgemm or csr_product

    def interp_rows(self, level, a_op, b_op, fpos):
        """Selected rows of ``a_op @ b_op`` (the extended+i product)."""
        return self.spgemm(a_op.extract_rows(fpos), b_op, level=level,
                           role=INTERP), fpos

    def galerkin_rows(self, level, r_new, a_new, p_new, rows, dirt):
        """Selected rows of ``R @ A @ P`` after zero pruning."""
        ra = self.spgemm(r_new.extract_rows(rows), a_new, level=level,
                         role=RA)
        rap = self.spgemm(ra, p_new, level=level, role=RAP)
        return rap.eliminate_zeros(0.0), rows


def _segment_take(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Flat entry positions of the given CSR rows."""
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    starts = np.repeat(indptr[rows], counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return starts + np.arange(total, dtype=np.int64) - offsets


def _expand_blocks(rows: np.ndarray, n: int) -> np.ndarray:
    """All scalar rows sharing an mBSR block with *rows* (clipped to n)."""
    if rows.shape[0] == 0:
        return rows
    blocks = np.unique(rows // _BLOCK)
    scal = (blocks[:, None] * _BLOCK + np.arange(_BLOCK)).ravel()
    return scal[scal < n]


def _dirty_interp_rows(strength: CSRMatrix, dv: np.ndarray) -> np.ndarray:
    """Rows whose interpolation can see the dirty set.

    Row f of P depends on A/strength row f and, through the extended+i
    product, on the ``D^{-1} A_FC`` rows of its strong neighbours — so f
    is dirty iff f itself changed or a strong neighbour of f did.
    """
    n = strength.nrows
    col_dirty = np.zeros(n, dtype=bool)
    col_dirty[dv] = True
    neigh = np.unique(strength.row_ids()[col_dirty[strength.indices]])
    return np.union1d(dv, neigh)


def _dirty_coarse_rows(
    p_old: CSRMatrix,
    p_new: CSRMatrix,
    covered: np.ndarray,
    a_new: CSRMatrix,
    dv: np.ndarray,
) -> np.ndarray:
    """Coarse rows the dirt can reach through ``R A P``.

    Coarse row c reads P column c (rows R), the A rows its interpolatory
    points touch, and the P rows those A rows reach.  Block expansion of
    the scalar sets keeps the result sound for the mBSR plan splices,
    whose clean block-rows must not reference any operand block-row whose
    tile list or bitmaps changed.
    """
    n = a_new.nrows
    dv_blk = _expand_blocks(dv, n)
    cov_blk = _expand_blocks(covered, n)
    parts = [
        # P-column drift: rows of R whose pattern or values changed.
        p_old.indices[_segment_take(p_old.indptr, covered)],
        p_new.indices[_segment_take(p_new.indptr, covered)],
        # A-row drift: coarse rows interpolating from a dirty fine row.
        p_new.indices[_segment_take(p_new.indptr, dv_blk)],
    ]
    # Reach through A into rebuilt P rows: coarse rows whose A rows touch
    # a covered column pick up the new interpolation weights there.
    mask = np.zeros(n, dtype=bool)
    mask[cov_blk] = True
    k_rows = np.unique(a_new.row_ids()[mask[a_new.indices]])
    parts.append(p_new.indices[_segment_take(p_new.indptr, k_rows)])
    return np.unique(np.concatenate(parts)).astype(np.int64)


def _coarsen(strength: CSRMatrix, params: SetupParams, level_index: int):
    from repro.amg.coarsen import pmis_coarsen

    seed = params.seed + level_index
    if params.coarsen_method == "pmis":
        return pmis_coarsen(strength, seed=seed)
    if params.coarsen_method == "hmis":
        from repro.amg.coarsen import hmis_coarsen

        return hmis_coarsen(strength, seed=seed)
    if params.coarsen_method == "aggressive":
        from repro.amg.coarsen import aggressive_coarsen

        return aggressive_coarsen(strength, seed=seed)
    raise ValueError(f"unknown coarsen_method {params.coarsen_method!r}")


def patched_resetup(
    a: CSRMatrix,
    reuse: AMGHierarchy,
    params: SetupParams,
    spgemm: SetupProduct | None,
    *,
    patcher=None,
    threshold: float = 0.5,
) -> tuple[AMGHierarchy | None, str | None]:
    """Patch *reuse* into the hierarchy a cold setup on *a* would build.

    Returns ``(hierarchy, None)`` on success — every operator bit-equal
    to a cold setup's — or ``(None, reason)`` when the cache cannot be
    patched and the caller must fall back to a full setup.
    """
    if params != reuse.params:
        return None, "params"
    if (
        not reuse.pattern_keys
        or reuse.num_levels != len(reuse.pattern_keys)
        or a.shape != reuse.levels[0].a.shape
    ):
        return None, "shape"
    if patcher is None:
        patcher = CSRPatcher(spgemm)

    levels: list[AMGLevel] = []
    spgemm_calls = 0
    stats: dict = {"levels": [], "dirty_rows": 0, "patched_levels": 0,
                   "clean_levels": 0}
    current = a
    nlev = reuse.num_levels
    for k in range(nlev - 1):
        cached = reuse.levels[k]
        if cached.p is None or cached.r is None or cached.cf_marker is None:
            return None, "structure"
        dv = diff_rows(
            row_digests(cached.a, values=True),
            row_digests(current, values=True),
        )
        if dv.shape[0] == 0:
            # Bit-identical level matrix: every downstream stage is a
            # deterministic function of it, so the cached level (and the
            # cached coarse matrix) are exactly what cold would rebuild.
            dinv = cached.dinv
            if dinv is None:
                dinv = 1.0 / l1_jacobi_diagonal(current)
            levels.append(AMGLevel(index=k, a=current, p=cached.p,
                                   r=cached.r, dinv=dinv,
                                   cf_marker=cached.cf_marker))
            stats["levels"].append({"level": k, "dirty": 0, "frac": 0.0,
                                    "interp_rows": 0, "coarse_rows": 0})
            stats["clean_levels"] += 1
            current = reuse.levels[k + 1].a
            continue

        frac = dv.shape[0] / max(current.nrows, 1)
        # Cost guard: patch work is proportional to the *cumulative* dirty
        # rows, cold work to the fine-level size — dirt amplifies down the
        # chain, but the coarse levels it floods are small, so per-level
        # fractions would spuriously trip on them.
        stats["dirty_rows"] += int(dv.shape[0])
        if stats["dirty_rows"] > threshold * a.nrows:
            return None, "dirty-fraction"
        # Cheap stages run cold.  The patch only holds under the cached
        # C/F splitting: a drifted splitting invalidates every cached
        # interpolation row, so it falls back rather than re-splitting.
        strength = strength_of_connection(
            current, params.strength_threshold, params.max_row_sum
        )
        if strength.nnz == 0:
            return None, "level-drift"
        coarsening = _coarsen(strength, params, k)
        nc = coarsening.n_coarse
        if (
            nc == 0
            or nc >= current.nrows * params.min_coarsen_rate
            or nc == current.nrows
        ):
            # The cold loop would stop coarsening here; the cached depth
            # no longer matches the new operator.
            return None, "level-drift"
        if not np.array_equal(coarsening.cf_marker, cached.cf_marker):
            return None, "cf-drift"

        dirty_p = _dirty_interp_rows(strength, dv)
        p_sub, covered = build_interpolation(
            current,
            strength,
            coarsening.cf_marker,
            method=params.interp_method,
            trunc_factor=params.trunc_factor,
            max_elmts=params.max_elmts,
            rows=dirty_p,
            rows_spgemm=lambda x, y, fp, _k=k: patcher.interp_rows(
                _k, x, y, fp
            ),
        )
        if covered.shape[0]:
            spgemm_calls += 1
            p_new = replace_rows(cached.p, covered, p_sub)
        else:
            p_new = cached.p
        r_new = p_new.transpose()

        dc = _dirty_coarse_rows(cached.p, p_new, covered, current, dv)
        cached_coarse = reuse.levels[k + 1].a
        if dc.shape[0]:
            rap_sub, cov_c = patcher.galerkin_rows(
                k, r_new, current, p_new, dc, LevelDirt(dv=dv, covered=covered)
            )
            spgemm_calls += 2
            coarse = replace_rows(cached_coarse, cov_c, rap_sub)
        else:
            coarse = cached_coarse

        level = AMGLevel(index=k, a=current, p=p_new, r=r_new,
                         cf_marker=coarsening.cf_marker)
        level.dinv = 1.0 / l1_jacobi_diagonal(current)
        levels.append(level)
        stats["levels"].append({
            "level": k,
            "dirty": int(dv.shape[0]),
            "frac": float(frac),
            "interp_rows": int(covered.shape[0]),
            "coarse_rows": int(dc.shape[0]),
        })
        stats["patched_levels"] += 1
        current = coarse

    cached_last = reuse.levels[nlev - 1]
    dv_last = diff_rows(
        row_digests(cached_last.a, values=True),
        row_digests(current, values=True),
    )
    # Mirror the cold loop's termination: some break must fire on the
    # coarsest level, else a cold setup would coarsen further.
    if not (nlev >= params.max_levels
            or current.nrows <= params.max_coarse_size):
        strength = strength_of_connection(
            current, params.strength_threshold, params.max_row_sum
        )
        if strength.nnz != 0:
            nc = _coarsen(strength, params, nlev - 1).n_coarse
            if not (
                nc == 0
                or nc >= current.nrows * params.min_coarsen_rate
                or nc == current.nrows
            ):
                return None, "level-drift"
    last = AMGLevel(index=nlev - 1, a=current)
    if dv_last.shape[0] == 0 and cached_last.dinv is not None:
        last.dinv = cached_last.dinv
        coarse_solver = reuse.coarse_solver
    else:
        last.dinv = 1.0 / l1_jacobi_diagonal(current)
        coarse_solver = CoarseSolver(current, method=params.coarse_solver)
    levels.append(last)

    hierarchy = AMGHierarchy(
        levels=levels,
        coarse_solver=coarse_solver,
        params=params,
        spgemm_calls=spgemm_calls,
        pattern_keys=[lvl.a.pattern_key() for lvl in levels],
        patched=True,
        patch_stats=stats,
        # A fresh object already re-records tapes, but the explicit bump
        # makes the invalidation visible to anything holding generation.
        generation=reuse.generation + 1,
    )
    return hierarchy, None


def verify_patched_hierarchy(
    hierarchy: AMGHierarchy,
    a: CSRMatrix,
    params: SetupParams,
    spgemm: SetupProduct | None,
) -> None:
    """REPRO_CHECK differential oracle: patched setup == cold setup.

    Runs a full cold setup through the *same* SpGEMM callable and compares
    every operator bytewise.  Raises
    :class:`~repro.check.violation.ContractViolation` on any drift.
    """
    from repro.amg.hierarchy import _amg_setup_impl
    from repro.check.violation import ContractViolation

    cold = _amg_setup_impl(a, params, spgemm, reuse=None)
    if cold.num_levels != hierarchy.num_levels:
        raise ContractViolation(
            "amg_setup", "setup/patched-differential",
            f"level count drift: patched {hierarchy.num_levels} vs cold "
            f"{cold.num_levels}",
        )
    for lvl, ref in zip(hierarchy.levels, cold.levels):
        pairs = [("a", lvl.a, ref.a), ("p", lvl.p, ref.p), ("r", lvl.r, ref.r)]
        for name, got, want in pairs:
            if got is None and want is None:
                continue
            if (
                got is None
                or want is None
                or got.shape != want.shape
                or not np.array_equal(got.indptr, want.indptr)
                or not np.array_equal(got.indices, want.indices)
                or got.data.tobytes() != want.data.tobytes()
            ):
                raise ContractViolation(
                    "amg_setup", "setup/patched-differential",
                    f"level {lvl.index} operator {name!r} differs from the "
                    "cold setup",
                )
        if (lvl.dinv is None) != (ref.dinv is None) or (
            lvl.dinv is not None
            and lvl.dinv.tobytes() != ref.dinv.tobytes()
        ):
            raise ContractViolation(
                "amg_setup", "setup/patched-differential",
                f"level {lvl.index} smoothing diagonal differs from the "
                "cold setup",
            )
