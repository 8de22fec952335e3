"""The M-level setup phase (Alg. 1) and the Fig. 6 data flow.

``amg_setup`` iterates coarsening -> interpolation -> Galerkin product
until the grid is small enough or the level cap is reached.  All matrix
products go through an injected SpGEMM callable, told each product's level
and role, so the same driver serves the CSR baseline and the
mBSR/tensor-core AmgT backend at any precision schedule; the hypre layer
wraps the kernels with format conversions (CSR2MBSR before the products,
MBSR2CSR after RAP) and timing, mirroring the numbered steps of Fig. 6.

Levels are numbered from 0 (finest).  Level k holds ``A^k`` plus the
operators ``P^k`` (interpolation from level k+1) and ``R^k = (P^k)^T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.amg.coarse import CoarseSolver
from repro.amg.coarsen import pmis_coarsen
from repro.amg.galerkin import (
    INTERP, SetupProduct, csr_product, finish_galerkin, galerkin_product,
)
from repro.amg.interp import build_interpolation
from repro.amg.smoothers import l1_jacobi_diagonal
from repro.amg.strength import strength_of_connection
from repro.formats.csr import CSRMatrix
from repro.obs import trace as obs_trace
from repro.obs import names as obs_names

__all__ = ["SetupParams", "AMGLevel", "AMGHierarchy", "amg_setup"]

#: ``fused_rap(r, a, p, *, level) -> R @ A @ P`` in one fused pass.
FusedRAP = Callable[..., CSRMatrix]


@dataclass(frozen=True)
class SetupParams:
    """Setup-phase configuration (defaults = the paper's Sec. V.A)."""

    strength_threshold: float = 0.25
    max_row_sum: float = 0.8
    max_levels: int = 7
    max_coarse_size: int = 3
    #: ``'classical'`` (the paper's configuration: C/F splitting +
    #: interpolation) or ``'aggregation'`` (smoothed aggregation, the
    #: AmgX-style family of the related work).
    amg_family: str = "classical"
    #: ``'pmis'`` (the paper's configuration), ``'hmis'`` or
    #: ``'aggressive'`` (HYPRE's agg_num_levels-style two-stage PMIS).
    coarsen_method: str = "pmis"
    interp_method: str = "extended+i"
    trunc_factor: float = 0.1
    max_elmts: int = 4
    coarse_solver: str = "direct"
    seed: int = 0
    #: Stop coarsening when a level keeps more than this fraction of the
    #: previous level's unknowns (coarsening stagnation guard).
    min_coarsen_rate: float = 0.9


@dataclass
class AMGLevel:
    """One level of the hierarchy."""

    index: int
    a: CSRMatrix
    #: Interpolation to this level from the next coarser one (None on the
    #: coarsest level).
    p: CSRMatrix | None = None
    #: Restriction R = P^T (None on the coarsest level).
    r: CSRMatrix | None = None
    #: Reciprocal of the L1-Jacobi smoothing diagonal.
    dinv: np.ndarray | None = None
    cf_marker: np.ndarray | None = None
    #: Lazily-computed per-level data (e.g. Chebyshev eigenvalue bounds).
    extras: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.a.nrows


@dataclass
class AMGHierarchy:
    """The output of the setup phase."""

    levels: list[AMGLevel]
    coarse_solver: CoarseSolver
    params: SetupParams
    #: Number of SpGEMM calls the setup performed (3 per non-coarsest level
    #: when extended+i interpolation is used: 1 interp + 2 Galerkin).
    spgemm_calls: int = 0
    #: Per-level sparsity-pattern digests of the A matrices, finest first.
    #: ``amg_setup(reuse=...)`` compares them against a recomputed setup to
    #: decide whether the cached coarsening/interpolation still applies.
    pattern_keys: list = field(default_factory=list)
    #: True when this hierarchy was produced by a structure-reusing
    #: re-setup (frozen coarsening + interpolation, numeric Galerkin only).
    reused: bool = False
    #: True when this hierarchy was produced by the incremental patch path
    #: (:mod:`repro.amg.patch`): dirty rows recomputed and spliced into the
    #: cached operators, bit-identical to a cold setup.
    patched: bool = False
    #: Telemetry of the patch path: per-level dirty-row counts/fractions
    #: plus patched/clean level totals (empty unless ``patched``).
    patch_stats: dict = field(default_factory=dict)
    #: Monotone invalidation counter for recorded solve tapes
    #: (:mod:`repro.tape`).  Any in-place mutation of the hierarchy that
    #: bypasses object replacement must call :meth:`invalidate_solve_tapes`
    #: so recorded tapes re-record instead of replaying stale operators;
    #: tapes additionally fingerprint the per-level operator identities,
    #: so swapping a level matrix/interpolation/diagonal is caught even
    #: without an explicit bump.
    generation: int = 0

    def invalidate_solve_tapes(self) -> None:
        """Bump the tape-invalidation generation counter."""
        self.generation += 1

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def operator_complexity(self) -> float:
        """sum(nnz(A_k)) / nnz(A_0) — the standard AMG grid-complexity metric."""
        base = self.levels[0].a.nnz
        if base == 0:
            return 1.0
        return sum(lvl.a.nnz for lvl in self.levels) / base

    def describe(self) -> str:
        lines = [
            f"AMG hierarchy: {self.num_levels} levels, "
            f"operator complexity {self.operator_complexity():.2f}"
        ]
        for lvl in self.levels:
            lines.append(f"  level {lvl.index}: n={lvl.n}, nnz={lvl.a.nnz}")
        return "\n".join(lines)


def amg_setup(
    a: CSRMatrix,
    params: SetupParams | None = None,
    spgemm: SetupProduct | None = None,
    *,
    reuse: AMGHierarchy | None = None,
    fused_rap: FusedRAP | None = None,
    patch: bool = False,
    patcher=None,
    patch_threshold: float = 0.5,
) -> AMGHierarchy:
    """Run the M-level setup phase on *a*.

    Parameters
    ----------
    a:
        The fine-level matrix (square CSR).
    params:
        Setup configuration; defaults to the paper's.
    spgemm:
        Injected :data:`~repro.amg.galerkin.SetupProduct` used for
        interpolation and the Galerkin product; defaults to the CSR
        baseline.  Every path (cold, exact re-setup, patch through the
        CSR patcher, fallback) calls it with the product's level index
        and role, so a backend prices each product at its level's
        precision without tracking call order.
    reuse:
        A hierarchy from an earlier setup on a same-pattern matrix.  When
        the pattern fingerprints match level by level, coarsening and
        interpolation are frozen (HYPRE's reuse-interpolation semantics)
        and only the numeric Galerkin passes and smoothing diagonals are
        recomputed — the alpha-Setup scenario.  Any mismatch (different
        fine pattern, different params, or a coarse matrix whose recomputed
        pattern drifts from the cached one) falls back to a full setup, so
        ``reuse`` is always safe to pass.

        Reuse (exact or patched) is only implemented for the classical
        family: with ``amg_family='aggregation'`` the argument is ignored,
        a full setup runs, and a ``setup_reuse_total{outcome='fallback',
        reason='amg-family'}`` counter records the miss.
    fused_rap:
        Optional ``fused_rap(r, a, p, level=k) -> R @ A @ P`` the exact
        re-setup calls instead of the two-product Galerkin chain (the AmgT
        backend's fused plan replay); it counts as two SpGEMM calls.
        Ignored on every other path.
    patch:
        With ``reuse``, try the *incremental patch path* first
        (:func:`repro.amg.patch.patched_resetup`): diff per-row value
        digests level by level, recompute only the dirty interpolation
        and Galerkin rows, and splice them into the cached operators.
        The result is bit-identical to a cold setup on *a* (unlike the
        frozen-interpolation exact re-setup, which keeps stale
        interpolation weights); on any fallback a full cold setup runs.
    patcher:
        Row-ranged product engine for the patch path (the AmgT backend's
        block-aligned patcher); defaults to the row-local CSR engine
        wrapping *spgemm*.
    patch_threshold:
        Fallback guard for the patch path: when the cumulative dirty-row
        count across levels exceeds this fraction of the fine-level row
        count, the patch falls back to a full setup (reason
        ``'dirty-fraction'``) — patch work scales with the dirty rows,
        cold work with the fine level.
    """
    if a.nrows != a.ncols:
        raise ValueError("AMG requires a square matrix")
    params = params or SetupParams()
    with obs_trace.phase_span("setup"):
        return _amg_setup_impl(
            a, params, spgemm,
            reuse=reuse,
            fused_rap=fused_rap,
            patch=patch,
            patcher=patcher,
            patch_threshold=patch_threshold,
        )


def _count_reuse(outcome: str, reason: str | None = None) -> None:
    """Fold one reuse decision into ``setup_reuse_total{outcome, reason}``
    and the flight recorder's event ring."""
    from repro.obs import blackbox
    from repro.obs import metrics as obs_metrics

    labels = {"outcome": outcome}
    if reason is not None:
        labels["reason"] = reason
    obs_metrics.inc(obs_names.SETUP_REUSE, **labels)
    blackbox.record("setup_reuse", **labels)


def _amg_setup_impl(
    a: CSRMatrix,
    params: SetupParams,
    spgemm: SetupProduct | None,
    *,
    reuse: AMGHierarchy | None,
    fused_rap: FusedRAP | None = None,
    patch: bool = False,
    patcher=None,
    patch_threshold: float = 0.5,
) -> AMGHierarchy:
    if reuse is not None and params.amg_family != "classical":
        # Reuse is only implemented for the classical family; record the
        # miss instead of silently ignoring the argument (see docstring).
        _count_reuse("fallback", "amg-family")
    elif reuse is not None and patch:
        from repro.amg.patch import patched_resetup, verify_patched_hierarchy

        hierarchy, reason = patched_resetup(
            a, reuse, params, spgemm,
            patcher=patcher,
            threshold=patch_threshold,
        )
        if hierarchy is not None:
            _count_reuse("patched")
            from repro.check import runtime as check_runtime

            if check_runtime.is_active():
                from repro.check.structural import validate_hierarchy

                validate_hierarchy(hierarchy)
                verify_patched_hierarchy(hierarchy, a, params, spgemm)
            return hierarchy
        # The patch path falls back to a *cold* setup, not the exact
        # re-setup: exact reuse freezes interpolation weights, which is a
        # weaker contract than the patch path's cold-identical one.  A
        # cold fallback on an evolving problem is the forensic case the
        # flight recorder exists for: dump a postmortem bundle.
        _count_reuse("fallback", reason)
        from repro.obs import blackbox

        blackbox.trigger("patch-fallback", detail=reason or "")
    elif reuse is not None:
        hierarchy, reason = _numeric_resetup(
            a, reuse, params, spgemm, fused_rap
        )
        if hierarchy is not None:
            _count_reuse("exact")
            return hierarchy
        # Pattern or parameter mismatch: the cached structure does not
        # apply; run the full setup below.
        _count_reuse("fallback", reason)
    if params.amg_family == "aggregation":
        from repro.amg.aggregation import sa_setup

        return sa_setup(a, params, spgemm=spgemm)
    if params.amg_family != "classical":
        raise ValueError(f"unknown amg_family {params.amg_family!r}")
    levels: list[AMGLevel] = []
    current = a
    spgemm_calls = 0
    product = spgemm or csr_product

    def counted(x: CSRMatrix, y: CSRMatrix, *, level: int,
                role: str) -> CSRMatrix:
        nonlocal spgemm_calls
        spgemm_calls += 1
        return product(x, y, level=level, role=role)

    while True:
        level = AMGLevel(index=len(levels), a=current)
        level.dinv = 1.0 / l1_jacobi_diagonal(current)
        levels.append(level)

        if len(levels) >= params.max_levels:
            break
        if current.nrows <= params.max_coarse_size:
            break

        strength = strength_of_connection(
            current, params.strength_threshold, params.max_row_sum
        )
        if strength.nnz == 0:
            break  # nothing to coarsen on
        if params.coarsen_method == "pmis":
            coarsening = pmis_coarsen(strength, seed=params.seed + level.index)
        elif params.coarsen_method == "hmis":
            from repro.amg.coarsen import hmis_coarsen

            coarsening = hmis_coarsen(strength, seed=params.seed + level.index)
        elif params.coarsen_method == "aggressive":
            from repro.amg.coarsen import aggressive_coarsen

            coarsening = aggressive_coarsen(
                strength, seed=params.seed + level.index
            )
        else:
            raise ValueError(
                f"unknown coarsen_method {params.coarsen_method!r}"
            )
        nc = coarsening.n_coarse
        if nc == 0 or nc >= current.nrows * params.min_coarsen_rate or nc == current.nrows:
            break
        level.cf_marker = coarsening.cf_marker
        p = build_interpolation(
            current,
            strength,
            coarsening.cf_marker,
            method=params.interp_method,
            trunc_factor=params.trunc_factor,
            max_elmts=params.max_elmts,
            spgemm=partial(counted, level=level.index, role=INTERP),
        )
        r = p.transpose()
        coarse = galerkin_product(r, current, p, spgemm=counted,
                                  level=level.index, drop_tol=0.0)
        level.p = p
        level.r = r
        current = coarse

    coarse_solver = CoarseSolver(levels[-1].a, method=params.coarse_solver)
    hierarchy = AMGHierarchy(
        levels=levels,
        coarse_solver=coarse_solver,
        params=params,
        spgemm_calls=spgemm_calls,
        pattern_keys=[lvl.a.pattern_key() for lvl in levels],
    )
    from repro.check import runtime as check_runtime

    if check_runtime.is_active():
        from repro.check.structural import validate_hierarchy

        validate_hierarchy(hierarchy)
    return hierarchy


def _numeric_resetup(
    a: CSRMatrix,
    reuse: AMGHierarchy,
    params: SetupParams,
    spgemm: SetupProduct | None,
    fused_rap: FusedRAP | None,
) -> tuple[AMGHierarchy | None, str | None]:
    """Re-run only the numeric Galerkin passes against cached structure.

    Freezes the cached C/F splittings and interpolation operators (values
    included — interpolation weights are a function of the level matrix,
    but HYPRE's reuse-interpolation mode keeps them, and so does the
    paper's alpha-Setup) and recomputes the smoothing diagonals plus the
    two Galerkin products per level.  Returns ``(None, reason)`` when the
    cached structure does not apply, telling the caller to run a full
    setup: every recomputed coarse matrix's pattern fingerprint is
    compared to the cached one, so structural drift is detected level by
    level, never silently propagated.
    """
    if params != reuse.params:
        return None, "params"
    if (
        not reuse.pattern_keys
        or reuse.num_levels != len(reuse.pattern_keys)
        or a.shape != reuse.levels[0].a.shape
    ):
        return None, "shape"
    if a.pattern_key() != reuse.pattern_keys[0]:
        return None, "pattern-drift"

    levels: list[AMGLevel] = []
    spgemm_calls = 0
    current = a
    for k in range(reuse.num_levels - 1):
        cached = reuse.levels[k]
        if cached.p is None or cached.r is None:
            return None, "structure"
        level = AMGLevel(
            index=k,
            a=current,
            p=cached.p,
            r=cached.r,
            cf_marker=cached.cf_marker,
        )
        level.dinv = 1.0 / l1_jacobi_diagonal(current)
        levels.append(level)

        if fused_rap is None:
            coarse = galerkin_product(cached.r, current, cached.p, spgemm,
                                      level=k, drop_tol=0.0)
        else:
            rap = fused_rap(cached.r, current, cached.p, level=k)
            coarse = finish_galerkin(cached.r, current, cached.p, rap)
        spgemm_calls += 2
        if coarse.pattern_key() != reuse.pattern_keys[k + 1]:
            # Numeric cancellation (or a genuinely different operator)
            # changed the coarse structure: the frozen interpolation no
            # longer matches what a full setup would build.
            return None, "pattern-drift"
        current = coarse

    last = AMGLevel(index=reuse.num_levels - 1, a=current)
    last.dinv = 1.0 / l1_jacobi_diagonal(current)
    levels.append(last)
    hierarchy = AMGHierarchy(
        levels=levels,
        coarse_solver=CoarseSolver(current, method=params.coarse_solver),
        params=params,
        spgemm_calls=spgemm_calls,
        pattern_keys=list(reuse.pattern_keys),
        reused=True,
    )
    from repro.check import runtime as check_runtime

    if check_runtime.is_active():
        from repro.check.structural import validate_hierarchy

        validate_hierarchy(hierarchy)
    return hierarchy, None
