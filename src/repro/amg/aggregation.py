"""Smoothed-aggregation AMG components.

The paper's related work contrasts classical (PMIS/interpolation) AMG with
aggregation-based AMG (AmgX, Bernaschi et al.).  This module provides the
aggregation family so both can run on the same kernel backends:

* :func:`greedy_aggregate` — standard pairwise/neighbourhood aggregation
  on the strength graph: each unaggregated node opens an aggregate with
  its unaggregated strong neighbours; leftovers join the neighbouring
  aggregate with the strongest connection.
* :func:`tentative_prolongator` — the piecewise-constant P_tent whose
  column j is the indicator of aggregate j.
* :func:`smoothed_prolongator` — one damped-Jacobi smoothing step
  ``P = (I - omega D^{-1} A) P_tent`` (omega = 2/3 by default), applied as
  one SpGEMM — so AmgT's tensor-core SpGEMM accelerates this family's
  setup exactly like the classical one.
* :func:`sa_setup` — drop-in alternative to :func:`repro.amg.amg_setup`
  producing the same :class:`~repro.amg.hierarchy.AMGHierarchy` structure,
  solvable by the same V/W/F cycles and backends.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.amg.coarse import CoarseSolver
from repro.amg.galerkin import (
    INTERP, SetupProduct, csr_product, galerkin_product,
)
from repro.amg.hierarchy import AMGHierarchy, AMGLevel, SetupParams
from repro.amg.smoothers import l1_jacobi_diagonal
from repro.amg.strength import strength_of_connection
from repro.formats.csr import CSRMatrix

__all__ = [
    "greedy_aggregate",
    "tentative_prolongator",
    "tentative_prolongator_nullspace",
    "rigid_body_modes_2d",
    "smoothed_prolongator",
    "sa_setup",
]

SpGEMMFn = Callable[[CSRMatrix, CSRMatrix], CSRMatrix]


def greedy_aggregate(strength: CSRMatrix, seed: int = 0) -> np.ndarray:
    """Aggregate nodes over the strength graph.

    Returns ``agg`` of length n with ``agg[i]`` the aggregate id of node i
    (ids are contiguous from 0).  Isolated nodes form singleton aggregates
    so the prolongator always spans the whole space.
    """
    n = strength.nrows
    agg = -np.ones(n, dtype=np.int64)
    if n == 0:
        return agg
    # Symmetrise the neighbourhood.
    rows = np.concatenate([strength.row_ids(), strength.indices])
    cols = np.concatenate([strength.indices, strength.row_ids()])
    sym = CSRMatrix.from_coo(rows, cols, np.ones(rows.shape[0]), (n, n))

    next_id = 0
    # Pass 1: open aggregates around fully-unaggregated neighbourhoods.
    # Natural order produces compact tile-like aggregates on mesh
    # problems (a random order yields fewer pass-1 roots and fatter
    # aggregates, which weakens the coarse space); the seed only rotates
    # the starting point for tie-breaking diversity.
    start = seed % n
    order = np.concatenate([np.arange(start, n), np.arange(0, start)])
    for i in order:
        if agg[i] >= 0:
            continue
        lo, hi = sym.indptr[i], sym.indptr[i + 1]
        nbrs = sym.indices[lo:hi]
        nbrs = nbrs[nbrs != i]
        if np.all(agg[nbrs] < 0):
            agg[i] = next_id
            agg[nbrs] = next_id
            next_id += 1
    # Pass 2: attach leftovers to the *smallest* neighbouring aggregate,
    # which keeps aggregate sizes even (large aggregates degrade the
    # piecewise-constant coarse space).
    sizes = np.bincount(agg[agg >= 0], minlength=max(next_id, 1))
    for i in range(n):
        if agg[i] >= 0:
            continue
        lo, hi = sym.indptr[i], sym.indptr[i + 1]
        nbrs = sym.indices[lo:hi]
        nbrs = nbrs[(nbrs != i)]
        nbrs = nbrs[agg[nbrs] >= 0]
        if nbrs.size:
            target = agg[nbrs[np.argmin(sizes[agg[nbrs]])]]
            agg[i] = target
            sizes[target] += 1
        else:
            agg[i] = next_id
            sizes = np.append(sizes, 1)
            next_id += 1
    return agg


def tentative_prolongator(agg: np.ndarray) -> CSRMatrix:
    """Piecewise-constant prolongator from an aggregate assignment."""
    agg = np.asarray(agg, dtype=np.int64)
    n = agg.shape[0]
    if n == 0:
        return CSRMatrix.zeros((0, 0))
    if agg.min() < 0:
        raise ValueError("every node must belong to an aggregate")
    nc = int(agg.max()) + 1
    return CSRMatrix.from_coo(
        np.arange(n), agg, np.ones(n), (n, nc), sum_duplicates=False
    )


def tentative_prolongator_nullspace(
    agg: np.ndarray, nullspace: np.ndarray
) -> tuple[CSRMatrix, np.ndarray]:
    """Nullspace-aware tentative prolongator (standard SA construction).

    For a near-nullspace basis ``B`` of shape ``(n, k)`` (constants for
    scalar PDEs, rigid-body modes for elasticity), each aggregate's rows of
    B are QR-factorised: the Q block becomes that aggregate's columns of
    ``P_tent`` (so ``range(P_tent)`` contains B exactly) and the R factor
    becomes the coarse-level nullspace, returned for the next level.

    Returns ``(P_tent, B_coarse)`` with ``P_tent`` of shape
    ``(n, n_agg * k)`` and ``B_coarse`` of shape ``(n_agg * k, k)``.
    """
    agg = np.asarray(agg, dtype=np.int64)
    nullspace = np.atleast_2d(np.asarray(nullspace, dtype=np.float64))
    if nullspace.shape[0] == 1 and agg.shape[0] != 1:
        nullspace = nullspace.T
    n, k = nullspace.shape
    if agg.shape[0] != n:
        raise ValueError("aggregate assignment and nullspace length differ")
    if n and agg.min() < 0:
        raise ValueError("every node must belong to an aggregate")
    n_agg = int(agg.max()) + 1 if n else 0

    rows, cols, vals = [], [], []
    b_coarse = np.zeros((n_agg * k, k))
    for g in range(n_agg):
        members = np.flatnonzero(agg == g)
        m = members.shape[0]
        local = nullspace[members]  # (m, k)
        q, r = np.linalg.qr(local)  # q: (m, kk), r: (kk, k), kk = min(m, k)
        kk = q.shape[1]
        # Aggregates smaller than k cannot carry k independent modes: pad
        # with zero columns (they drop out of P and leave zero rows in the
        # coarse nullspace, which downstream levels simply ignore).
        q_full = np.zeros((m, k))
        q_full[:, :kk] = q
        rows.append(np.repeat(members, k))
        cols.append(np.tile(g * k + np.arange(k), m))
        vals.append(q_full.ravel())
        b_coarse[g * k: g * k + kk] = r
    if n_agg == 0:
        return CSRMatrix.zeros((n, 0)), b_coarse
    p = CSRMatrix.from_coo(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        (n, n_agg * k),
    ).eliminate_zeros(1e-14)
    return p, b_coarse


def rigid_body_modes_2d(coords: np.ndarray) -> np.ndarray:
    """The three 2-D rigid-body modes for a vector problem.

    ``coords`` has shape ``(n_nodes, 2)``; the returned basis has shape
    ``(2 * n_nodes, 3)``: x-translation, y-translation, in-plane rotation —
    the near-nullspace of plane elasticity that SA needs to coarsen it
    well.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must have shape (n_nodes, 2)")
    n_nodes = coords.shape[0]
    b = np.zeros((2 * n_nodes, 3))
    b[0::2, 0] = 1.0  # x translation
    b[1::2, 1] = 1.0  # y translation
    # rotation about the centroid: (-y, x)
    centred = coords - coords.mean(axis=0)
    b[0::2, 2] = -centred[:, 1]
    b[1::2, 2] = centred[:, 0]
    return b


def smoothed_prolongator(
    a: CSRMatrix,
    p_tent: CSRMatrix,
    omega: float | None = None,
    spgemm: SpGEMMFn | None = None,
) -> CSRMatrix:
    """One damped-Jacobi smoothing of the tentative prolongator.

    ``P = (I - omega * D^{-1} A) P_tent`` — computed as
    ``P_tent - omega * (D^{-1} A) @ P_tent`` with a single SpGEMM, so the
    backend's tensor-core kernel carries this family's setup too.
    ``omega`` defaults to the classical ``4 / (3 * lambda_max(D^{-1} A))``
    with the eigenvalue estimated by power iteration.
    """
    if omega is None:
        from repro.amg.smoothers import estimate_spectral_radius

        diag0 = a.diagonal().astype(np.float64)
        safe0 = np.where(diag0 != 0, diag0, 1.0)
        lam = estimate_spectral_radius(
            lambda v: a.matvec(v) / safe0, a.nrows
        ) / 1.1  # strip the safety margin for the damping formula
        omega = 4.0 / (3.0 * max(lam, 1e-12))
        omega = min(omega, 1.9)
    if not (0.0 < omega < 2.0):
        raise ValueError(f"omega must lie in (0, 2), got {omega}")
    if spgemm is None:
        from repro.kernels.baseline import csr_spgemm

        spgemm = lambda x, y: csr_spgemm(x, y)[0]  # noqa: E731
    diag = a.diagonal().astype(np.float64)
    safe = np.where(diag != 0, diag, 1.0)
    da = a.scale_rows(1.0 / safe)
    dap = spgemm(da, p_tent)
    return p_tent.add(dap, alpha=-omega)


def sa_setup(
    a: CSRMatrix,
    params: SetupParams | None = None,
    spgemm: SetupProduct | None = None,
    omega: float | None = None,
    nullspace: np.ndarray | None = None,
) -> AMGHierarchy:
    """Smoothed-aggregation setup producing a standard hierarchy.

    Reuses ``params`` for the strength threshold, level cap and coarse
    size; the coarsening is aggregation instead of PMIS and the
    prolongator is the smoothed tentative operator (3 SpGEMMs per level:
    1 smoothing + 2 Galerkin, the same count as the classical path).
    ``spgemm`` is a :data:`~repro.amg.galerkin.SetupProduct`, called with
    each product's level index and role.

    ``nullspace`` supplies a near-nullspace basis ``(n, k)`` that
    ``range(P)`` must contain (rigid-body modes for elasticity via
    :func:`rigid_body_modes_2d`); it is QR-coarsened level by level.
    Omitted, the constant vector is used — the right default for scalar
    PDEs.
    """
    if a.nrows != a.ncols:
        raise ValueError("AMG requires a square matrix")
    params = params or SetupParams()
    product = spgemm or csr_product
    spgemm_calls = 0
    levels: list[AMGLevel] = []
    current = a
    current_ns = None
    if nullspace is not None:
        current_ns = np.atleast_2d(np.asarray(nullspace, dtype=np.float64))
        if current_ns.shape[0] == 1 and a.nrows != 1:
            current_ns = current_ns.T
        if current_ns.shape[0] != a.nrows:
            raise ValueError("nullspace length must match the matrix size")
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
            break
        agg = greedy_aggregate(strength, seed=params.seed + level.index)
        nc = int(agg.max()) + 1
        if nc == 0 or nc >= current.nrows * params.min_coarsen_rate:
            break
        if current_ns is not None:
            p_tent, next_ns = tentative_prolongator_nullspace(agg, current_ns)
            if p_tent.ncols >= current.nrows:
                break  # k columns per aggregate stopped shrinking the space
        else:
            p_tent, next_ns = tentative_prolongator(agg), None
        p = smoothed_prolongator(
            current, p_tent, omega=omega,
            spgemm=partial(product, level=level.index, role=INTERP),
        )
        r = p.transpose()
        coarse = galerkin_product(r, current, p, spgemm=product,
                                  level=level.index, drop_tol=0.0)
        spgemm_calls += 3
        level.p = p
        level.r = r
        current = coarse
        current_ns = next_ns

    coarse_solver = CoarseSolver(levels[-1].a, method=params.coarse_solver)
    return AMGHierarchy(
        levels=levels, coarse_solver=coarse_solver, params=params,
        spgemm_calls=spgemm_calls,
    )
