"""The Galerkin product A_coarse = R @ A @ P (Alg. 1 line 5).

Two SpGEMM calls per level — ``RA = R @ A`` then ``RAP = RA @ P`` — which,
together with the one SpGEMM inside interpolation, are the three calls per
level that dominate the setup phase (Fig. 1: 59% of setup time on average).
The SpGEMM implementation is injected so the HYPRE baseline (CSR,
cuSPARSE-style) and AmgT (mBSR, tensor-core) run the identical algebra.

Every setup product is a :data:`SetupProduct`: besides its two operands it
receives the index of the level it belongs to and its role — the
interpolation (or smoothed-aggregation) product, ``R @ A`` or
``RA @ P`` — from the code that computes it.  A backend derives the
level's precision and the Fig. 6 MBSR2CSR charge from these arguments
alone; nothing infers them from call order.
"""

from __future__ import annotations

from typing import Callable

from repro.formats.csr import CSRMatrix

__all__ = [
    "INTERP",
    "RA",
    "RAP",
    "SetupProduct",
    "csr_product",
    "galerkin_product",
    "finish_galerkin",
]

#: Roles of the setup products: the one product inside interpolation (or
#: the smoothed-aggregation prolongator), and the two Galerkin products.
INTERP, RA, RAP = "interp", "ra", "rap"

#: ``product(x, y, *, level, role) -> x @ y``.
SetupProduct = Callable[..., CSRMatrix]


def csr_product(x: CSRMatrix, y: CSRMatrix, *, level: int = 0,
                role: str = INTERP) -> CSRMatrix:
    """The CSR baseline setup product (level and role do not change it)."""
    from repro.kernels.baseline import csr_spgemm

    return csr_spgemm(x, y)[0]


def galerkin_product(
    r: CSRMatrix,
    a: CSRMatrix,
    p: CSRMatrix,
    spgemm: SetupProduct | None = None,
    *,
    level: int = 0,
    drop_tol: float = 0.0,
) -> CSRMatrix:
    """Compute ``R @ A @ P`` with two setup products.

    Parameters
    ----------
    r, a, p:
        Restriction (nc x n), level matrix (n x n), prolongation (n x nc).
    spgemm:
        :data:`SetupProduct`, called as ``spgemm(r, a, level=level,
        role=RA)`` then ``spgemm(ra, p, level=level, role=RAP)``; defaults
        to the CSR baseline.
    level:
        Index of the level *a* belongs to (0 = finest).
    drop_tol:
        Entries of the product with ``|v| <= drop_tol`` are eliminated
        (numerical cancellation cleanup; 0 keeps exact zeros only).
    """
    if r.ncols != a.nrows or a.ncols != p.nrows or r.nrows != p.ncols:
        raise ValueError(
            f"incompatible Galerkin shapes: R {r.shape}, A {a.shape}, P {p.shape}"
        )
    spgemm = spgemm or csr_product
    ra = spgemm(r, a, level=level, role=RA)
    rap = spgemm(ra, p, level=level, role=RAP)
    return finish_galerkin(r, a, p, rap, drop_tol)


def finish_galerkin(r: CSRMatrix, a: CSRMatrix, p: CSRMatrix,
                    rap: CSRMatrix, drop_tol: float = 0.0) -> CSRMatrix:
    """Check and prune a computed ``R @ A @ P``: the REPRO_CHECK Galerkin
    oracle, then drop-tolerance pruning.  Shared by :func:`galerkin_product`
    and the fused R·A·P of the exact re-setup."""
    from repro.check import runtime as check_runtime

    if check_runtime.is_active():
        # Verified before drop-tolerance pruning: the contract covers the
        # two SpGEMM calls, not the (caller-requested) lossy cleanup.
        from repro.check import oracle

        oracle.verify_galerkin(r, a, p, rap)
    if drop_tol >= 0.0:
        rap = rap.eliminate_zeros(drop_tol)
    return rap
