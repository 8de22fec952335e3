"""Untimed correctness checks.

Every check recomputes what it needs in fp64 from the CSR arrays with
scipy; nothing here trusts the program's own statistics.  A check returns
``None`` on success or one failure label:

* ``raised`` -- the call raised (assigned by the caller);
* ``non-finite`` -- a result holds NaN or inf;
* ``missed-tolerance`` -- a finite result misses its stated accuracy.
"""

from __future__ import annotations

import numpy as np

from inputs import to_scipy

#: Stated accuracy of every Krylov solve: true relative residual
#: ``||b - A x|| / ||b||`` at most this, up to the rounding of recomputing
#: it (``KRYLOV_SLACK``).
KRYLOV_TOL = 1e-8
KRYLOV_SLACK = 1.0 + 1e-6
#: A paper-mode solve runs a fixed 50 cycles with no tolerance to stop at;
#: it passes when those cycles at least halve the true residual.
CYCLE_TOL = 0.5
#: Galerkin check: ``||A_c - R A P||_F <= tol * ||R||_F ||A||_F ||P||_F``
#: at the precision the level's products are computed in.
GALERKIN_TOL = {"fp64": 1e-12, "fp32": 1e-5, "fp16": 1e-2}


def true_relative_residual(a_sp, b: np.ndarray, x: np.ndarray) -> float:
    r = b - a_sp @ x
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def check_solution(a_sp, b, x, tol: float) -> tuple[str | None, float]:
    """Label for a solve returning *x*; also the true relative residual."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != b.shape or not np.all(np.isfinite(x)):
        return "non-finite", float("nan")
    rel = true_relative_residual(a_sp, b, x)
    if not np.isfinite(rel):
        return "non-finite", rel
    if rel > tol:
        return "missed-tolerance", rel
    return None, rel


def check_hierarchy(a, hierarchy, level_precisions) -> str | None:
    """Label for a (re-)setup of fine operator *a*.

    Checks that level 0 is the input, that levels shrink, that every
    operator is finite, and that each coarse operator equals the Galerkin
    product ``R A P`` recomputed in fp64 within the tolerance of the
    precision its level is computed in.
    """
    levels = hierarchy.levels
    fine = to_scipy(a)
    first = to_scipy(levels[0].a)
    if first.shape != fine.shape or abs(first - fine).nnz:
        return "missed-tolerance"
    for k, lvl in enumerate(levels):
        if not np.all(np.isfinite(lvl.a.data)):
            return "non-finite"
        if k + 1 == len(levels):
            break
        nxt = levels[k + 1]
        if nxt.a.nrows >= lvl.a.nrows:
            return "missed-tolerance"
        p, r = to_scipy(lvl.p), to_scipy(lvl.r)
        if not (np.all(np.isfinite(p.data)) and np.all(np.isfinite(r.data))):
            return "non-finite"
        op = to_scipy(lvl.a)
        rap = r @ op @ p
        err = np.sqrt(abs(to_scipy(nxt.a) - rap).power(2).sum())
        scale = (np.sqrt(r.power(2).sum()) * np.sqrt(op.power(2).sum())
                 * np.sqrt(p.power(2).sum()))
        tol = GALERKIN_TOL[level_precisions[k]]
        if not np.isfinite(err):
            return "non-finite"
        if err > tol * scale:
            return "missed-tolerance"
    return None
