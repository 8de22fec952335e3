"""Tests for interpolation operators and the Galerkin product."""

import numpy as np
import pytest

from repro.amg.coarsen import pmis_coarsen
from repro.amg.galerkin import RA, RAP, galerkin_product
from repro.amg.interp import build_interpolation, truncate_interpolation
from repro.amg.strength import strength_of_connection
from repro.formats.csr import CSRMatrix
from repro.matrices import anisotropic_diffusion_2d, poisson2d

from conftest import random_spd_csr


def _setup(a, theta=0.25, seed=0):
    s = strength_of_connection(a, theta)
    res = pmis_coarsen(s, seed=seed)
    return s, res


class TestInterpolation:
    @pytest.mark.parametrize("method", ["direct", "extended+i"])
    def test_shape_and_c_identity(self, method):
        a = poisson2d(10)
        s, res = _setup(a)
        p = build_interpolation(a, s, res.cf_marker, method=method)
        assert p.shape == (a.nrows, res.n_coarse)
        # C-point rows are unit vectors onto their coarse index.
        pd = p.to_dense()
        for j, c in enumerate(res.c_points):
            row = pd[c]
            assert row[j] == 1.0
            assert np.count_nonzero(row) == 1

    @pytest.mark.parametrize("method", ["direct", "extended+i"])
    def test_constant_reproduction_interior(self, method):
        # On interior rows of the Laplacian P must reproduce constants.
        a = poisson2d(12)
        s, res = _setup(a)
        p = build_interpolation(a, s, res.cf_marker, method=method)
        pv = p.matvec(np.ones(p.ncols))
        # interior rows (full 4-neighbour stencil) have row sum 4 = diag
        interior = np.flatnonzero(a.row_nnz() == 5)
        np.testing.assert_allclose(pv[interior], 1.0, atol=1e-10)

    def test_extended_reaches_distance_two(self):
        a = poisson2d(12)
        s, res = _setup(a)
        p_dir = build_interpolation(a, s, res.cf_marker, method="direct",
                                    max_elmts=100)
        p_ext = build_interpolation(a, s, res.cf_marker, method="extended+i",
                                    max_elmts=100)
        # ext+i stencils are supersets on average
        assert p_ext.nnz >= p_dir.nnz

    def test_extended_beats_direct_two_level(self):
        """The reason the paper uses ext+i: better two-level convergence."""
        a = poisson2d(16)
        s, res = _setup(a)
        rhos = {}
        ad = a.to_dense()
        n = a.nrows
        d = np.abs(ad).sum(axis=1)
        sm = np.eye(n) - np.diag(1 / d) @ ad
        for method in ("direct", "extended+i"):
            p = build_interpolation(a, s, res.cf_marker, method=method)
            pd = p.to_dense()
            ac = pd.T @ ad @ pd
            cg = np.eye(n) - pd @ np.linalg.solve(ac, pd.T @ ad)
            rhos[method] = max(abs(np.linalg.eigvals(sm @ cg @ sm)))
        assert rhos["extended+i"] < rhos["direct"]
        assert rhos["extended+i"] < 0.7

    def test_unknown_method(self):
        a = poisson2d(4)
        s, res = _setup(a)
        with pytest.raises(ValueError):
            build_interpolation(a, s, res.cf_marker, method="magic")

    def test_all_coarse_gives_identity(self):
        a = poisson2d(4)
        cf = np.ones(a.nrows, dtype=np.int8)
        s = strength_of_connection(a)
        p = build_interpolation(a, s, cf)
        np.testing.assert_allclose(p.to_dense(), np.eye(a.nrows))

    def test_no_coarse_raises(self):
        a = poisson2d(4)
        s = strength_of_connection(a)
        with pytest.raises(ValueError):
            build_interpolation(a, s, -np.ones(a.nrows, dtype=np.int8))

    def test_max_elmts_enforced(self):
        a = random_spd_csr(40, 0.3, seed=3)
        s, res = _setup(a, theta=0.1)
        p = build_interpolation(a, s, res.cf_marker, max_elmts=2)
        assert p.row_nnz().max() <= 2

    def test_spgemm_injection_called_for_extended(self):
        a = poisson2d(8)
        s, res = _setup(a)
        calls = []

        def spy(x, y):
            calls.append((x.shape, y.shape))
            from repro.kernels.baseline import csr_spgemm

            return csr_spgemm(x, y)[0]

        build_interpolation(a, s, res.cf_marker, method="extended+i", spgemm=spy)
        assert len(calls) == 1  # "one SpGEMM call" (Alg. 1 line 4)


class TestTruncation:
    def test_row_cap(self):
        p = CSRMatrix.from_dense(
            np.array([[0.5, 0.4, 0.3, 0.2, 0.1], [1.0, 0, 0, 0, 0]])
        )
        t = truncate_interpolation(p, trunc_factor=0.0, max_elmts=3)
        assert t.row_nnz().max() <= 3

    def test_relative_threshold(self):
        p = CSRMatrix.from_dense(np.array([[1.0, 0.05, 0.5]]))
        t = truncate_interpolation(p, trunc_factor=0.1, max_elmts=10)
        d = t.to_dense()
        assert d[0, 1] == 0  # below 0.1 * max
        assert d[0, 2] != 0

    def test_row_sums_preserved(self):
        rng = np.random.default_rng(5)
        dense = rng.random((6, 8)) * (rng.random((6, 8)) > 0.3)
        p = CSRMatrix.from_dense(dense)
        t = truncate_interpolation(p, trunc_factor=0.2, max_elmts=3)
        np.testing.assert_allclose(
            t.to_dense().sum(axis=1), dense.sum(axis=1), atol=1e-10
        )

    def test_validation(self):
        p = CSRMatrix.identity(3)
        with pytest.raises(ValueError):
            truncate_interpolation(p, trunc_factor=1.5)
        with pytest.raises(ValueError):
            truncate_interpolation(p, max_elmts=0)

    def test_empty_matrix(self):
        p = CSRMatrix.zeros((3, 3))
        assert truncate_interpolation(p).nnz == 0


class TestGalerkin:
    def test_matches_dense_triple_product(self):
        a = poisson2d(8)
        s, res = _setup(a)
        p = build_interpolation(a, s, res.cf_marker)
        r = p.transpose()
        rap = galerkin_product(r, a, p)
        ref = p.to_dense().T @ a.to_dense() @ p.to_dense()
        np.testing.assert_allclose(rap.to_dense(), ref, atol=1e-10)

    def test_preserves_spd(self):
        a = poisson2d(10)
        s, res = _setup(a)
        p = build_interpolation(a, s, res.cf_marker)
        rap = galerkin_product(p.transpose(), a, p)
        d = rap.to_dense()
        np.testing.assert_allclose(d, d.T, atol=1e-10)
        eigs = np.linalg.eigvalsh(d)
        assert eigs.min() > -1e-10

    def test_shape_validation(self):
        a = poisson2d(4)
        p = CSRMatrix.zeros((a.nrows, 3))
        bad_r = CSRMatrix.zeros((5, a.nrows))
        with pytest.raises(ValueError):
            galerkin_product(bad_r, a, p)

    def test_spgemm_called_twice(self):
        a = poisson2d(6)
        s, res = _setup(a)
        p = build_interpolation(a, s, res.cf_marker)
        calls = []

        def spy(x, y, *, level, role):
            calls.append((level, role))
            from repro.kernels.baseline import csr_spgemm

            return csr_spgemm(x, y)[0]

        galerkin_product(p.transpose(), a, p, spgemm=spy, level=2)
        # "two SpGEMM calls" (Alg. 1 line 5), each told its level and role
        assert calls == [(2, RA), (2, RAP)]

    def test_drop_tol(self):
        a = poisson2d(6)
        s, res = _setup(a)
        p = build_interpolation(a, s, res.cf_marker)
        rap_all = galerkin_product(p.transpose(), a, p, drop_tol=0.0)
        rap_cut = galerkin_product(p.transpose(), a, p, drop_tol=1e-1)
        assert rap_cut.nnz <= rap_all.nnz
