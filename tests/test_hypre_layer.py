"""Tests for the HYPRE integration layer: matrix extension, backends, driver."""

import numpy as np
import pytest

from repro.amg.cycle import SolveParams
from repro.amg.hierarchy import SetupParams
from repro.formats.csr import CSRMatrix
from repro.gpu import A100, H100, MI210, Precision
from repro.hypre.backends import AmgTBackend, HypreBackend, make_backend
from repro.hypre.boomeramg import BoomerAMG
from repro.hypre.csr_matrix import HypreCSRMatrix
from repro.matrices import poisson2d, elasticity_2d
from repro.perf.timeline import PerformanceLog

from conftest import random_csr


class TestHypreCSRMatrix:
    def test_wrap_idempotent(self):
        a = random_csr(10, 10, 0.3)
        w = HypreCSRMatrix.wrap(a)
        assert HypreCSRMatrix.wrap(w) is w

    def test_wrap_rejects_unknown(self):
        with pytest.raises(TypeError):
            HypreCSRMatrix.wrap(np.zeros((3, 3)))

    def test_conversion_recorded_once(self):
        """The unified format means one conversion, many kernel calls."""
        w = HypreCSRMatrix.wrap(random_csr(12, 12, 0.3))
        assert not w.has_mbsr
        m1, stats1 = w.amgt_csr2mbsr()
        assert stats1 is not None
        m2, stats2 = w.amgt_csr2mbsr()
        assert stats2 is None  # cache hit: no second conversion cost
        assert m1 is m2

    def test_precision_cast_cached(self):
        w = HypreCSRMatrix.wrap(random_csr(12, 12, 0.3))
        c1 = w.mbsr_at_precision(Precision.FP16)
        c2 = w.mbsr_at_precision(Precision.FP16)
        assert c1 is c2
        assert c1.dtype == np.float16
        assert w.mbsr_at_precision(Precision.FP64).dtype == np.float64

    def test_spmv_plan_cached(self):
        w = HypreCSRMatrix.wrap(random_csr(12, 12, 0.3))
        assert w.spmv_plan(True) is w.spmv_plan(True)
        # plans differ when tensor cores are disabled
        assert w.spmv_plan(False).use_tensor_cores is False


class TestBackends:
    def test_factory(self):
        assert isinstance(make_backend("hypre", A100), HypreBackend)
        assert isinstance(make_backend("amgt", A100), AmgTBackend)
        with pytest.raises(ValueError):
            make_backend("petsc", A100)
        with pytest.raises(ValueError):
            make_backend("amgt", A100, precision="fp8")

    def test_hypre_vendor_by_device(self):
        assert HypreBackend(A100).vendor == "cusparse"
        assert HypreBackend(MI210).vendor == "rocsparse"

    def test_matmul_correctness_both_backends(self):
        a = random_csr(20, 16, 0.2, seed=1)
        b = random_csr(16, 24, 0.2, seed=2)
        ref = a.to_dense() @ b.to_dense()
        for backend in (HypreBackend(H100), AmgTBackend(H100)):
            perf = PerformanceLog()
            c = backend.matmul_device(a, b, perf, "setup", 0)
            np.testing.assert_allclose(c.csr.to_dense(), ref, atol=1e-9)
            assert perf.count("spgemm") == 1

    def test_matvec_correctness_both_backends(self, rng):
        a = random_csr(20, 20, 0.3, seed=3)
        x = rng.normal(size=20)
        for backend in (HypreBackend(H100), AmgTBackend(H100)):
            perf = PerformanceLog()
            y = backend.matvec_device(a, x, perf, "solve", 0)
            np.testing.assert_allclose(y, a.to_dense() @ x, atol=1e-9)
            assert perf.count("spmv") == 1

    def test_amgt_mixed_uses_level_precision(self, rng):
        backend = AmgTBackend(H100, precision="mixed")
        a = random_csr(16, 16, 0.3, seed=4)
        perf = PerformanceLog()
        x = rng.normal(size=16)
        backend.matvec_device(HypreCSRMatrix.wrap(a), x, perf, "solve", 0)
        backend.matvec_device(HypreCSRMatrix.wrap(a), x, perf, "solve", 1)
        backend.matvec_device(HypreCSRMatrix.wrap(a), x, perf, "solve", 3)
        precs = [r.precision for r in perf.by_kernel("spmv")]
        assert precs == [Precision.FP64, Precision.FP32, Precision.FP16]

    def test_amgt_mi210_reprices_mma_as_scalar(self):
        a = random_csr(16, 16, 0.9, seed=5)  # dense tiles -> TC pairs exist
        b = random_csr(16, 16, 0.9, seed=6)
        backend = AmgTBackend(MI210)
        perf = PerformanceLog()
        backend.matmul_device(a, b, perf, "setup", 0)
        rec = perf.by_kernel("spgemm")[0]
        assert rec.counters.total_mma == 0
        assert rec.counters.total_scalar_flops > 0

    def test_amgt_conversion_charged_once_per_matrix(self):
        backend = AmgTBackend(H100)
        a = HypreCSRMatrix.wrap(random_csr(16, 16, 0.3, seed=7))
        perf = PerformanceLog()
        backend.matvec_device(a, np.ones(16), perf, "solve", 0)
        backend.matvec_device(a, np.ones(16), perf, "solve", 0)
        assert perf.count("csr2mbsr") == 1
        assert perf.count("spmv") == 2

    def test_rap_result_records_mbsr2csr(self):
        backend = AmgTBackend(H100)
        a = random_csr(12, 12, 0.3, seed=8)
        perf = PerformanceLog()
        backend.matmul_device(a, a, perf, "setup", 0, is_rap_result=True)
        assert perf.count("mbsr2csr") == 1

    def test_record_other_priced(self):
        backend = HypreBackend(A100)
        perf = PerformanceLog()
        rec = backend.record_other(perf, "setup", 0, "coarsen",
                                   bytes_moved=1e6, flops=1e5, launches=3)
        assert rec.sim_time_us > 0
        assert perf.setup.other_us == rec.sim_time_us


class TestBoomerAMG:
    def test_phase_accounting(self):
        a = poisson2d(16)
        driver = BoomerAMG(AmgTBackend(H100))
        driver.setup(a)
        _, stats = driver.solve(np.ones(a.nrows),
                                params=SolveParams(max_iterations=5))
        setup, solve = driver.perf.setup, driver.perf.solve
        assert setup.spgemm_us > 0
        assert setup.conversion_us > 0
        assert setup.other_us > 0
        assert solve.spmv_us > 0
        assert solve.other_us > 0
        assert setup.spmv_us == 0  # no SpMV during setup

    def test_rap_flag_every_third_call(self):
        a = poisson2d(16)
        driver = BoomerAMG(AmgTBackend(H100))
        driver.setup(a)
        levels = driver.hierarchy.num_levels
        # one MBSR2CSR per coarse level (the RAP result of Fig. 6 step 5)
        assert driver.perf.count("mbsr2csr") == levels - 1

    def test_aggregation_products_at_level_precision(self):
        backend = AmgTBackend(H100, precision="mixed")
        driver = BoomerAMG(backend, SetupParams(amg_family="aggregation"))
        driver.setup(poisson2d(24))
        levels = driver.hierarchy.num_levels
        assert levels > 3
        recs = [r for r in driver.perf.records
                if r.phase == "setup" and r.kernel == "spgemm"]
        # 1 smoothing + 2 Galerkin products per non-coarsest level.
        assert [r.level for r in recs] == [
            k for k in range(levels - 1) for _ in range(3)
        ]
        assert all(r.precision == backend.schedule.for_level(r.level)
                   for r in recs)

    def test_direct_interp_one_mbsr2csr_per_level(self):
        driver = BoomerAMG(AmgTBackend(H100),
                           SetupParams(interp_method="direct"))
        driver.setup(poisson2d(24))
        levels = driver.hierarchy.num_levels
        assert levels > 2
        # No interpolation product: R·A, R·A·P, then the RAP's MBSR2CSR.
        assert [(r.kernel, r.level) for r in driver.perf.records
                if r.phase == "setup"
                and r.kernel in ("spgemm", "mbsr2csr")] == [
            (kernel, k) for k in range(levels - 1)
            for kernel in ("spgemm", "spgemm", "mbsr2csr")
        ]

    def test_solve_requires_setup(self):
        driver = BoomerAMG(HypreBackend(A100))
        with pytest.raises(RuntimeError):
            driver.solve(np.ones(4))
        with pytest.raises(RuntimeError):
            driver.precondition(np.ones(4))

    def test_precondition_runs_one_cycle(self):
        a = poisson2d(12)
        driver = BoomerAMG(AmgTBackend(A100))
        driver.setup(a)
        before = driver.perf.count("spmv")
        driver.precondition(np.ones(a.nrows))
        after = driver.perf.count("spmv")
        assert after - before == 5 * (driver.hierarchy.num_levels - 1)

    def test_identical_hierarchies_across_backends(self):
        """Sec. V.A alignment: same components, same levels, same counts."""
        a = poisson2d(16)
        drivers = {}
        for name, backend in [("hypre", HypreBackend(H100)),
                              ("amgt", AmgTBackend(H100))]:
            d = BoomerAMG(backend)
            d.setup(a)
            drivers[name] = d
        h1, h2 = drivers["hypre"].hierarchy, drivers["amgt"].hierarchy
        assert h1.num_levels == h2.num_levels
        for l1, l2 in zip(h1.levels, h2.levels):
            assert l1.n == l2.n
            np.testing.assert_allclose(
                l1.a.to_dense(), l2.a.to_dense(), atol=1e-8
            )


class TestAMDStorageBehaviour:
    def test_mi210_mixed_charges_fp64_traffic(self, rng):
        """On MI210 the mixed schedule computes in FP32 but the data stays
        FP64-resident (Sec. V.F) — the kernels must charge FP64 bytes, so
        FP64 and mixed SpMV cost the same there."""
        a = random_csr(32, 32, 0.3, seed=20)
        x = rng.normal(size=32)
        times = {}
        for mode in ("fp64", "mixed"):
            backend = AmgTBackend(MI210, precision=mode)
            perf = PerformanceLog()
            w = HypreCSRMatrix.wrap(a)
            backend.matvec_device(w, x, perf, "solve", 2)  # coarse level
            rec = perf.by_kernel("spmv")[0]
            times[mode] = rec.sim_time_us
        assert times["mixed"] == pytest.approx(times["fp64"], rel=1e-6)

    def test_h100_mixed_is_cheaper_on_coarse_levels(self, rng):
        a = random_csr(32, 32, 0.3, seed=21)
        x = rng.normal(size=32)
        times = {}
        for mode in ("fp64", "mixed"):
            backend = AmgTBackend(H100, precision=mode)
            perf = PerformanceLog()
            w = HypreCSRMatrix.wrap(a)
            backend.matvec_device(w, x, perf, "solve", 2)
            times[mode] = perf.by_kernel("spmv")[0].sim_time_us
        assert times["mixed"] < times["fp64"]

    def test_storage_itemsize_flag(self):
        assert AmgTBackend(MI210).storage_itemsize == 8
        assert AmgTBackend(H100).storage_itemsize is None
