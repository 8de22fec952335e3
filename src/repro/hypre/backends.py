"""Kernel backends: the baseline HYPRE path and the AmgT path.

A backend owns a device, a cost model and a precision schedule, and
exposes the two device entry points of the HYPRE integration:

* :meth:`KernelBackend.matmul_device` — ``hypre_CSRMatrixMultiplyDevice``;
* :meth:`KernelBackend.matvec_device` — ``hypre_CSRMatrixMatvecDevice2``.

Both append priced :class:`~repro.kernels.record.KernelRecord` entries to
the supplied :class:`~repro.perf.timeline.PerformanceLog`.

:class:`HypreBackend` calls the vendor-style CSR kernels (cuSPARSE on
NVIDIA devices, rocSPARSE on AMD) in FP64 — the paper's baseline.

:class:`AmgTBackend` implements the Fig. 6 data flow: operands are
converted to mBSR once (conversion cost recorded on first touch), kernels
run at the per-level precision of the schedule, and MI210's incompatible
matrix-core shapes force the CUDA-core paths (Sec. V.F).

Host-side, every per-operator invariant the kernels need — the SpMV plan,
the quantised/widened tile arrays of each precision, tile popcounts —
lives in the wrapped matrix's :class:`~repro.kernels.cache.OperatorCache`
and is computed once per operator, mirroring the paper's
"preprocessing once per matrix, reused for every SpMV".
"""

from __future__ import annotations

import numpy as np

from repro.formats.bitmap import BLOCK_SIZE
from repro.gpu.cost import CostModel
from repro.gpu.counters import Precision
from repro.gpu.specs import DeviceSpec
from repro.hypre.csr_matrix import HypreCSRMatrix
from repro.kernels.baseline import csr_spgemm, csr_spmv
from repro.kernels.record import KernelRecord
from repro.kernels.spgemm import mbsr_spgemm
from repro.kernels.spmv import mbsr_spmv
from repro.amg.precision import PrecisionSchedule
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.perf.timeline import PerformanceLog

__all__ = [
    "KernelBackend",
    "HypreBackend",
    "AmgTBackend",
    "AmgTPatcher",
    "make_backend",
]


def _kernel_span(name: str, phase: str, level: int):
    """Open a ``kind='kernel'`` span around real kernel work (gated)."""
    if obs_trace.is_active():
        return obs_trace.TRACER.open(
            name, "kernel", {"phase": phase, "level": level}
        )
    return obs_trace.NULL_SPAN


def _finish_record(sp, rec: KernelRecord) -> None:
    """Stamp the priced record's facts onto its span and fold it into the
    metrics registry.  ``sp`` may already be closed — attrs stay mutable."""
    if sp:
        sp.set(
            sim_us=rec.sim_time_us,
            backend=rec.backend,
            precision=rec.precision.name.lower(),
            path=rec.detail.get("path"),
        )
    obs_metrics.observe_kernel(rec)


class KernelBackend:
    """Common machinery of the two backends."""

    name: str = "abstract"

    def __init__(self, device: DeviceSpec, schedule: PrecisionSchedule):
        self.device = device
        self.cost = CostModel(device)
        self.schedule = schedule

    # -- interface ------------------------------------------------------
    def matmul_device(
        self,
        a: HypreCSRMatrix,
        b: HypreCSRMatrix,
        perf: PerformanceLog,
        phase: str,
        level: int,
        *,
        is_rap_result: bool = False,
    ) -> HypreCSRMatrix:
        raise NotImplementedError

    def matvec_device(
        self,
        a: HypreCSRMatrix,
        x: np.ndarray,
        perf: PerformanceLog,
        phase: str,
        level: int,
    ) -> np.ndarray:
        raise NotImplementedError

    def bind_matvec(
        self,
        a: HypreCSRMatrix,
        perf: PerformanceLog,
        phase: str,
        level: int,
    ):
        """Resolve one operator's SpMV into a replayable binding.

        The record-time half of the kernel tape (:mod:`repro.tape`):
        returns a :class:`~repro.kernels.spmv.SpMVBinding` whose
        ``run(x)`` is bit-identical to :meth:`matvec_device` (minus the
        per-call perf/obs bookkeeping) and whose ``record`` is already
        stamped and priced for this phase/level, so replays can replicate
        the perf log in bulk.  Any format conversion is charged here, as
        the first interpreted call would have.
        """
        raise NotImplementedError

    def bind_matmat(
        self,
        a: HypreCSRMatrix,
        perf: PerformanceLog,
        phase: str,
        level: int,
        width: int,
    ):
        """Resolve one operator's blocked SpMM into a replayable binding.

        The batched twin of :meth:`bind_matvec`: returns a
        :class:`~repro.kernels.spmv.SpMMBinding` whose ``run`` maps a
        ``(width, ncols)`` row panel to a fresh float64
        ``(width, nrows)`` panel, row j bit-identical to the width-1
        binding on that row, and whose priced ``record`` charges matrix
        bytes once per panel call but MMA issues/flops per column —
        the arithmetic-intensity rise the batch path exists for.
        """
        raise NotImplementedError

    def rap_device(
        self,
        r: HypreCSRMatrix,
        a: HypreCSRMatrix,
        p: HypreCSRMatrix,
        perf: PerformanceLog,
        phase: str,
        level: int,
    ) -> HypreCSRMatrix:
        """``R @ A @ P`` of the exact re-setup: two :meth:`matmul_device`
        products here; the AmgT backend fuses them through its plan cache."""
        ra = self.matmul_device(r, a, perf, phase, level)
        return self.matmul_device(ra, p, perf, phase, level,
                                  is_rap_result=True)

    def hierarchy_patcher(self, reuse, perf, phase: str = "setup"):
        """Dirty-row patch engine for incremental re-setups, or None when
        the backend has no block format — the setup driver then uses the
        row-local CSR patcher built on the setup's SpGEMM callable (see
        :class:`repro.amg.patch.CSRPatcher`)."""
        return None

    # -- shared helpers ---------------------------------------------------
    def record_other(
        self,
        perf: PerformanceLog,
        phase: str,
        level: int,
        name: str,
        *,
        bytes_moved: float,
        flops: float = 0.0,
        launches: int = 1,
    ) -> KernelRecord:
        """Charge non-kernel AMG work (coarsening, vector ops, ...)."""
        rec = KernelRecord(kernel=name, backend=self.name, precision=Precision.FP64)
        rec.counters.add_bytes(read=bytes_moved * 0.6, written=bytes_moved * 0.4)
        rec.counters.add_flops(Precision.FP64, flops)
        rec.counters.launches = launches
        rec.phase, rec.level = phase, level
        rec.price(self.cost, "generic")
        perf.append(rec)
        obs_metrics.observe_kernel(rec)
        return rec


class HypreBackend(KernelBackend):
    """The baseline: HYPRE calling vendor CSR kernels in FP64."""

    def __init__(self, device: DeviceSpec):
        super().__init__(device, PrecisionSchedule.uniform(Precision.FP64))
        self.vendor = "cusparse" if device.vendor == "NVIDIA" else "rocsparse"
        self.name = "hypre"

    def matmul_device(self, a, b, perf, phase, level, *, is_rap_result=False):
        a = HypreCSRMatrix.wrap(a)
        b = HypreCSRMatrix.wrap(b)
        sp = _kernel_span("spgemm", phase, level)
        with sp:
            c, rec = csr_spgemm(a.csr, b.csr, Precision.FP64, backend=self.vendor)
        rec.phase, rec.level = phase, level
        rec.price(self.cost)
        perf.append(rec)
        _finish_record(sp, rec)
        return HypreCSRMatrix(csr=c)

    def matvec_device(self, a, x, perf, phase, level):
        a = HypreCSRMatrix.wrap(a)
        sp = _kernel_span("spmv", phase, level)
        with sp:
            y, rec = csr_spmv(a.csr, x, Precision.FP64, backend=self.vendor)
        rec.phase, rec.level = phase, level
        rec.price(self.cost)
        perf.append(rec)
        _finish_record(sp, rec)
        return np.asarray(y, dtype=np.float64)

    def bind_matvec(self, a, perf, phase, level):
        from repro.kernels.baseline import bind_csr_spmv

        a = HypreCSRMatrix.wrap(a)
        binding = bind_csr_spmv(a.csr, Precision.FP64, backend=self.vendor)
        rec = binding.record
        rec.phase, rec.level = phase, level
        rec.price(self.cost)
        return binding

    def bind_matmat(self, a, perf, phase, level, width):
        from repro.kernels.baseline import bind_csr_spmm

        a = HypreCSRMatrix.wrap(a)
        binding = bind_csr_spmm(a.csr, width, Precision.FP64,
                                backend=self.vendor)
        rec = binding.record
        rec.phase, rec.level = phase, level
        rec.price(self.cost)
        return binding


class AmgTBackend(KernelBackend):
    """The AmgT path: mBSR kernels on tensor + CUDA cores."""

    def __init__(self, device: DeviceSpec, precision: str = "fp64"):
        if precision == "mixed":
            schedule = PrecisionSchedule.mixed(device)
        elif precision == "fp64":
            schedule = PrecisionSchedule.uniform(Precision.FP64)
        else:
            raise ValueError(f"unknown precision mode {precision!r}")
        super().__init__(device, schedule)
        self.name = "amgt"
        self.precision_mode = precision
        #: Matrix-core availability decides the kernels' core selection.
        self.allow_tensor_cores = device.mma_shape_compatible
        #: Devices without a usable low-precision data path (MI210) compute
        #: coarse levels in FP32 but keep the matrices FP64-resident, so
        #: the kernels are charged FP64 memory traffic — which is why the
        #: paper finds AmgT (FP64) and AmgT (Mixed) nearly identical there.
        self.storage_itemsize = None if device.fp16_supported else 8
        #: Setup-phase engine: pattern-keyed SpGEMM plans, fused RAP plans
        #: and conversion templates, shared across every setup this
        #: backend runs (the alpha-Setup / SPGEMM_REUSE scenario).
        from repro.kernels.setup_cache import SetupPlanCache

        self.setup_cache = SetupPlanCache()

    # -- conversions ------------------------------------------------------
    def _ensure_mbsr(self, mat: HypreCSRMatrix, perf, phase, level):
        """AmgT_CSR2mBSR with one-time cost recording (unified format)."""
        if mat.setup_cache is None:
            mat.setup_cache = self.setup_cache
        sp = _kernel_span("csr2mbsr", phase, level)
        with sp:
            mbsr, stats = mat.amgt_csr2mbsr()
        if stats is not None:
            rec = KernelRecord(kernel="csr2mbsr", backend=self.name,
                               precision=Precision.FP64)
            rec.counters.add_bytes(read=stats.bytes_read, written=stats.bytes_written)
            rec.counters.launches = 2  # analysis + fill, as in cuSPARSE csr2bsr
            rec.phase, rec.level = phase, level
            rec.price(self.cost, "amgt_convert")
            perf.append(rec)
            _finish_record(sp, rec)
        elif sp:
            sp.set(cached=True)
        return mbsr

    def _record_mbsr2csr(self, result: HypreCSRMatrix, perf, phase, level):

        mbsr = result.mbsr
        itemsize = 8
        rec = KernelRecord(kernel="mbsr2csr", backend=self.name, precision=Precision.FP64)
        rec.counters.add_bytes(
            read=mbsr.blc_num * (16 * itemsize + 8 + 2),
            written=result.csr.nnz * (itemsize + 8) + (result.csr.nrows + 1) * 8,
        )
        rec.counters.launches = 2
        rec.phase, rec.level = phase, level
        rec.price(self.cost, "amgt_convert")
        perf.append(rec)
        obs_metrics.observe_kernel(rec)

    # -- kernels ----------------------------------------------------------
    def matmul_device(self, a, b, perf, phase, level, *, is_rap_result=False):
        a = HypreCSRMatrix.wrap(a)
        b = HypreCSRMatrix.wrap(b)
        am = self._ensure_mbsr(a, perf, phase, level)
        bm = self._ensure_mbsr(b, perf, phase, level)
        prec = self.schedule.for_level(level)
        am = a.mbsr_at_precision(prec)
        bm = b.mbsr_at_precision(prec)
        sp = _kernel_span("spgemm", phase, level)
        with sp:
            cm, rec = mbsr_spgemm(am, bm, prec, out_dtype=np.float64,
                                  storage_itemsize=self.storage_itemsize,
                                  plan_cache=self.setup_cache)
        self._reprice_mma(rec, prec)
        rec.phase, rec.level = phase, level
        rec.price(self.cost)
        perf.append(rec)
        _finish_record(sp, rec)
        # The product is born in mBSR; the CSR twin is derived for the CSR
        # components.  Only RAP results pay a recorded MBSR2CSR (Fig. 6
        # step 5); other products stay on the device in mBSR.
        csp = _kernel_span("mbsr2csr", phase, level)
        with csp:
            csr = self.setup_cache.mbsr2csr(cm).eliminate_zeros(0.0)
            out = HypreCSRMatrix(csr=csr, setup_cache=self.setup_cache)
            # Cache an exactly-consistent mBSR twin (structure of csr).
            out.amgt_csr2mbsr()
            out.conversion_stats = None
        if is_rap_result:
            self._record_mbsr2csr(out, perf, phase, level)
        return out

    def _reprice_mma(self, rec: KernelRecord, prec: Precision) -> None:
        """MI210: the fragment shapes do not fit the matrix cores, so the
        warp-level pairs execute on scalar cores instead; reprice the MMA
        issues as scalar tile products (2*4*4*4 flops each)."""
        if not self.allow_tensor_cores and rec.detail.get("tc_pairs"):
            mma = rec.counters.mma_issues[prec]
            rec.counters.mma_issues[prec] = 0.0
            rec.counters.add_flops(prec, mma * 2 * 2 * 64.0)

    def hierarchy_patcher(self, reuse, perf, phase: str = "setup"):
        """Block-aligned mBSR patch engine over the spliced plan cache."""
        return AmgTPatcher(self, reuse, perf, phase)

    def rap_device(self, r, a, p, perf, phase, level):
        """Fused ``R @ A @ P``: two numeric-only passes against the
        pattern-keyed plan cache, skipping both symbolic phases and the
        intermediate's CSR round-trip.  Priced like :meth:`matmul_device`
        call for call: two ``spgemm`` records plus the RAP's MBSR2CSR."""
        cache = self.setup_cache
        for w in (r, a, p):
            self._ensure_mbsr(w, perf, phase, level)
        prec = self.schedule.for_level(level)
        rm, am, pm = (w.mbsr_at_precision(prec) for w in (r, a, p))
        plan, fresh = cache.rap_plan(rm, am, pm)
        sp = _kernel_span("spgemm", phase, level)
        with sp:
            rap_mbsr, records = cache.rap_numeric(
                plan, rm, am, pm, prec, out_dtype=np.float64,
                storage_itemsize=self.storage_itemsize,
                # A plan built by this very call pays its analysis + symbolic
                # cost here; a cached plan replays numeric-only.
                charge_plan_build=fresh,
            )
        if sp:
            sp.set(fused="rap", plan_reused=not fresh)
        for rec in records:
            self._reprice_mma(rec, prec)
            rec.phase, rec.level = phase, level
            rec.price(self.cost)
            perf.append(rec)
            obs_metrics.observe_kernel(rec)
        if sp:
            sp.set(sim_us=sum(rec.sim_time_us for rec in records))
        csp = _kernel_span("mbsr2csr", phase, level)
        with csp:
            csr = cache.mbsr2csr(rap_mbsr).eliminate_zeros(0.0)
            out = HypreCSRMatrix(csr=csr, setup_cache=cache)
            out.amgt_csr2mbsr()
            out.conversion_stats = None
        self._record_mbsr2csr(out, perf, phase, level)
        return out

    def matvec_device(self, a, x, perf, phase, level):
        a = HypreCSRMatrix.wrap(a)
        self._ensure_mbsr(a, perf, phase, level)
        prec = self.schedule.for_level(level)
        am = a.mbsr_at_precision(prec)
        plan = a.spmv_plan(self.allow_tensor_cores)
        sp = _kernel_span("spmv", phase, level)
        with sp:
            y, rec = mbsr_spmv(am, np.asarray(x, dtype=np.float64), prec, plan,
                               allow_tensor_cores=self.allow_tensor_cores,
                               storage_itemsize=self.storage_itemsize)
        rec.phase, rec.level = phase, level
        rec.price(self.cost)
        perf.append(rec)
        _finish_record(sp, rec)
        return np.asarray(y, dtype=np.float64)

    def bind_matvec(self, a, perf, phase, level):
        a = HypreCSRMatrix.wrap(a)
        self._ensure_mbsr(a, perf, phase, level)
        prec = self.schedule.for_level(level)
        am = a.mbsr_at_precision(prec)
        # The memoised binding freezes plan, casts and index arrays; its
        # numeric result never depends on the plan, so sharing the
        # cast-matrix cache's plan (structurally identical to the
        # canonical one matvec_device consults) is exact.
        binding = am.cache.spmv_binding(
            prec,
            allow_tensor_cores=self.allow_tensor_cores,
            storage_itemsize=self.storage_itemsize,
        )
        rec = binding.record
        rec.phase, rec.level = phase, level
        rec.price(self.cost)
        return binding

    def bind_matmat(self, a, perf, phase, level, width):
        a = HypreCSRMatrix.wrap(a)
        self._ensure_mbsr(a, perf, phase, level)
        prec = self.schedule.for_level(level)
        am = a.mbsr_at_precision(prec)
        binding = am.cache.spmm_binding(
            prec,
            width,
            allow_tensor_cores=self.allow_tensor_cores,
            storage_itemsize=self.storage_itemsize,
        )
        rec = binding.record
        rec.phase, rec.level = phase, level
        rec.price(self.cost)
        return binding


class AmgTPatcher:
    """Block-aligned incremental patch engine for the AmgT backend.

    Implements the ``interp_rows`` / ``galerkin_rows`` protocol of
    :func:`repro.amg.patch.patched_resetup` in the mBSR domain: products
    replay only the dirty block-rows (each tile bytewise equal to the same
    tile of the full product, so the spliced operators stay bit-identical
    to a cold setup), conversion templates and fused RAP plans are spliced
    through the pattern-keyed :class:`~repro.kernels.setup_cache.\
SetupPlanCache`, and every kernel is priced like its cold counterpart.

    The driver's scalar dirty sets arrive block-expanded (see
    ``repro.amg.patch._expand_blocks``), which is what keeps clean
    block-rows of a spliced plan from referencing operand block-rows whose
    tile lists changed.
    """

    def __init__(self, backend: AmgTBackend, reuse, perf: PerformanceLog,
                 phase: str = "setup"):
        self.backend = backend
        self.reuse = reuse
        self.perf = perf
        self.phase = phase
        #: Wrappers of the operators this patcher touched, keyed by
        #: ``id(csr)``; the driver seeds it with the previous setup's
        #: wrappers (old operands convert template-free) and merges the
        #: patched entries back after the setup.
        self.wrapped: dict[int, HypreCSRMatrix] = {}

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _valid_scalars(blocks: np.ndarray, nrows: int):
        """Scalar rows of the given block-rows (clipped to the matrix) and
        their positions within the compact 4*len(blocks)-row result."""
        scal = (blocks[:, None] * BLOCK_SIZE
                + np.arange(BLOCK_SIZE, dtype=np.int64)).ravel()
        pos = np.flatnonzero(scal < nrows)
        return scal[pos], pos

    def _price(self, records, level: int) -> None:
        backend = self.backend
        prec = backend.schedule.for_level(level)
        for rec in records:
            backend._reprice_mma(rec, prec)
            rec.phase, rec.level = self.phase, level
            rec.price(backend.cost)
            self.perf.append(rec)
            obs_metrics.observe_kernel(rec)

    def _wrap(self, csr) -> HypreCSRMatrix:
        """Wrapper for an operand of the *cached* hierarchy (mBSR twins
        usually carried over from the setup that built it)."""
        w = self.wrapped.get(id(csr))
        if w is None:
            w = HypreCSRMatrix(csr=csr, setup_cache=self.backend.setup_cache)
            self.wrapped[id(csr)] = w
        if w.setup_cache is None:
            w.setup_cache = self.backend.setup_cache
        return w

    def _patched_wrap(self, csr_new, csr_old, dirty_blocks: np.ndarray,
                      level: int) -> HypreCSRMatrix:
        """Wrapper for a drifted operand, converted through a spliced
        CSR->mBSR template (clean block-rows keep the cached layout)."""
        w = self.wrapped.get(id(csr_new))
        if w is not None and w.mbsr is not None:
            return w
        backend = self.backend
        cache = backend.setup_cache
        w = HypreCSRMatrix(csr=csr_new, setup_cache=cache)
        if csr_new is csr_old:
            backend._ensure_mbsr(w, self.perf, self.phase, level)
        else:
            sp = _kernel_span("csr2mbsr", self.phase, level)
            with sp:
                mbsr, stats, _ = cache.patch_csr2mbsr(
                    csr_new, csr_old.pattern_key(), dirty_blocks
                )
            w.mbsr = mbsr
            w.conversion_stats = stats
            rec = KernelRecord(kernel="csr2mbsr", backend=backend.name,
                               precision=Precision.FP64)
            rec.counters.add_bytes(read=stats.bytes_read,
                                   written=stats.bytes_written)
            rec.counters.launches = 2
            rec.phase, rec.level = self.phase, level
            rec.price(backend.cost, "amgt_convert")
            self.perf.append(rec)
            _finish_record(sp, rec)
        self.wrapped[id(csr_new)] = w
        return w

    def _record_sub_mbsr2csr(self, mbsr, csr, level: int) -> None:
        """Price the dirty rows' MBSR2CSR expansion (Fig. 6 step 5,
        restricted to the replayed block-rows)."""
        backend = self.backend
        rec = KernelRecord(kernel="mbsr2csr", backend=backend.name,
                           precision=Precision.FP64)
        rec.counters.add_bytes(
            read=mbsr.blc_num * (16 * 8 + 8 + 2),
            written=csr.nnz * (8 + 8) + (csr.nrows + 1) * 8,
        )
        rec.counters.launches = 2
        rec.phase, rec.level = self.phase, level
        rec.price(backend.cost, "amgt_convert")
        self.perf.append(rec)
        obs_metrics.observe_kernel(rec)

    # -- patcher protocol -------------------------------------------------
    def interp_rows(self, level, a_op, b_op, fpos):
        """Dirty block-rows of the extended+i product ``a_op @ b_op``.

        The operands are full (their conversions hit the pattern-keyed
        templates after the first patch); only the product is restricted.
        Returns the compact CSR over the covered F positions — every
        block-row's tiles bytewise equal to the full mBSR product's, hence
        every row bit-identical to the cold interpolation's.
        """
        from repro.formats.convert import mbsr_to_csr
        from repro.kernels.spgemm import mbsr_spgemm_rows

        backend = self.backend
        wa = self._wrap(a_op)
        wb = self._wrap(b_op)
        backend._ensure_mbsr(wa, self.perf, self.phase, level)
        backend._ensure_mbsr(wb, self.perf, self.phase, level)
        prec = backend.schedule.for_level(level)
        am = wa.mbsr_at_precision(prec)
        bm = wb.mbsr_at_precision(prec)
        blocks = np.unique(np.asarray(fpos, dtype=np.int64) // 4)
        sp = _kernel_span("spgemm", self.phase, level)
        with sp:
            sub, _, rec = mbsr_spgemm_rows(
                am, bm, blocks, prec, out_dtype=np.float64,
                storage_itemsize=backend.storage_itemsize,
            )
        self._price([rec], level)
        if sp:
            sp.set(patched_rows=int(blocks.shape[0]), sim_us=rec.sim_time_us)
        csr = mbsr_to_csr(sub).eliminate_zeros(0.0)
        covered, pos = self._valid_scalars(blocks, a_op.nrows)
        return csr.extract_rows(pos), covered

    def galerkin_rows(self, level, r_new, a_new, p_new, rows, dirt):
        """Dirty coarse block-rows of ``R @ A @ P`` via the spliced fused
        plan: two restricted numeric passes, no symbolic work on clean
        rows, no CSR round-trip of the intermediate."""
        from repro.formats.convert import mbsr_to_csr

        backend = self.backend
        cache = backend.setup_cache
        cached = self.reuse.levels[level]
        rows = np.asarray(rows, dtype=np.int64)
        blocks_c = np.unique(rows // 4)

        wro, wao, wpo = (self._wrap(m)
                         for m in (cached.r, cached.a, cached.p))
        for w in (wro, wao, wpo):
            backend._ensure_mbsr(w, self.perf, self.phase, level)
        wa = self._patched_wrap(a_new, cached.a,
                                np.unique(dirt.dv // 4), level)
        wp = self._patched_wrap(p_new, cached.p,
                                np.unique(dirt.covered // 4), level)
        wr = self._patched_wrap(r_new, cached.r, blocks_c, level)

        prec = backend.schedule.for_level(level)
        rm, am, pm = (w.mbsr_at_precision(prec) for w in (wr, wa, wp))
        rmo, amo, pmo = (w.mbsr_at_precision(prec) for w in (wro, wao, wpo))

        plan = cache.rap_plan_if_cached(rm, am, pm)
        if plan is None:
            prev = cache.rap_plan_if_cached(rmo, amo, pmo)
            if prev is not None:
                plan, _ = cache.patch_rap_plan(
                    rm, am, pm, rmo, amo, pmo, prev, blocks_c
                )
            else:
                # No cached plan to splice (cold setup ran elsewhere):
                # build one — later patches of this pattern replay it.
                plan, _ = cache.rap_plan(rm, am, pm)
        sp = _kernel_span("spgemm", self.phase, level)
        with sp:
            rap_sub, records = cache.rap_numeric_rows(
                plan, rm, am, pm, blocks_c, prec, out_dtype=np.float64,
                storage_itemsize=backend.storage_itemsize,
            )
        self._price(records, level)
        if sp:
            sp.set(fused="rap", patched_rows=int(blocks_c.shape[0]),
                   sim_us=sum(rec.sim_time_us for rec in records))
        csp = _kernel_span("mbsr2csr", self.phase, level)
        with csp:
            csr = mbsr_to_csr(rap_sub).eliminate_zeros(0.0)
        self._record_sub_mbsr2csr(rap_sub, csr, level)
        covered, pos = self._valid_scalars(blocks_c, r_new.nrows)
        return csr.extract_rows(pos), covered


def make_backend(name: str, device: DeviceSpec, precision: str = "fp64") -> KernelBackend:
    """Factory: ``'hypre'`` (always FP64) or ``'amgt'`` (fp64 / mixed)."""
    if name == "hypre":
        return HypreBackend(device)
    if name == "amgt":
        return AmgTBackend(device, precision=precision)
    raise ValueError(f"unknown backend {name!r}")
