"""Incremental hierarchy patching: diffs, splices, fallbacks, tapes.

The patch path's contract is stronger than the exact re-setup's: whatever
it returns must carry *the same bits* as a cold setup of the new matrix —
level operators, interpolation, restriction, smoothing diagonals and C/F
markers — and every fallback must (a) still produce that cold hierarchy
and (b) leave an honest ``setup_reuse_total{outcome, reason}`` counter.
These tests pin that contract at the CSR engine level, through the AmgT
backend's block-aligned patcher, and across the solve-tape boundary
(patched setups bump the generation, so stale tapes re-record).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.amg.hierarchy import SetupParams, amg_setup
from repro.amg.patch import LevelDirt, patched_resetup, replace_rows
from repro.amg.solver import AmgTSolver
from repro.check.fingerprint import csr_block_row_digests, diff_rows, row_digests
from repro.formats.csr import CSRMatrix
from repro.gpu import A100
from repro.hypre.backends import AmgTBackend, make_backend
from repro.hypre.boomeramg import BoomerAMG
from repro.matrices import poisson2d
from repro.matrices.generators import convection_diffusion_2d, evolving_sequence

from conftest import random_csr

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))


def _perturb(a, seed=0, n_edits=10, grow=0, mag=0.01):
    """Localised edits: scale a few rows by ``1 + mag``; optionally add
    *grow* weak couplings (diagonally compensated)."""
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.integers(0, a.nrows, size=n_edits))
    data = np.where(np.isin(a.row_ids(), rows), a.data * (1.0 + mag), a.data)
    if not grow:
        return CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(), data,
                         _canonical=True)
    rr = rows[:grow]
    cc = (rr + 7) % a.nrows
    return CSRMatrix.from_coo(
        np.concatenate([a.row_ids(), rr, rr]),
        np.concatenate([a.indices, cc, rr]),
        np.concatenate([data, np.full(rr.size, 0.05), np.full(rr.size, 0.05)]),
        a.shape,
    )


def _assert_identical(h1, h2):
    assert h1.num_levels == h2.num_levels
    for l1, l2 in zip(h1.levels, h2.levels):
        for name in ("a", "p", "r"):
            m1, m2 = getattr(l1, name), getattr(l2, name)
            assert (m1 is None) == (m2 is None)
            if m1 is None:
                continue
            np.testing.assert_array_equal(m1.indptr, m2.indptr)
            np.testing.assert_array_equal(m1.indices, m2.indices)
            np.testing.assert_array_equal(m1.data, m2.data)
        np.testing.assert_array_equal(l1.dinv, l2.dinv)
        if l1.cf_marker is not None:
            np.testing.assert_array_equal(l1.cf_marker, l2.cf_marker)


def _reuse_counts():
    snap = obs.REGISTRY.snapshot().get("setup_reuse_total")
    if snap is None:
        return {}
    return {
        (s["labels"].get("outcome"), s["labels"].get("reason")): s["value"]
        for s in snap["samples"]
    }


# ---------------------------------------------------------------------------
# replace_rows: the row-splice primitive
# ---------------------------------------------------------------------------


class TestReplaceRows:
    def test_splice_matches_rebuild(self):
        a = random_csr(23, 17, density=0.3, seed=3)
        sub = random_csr(4, 17, density=0.5, seed=4)
        rows = np.array([2, 7, 8, 19])
        out = replace_rows(a, rows, sub)
        ref = [sub.extract_rows(np.array([list(rows).index(i)]))
               if i in rows else a.extract_rows(np.array([i]))
               for i in range(a.nrows)]
        for i, row in enumerate(ref):
            np.testing.assert_array_equal(
                out.extract_rows(np.array([i])).indices, row.indices)
            np.testing.assert_array_equal(
                out.extract_rows(np.array([i])).data, row.data)

    def test_empty_and_full_replacement(self):
        a = random_csr(9, 9, density=0.4, seed=5)
        same = replace_rows(a, np.array([], dtype=np.int64),
                            CSRMatrix.zeros((0, 9)))
        np.testing.assert_array_equal(same.indptr, a.indptr)
        np.testing.assert_array_equal(same.data, a.data)
        b = random_csr(9, 9, density=0.4, seed=6)
        swapped = replace_rows(a, np.arange(9), b)
        np.testing.assert_array_equal(swapped.indices, b.indices)
        np.testing.assert_array_equal(swapped.data, b.data)


# ---------------------------------------------------------------------------
# Fingerprint diff: the dirty-row oracle
# ---------------------------------------------------------------------------


class TestFingerprintDiff:
    def test_diff_rows_exactly_predicts_edits(self):
        a = poisson2d(12)
        b = _perturb(a, seed=1, n_edits=6)
        changed = diff_rows(row_digests(a, values=True),
                            row_digests(b, values=True))
        expected = np.flatnonzero([
            not np.array_equal(
                a.extract_rows(np.array([i])).data,
                b.extract_rows(np.array([i])).data)
            or not np.array_equal(
                a.extract_rows(np.array([i])).indices,
                b.extract_rows(np.array([i])).indices)
            for i in range(a.nrows)
        ])
        np.testing.assert_array_equal(changed, expected)

    def test_block_row_digests_cover_scalar_dirt(self):
        a = poisson2d(10)
        b = _perturb(a, seed=2, n_edits=5, grow=2)
        dirty_blocks = diff_rows(csr_block_row_digests(a, values=True),
                                 csr_block_row_digests(b, values=True))
        scalar = diff_rows(row_digests(a, values=True),
                           row_digests(b, values=True))
        assert set(scalar // 4) == set(dirty_blocks.tolist())


# ---------------------------------------------------------------------------
# CSR engine: patched setup is bit-identical to cold
# ---------------------------------------------------------------------------


class TestPatchedSetupCSR:
    @pytest.mark.parametrize("grow", [0, 3])
    def test_patched_bit_identical_to_cold(self, grow):
        a = poisson2d(20)
        h0 = amg_setup(a)
        b = _perturb(a, seed=7, n_edits=12, grow=grow)
        hp = amg_setup(b, reuse=h0, patch=True)
        assert hp.patched
        assert hp.patch_stats["dirty_rows"] > 0
        _assert_identical(hp, amg_setup(b))

    def test_identical_matrix_reuses_wholesale(self):
        a = poisson2d(16)
        h0 = amg_setup(a)
        hp = amg_setup(a, reuse=h0, patch=True)
        assert hp.patched
        assert hp.patch_stats["patched_levels"] == 0
        _assert_identical(hp, h0)

    def test_patched_generation_invalidates_reuse_tapes(self):
        a = poisson2d(16)
        h0 = amg_setup(a)
        hp = amg_setup(_perturb(a, seed=8), reuse=h0, patch=True)
        assert hp.generation == h0.generation + 1

    def test_chain_of_patched_setups(self):
        seq = evolving_sequence("newton", nx=16, steps=3, dirty_frac=0.05,
                                seed=2)
        h = amg_setup(seq[0])
        for a in seq[1:]:
            h = amg_setup(a, reuse=h, patch=True)
            _assert_identical(h, amg_setup(a))

    def test_checked_mode_differential_oracle(self):
        from repro.check import checked_region

        a = poisson2d(16)
        h0 = amg_setup(a)
        with checked_region():
            hp = amg_setup(_perturb(a, seed=9), reuse=h0, patch=True)
        assert hp.patched


# ---------------------------------------------------------------------------
# Fallbacks: every miss is cold-identical and counted with a reason
# ---------------------------------------------------------------------------


class TestFallbacks:
    def _counts_after(self, fn):
        obs.REGISTRY.reset()
        with obs.trace_region():
            out = fn()
        counts = _reuse_counts()
        obs.REGISTRY.reset()
        return out, counts

    def test_params_mismatch(self):
        a = poisson2d(14)
        h0 = amg_setup(a)
        other = SetupParams(strength_threshold=0.5)
        hp, counts = self._counts_after(
            lambda: amg_setup(a, params=other, reuse=h0, patch=True))
        assert not hp.patched
        assert counts == {("fallback", "params"): 1.0}
        _assert_identical(hp, amg_setup(a, params=other))

    def test_shape_mismatch(self):
        h0 = amg_setup(poisson2d(14))
        b = poisson2d(15)
        hp, counts = self._counts_after(
            lambda: amg_setup(b, reuse=h0, patch=True))
        assert counts == {("fallback", "shape"): 1.0}
        _assert_identical(hp, amg_setup(b))

    def test_dirty_fraction_threshold(self):
        a = poisson2d(14)
        h0 = amg_setup(a)
        b = _perturb(a, seed=11, n_edits=60)
        hp, counts = self._counts_after(
            lambda: amg_setup(b, reuse=h0, patch=True, patch_threshold=0.01))
        assert counts == {("fallback", "dirty-fraction"): 1.0}
        _assert_identical(hp, amg_setup(b))

    def test_cf_drift_falls_back_cold_identical(self):
        a = convection_diffusion_2d(16)
        h0 = amg_setup(a)
        rng = np.random.default_rng(13)
        b = CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(),
                      a.data * rng.uniform(0.5, 2.0, size=a.nnz),
                      _canonical=True)
        hp, counts = self._counts_after(
            lambda: amg_setup(b, reuse=h0, patch=True))
        assert not hp.patched
        (outcome, reason), = counts
        assert outcome == "fallback"
        assert reason in ("cf-drift", "level-drift", "dirty-fraction")
        _assert_identical(hp, amg_setup(b))

    def test_non_classical_reuse_counts_amg_family(self):
        a = poisson2d(12)
        params = SetupParams(amg_family="aggregation")
        h0 = amg_setup(a, params=params)
        hp, counts = self._counts_after(
            lambda: amg_setup(a, params=params, reuse=h0, patch=True))
        assert counts == {("fallback", "amg-family"): 1.0}

    def test_patched_outcome_counted(self):
        a = poisson2d(14)
        h0 = amg_setup(a)
        hp, counts = self._counts_after(
            lambda: amg_setup(_perturb(a, seed=12), reuse=h0, patch=True))
        assert hp.patched
        assert counts == {("patched", None): 1.0}


# ---------------------------------------------------------------------------
# AmgT backend: block-aligned patching through the spliced plan cache
# ---------------------------------------------------------------------------


class TestPatchedSetupAmgT:
    @pytest.mark.parametrize("precision", ["fp64", "mixed"])
    def test_backend_patched_bit_identical(self, precision):
        a = poisson2d(20)
        solver = BoomerAMG(make_backend("amgt", A100, precision=precision))
        h0 = solver.setup(a)
        b = _perturb(a, seed=21, n_edits=10, grow=2)
        hp = solver.setup(b, reuse=h0, patch=True)
        cold = BoomerAMG(
            make_backend("amgt", A100, precision=precision)).setup(b)
        _assert_identical(hp, cold)

    def test_backend_mixed_fallback_after_level0_matches_cold(self):
        # The patch processes level 0, then trips the cumulative dirty-row
        # budget on level 1: the cold fallback must run level 0 at level
        # 0's precision, exactly like a fresh solver's cold setup.
        a = poisson2d(20)
        b = _perturb(a, seed=21, n_edits=10, grow=2)

        def solver():
            return BoomerAMG(make_backend("amgt", A100, precision="mixed"))

        probe = solver()
        hp = probe.setup(b, reuse=probe.setup(a), patch=True)
        d0, d1 = (e["dirty"] for e in hp.patch_stats["levels"][:2])
        assert d0 > 0 and d1 > 0
        s = solver()
        h0 = s.setup(a)
        obs.REGISTRY.reset()
        with obs.trace_region():
            hf = s.setup(b, reuse=h0, patch=True,
                         patch_threshold=(d0 + d1 / 2) / a.nrows)
        counts = _reuse_counts()
        obs.REGISTRY.reset()
        assert counts == {("fallback", "dirty-fraction"): 1.0}
        assert not hf.patched
        _assert_identical(hf, solver().setup(b))

    def test_backend_perf_records_patch_phase(self):
        a = poisson2d(20)
        solver = BoomerAMG(AmgTBackend(A100, precision="fp64"))
        h0 = solver.setup(a)
        n0 = len(solver.perf.records)
        hp = solver.setup(_perturb(a, seed=22), reuse=h0, patch=True)
        assert hp.patched
        ops = {r.kernel for r in solver.perf.records[n0:]}
        assert "patch" in ops

    def test_backend_checked_region_end_to_end(self):
        from repro.check import checked_region

        a = poisson2d(16)
        solver = BoomerAMG(AmgTBackend(A100, precision="mixed"))
        h0 = solver.setup(a)
        with checked_region():
            hp = solver.setup(_perturb(a, seed=23), reuse=h0, patch=True)
        assert hp.patched

    def test_spliced_cache_does_not_corrupt_cold_setups(self):
        a = poisson2d(18)
        solver = BoomerAMG(AmgTBackend(A100, precision="fp64"))
        h0 = solver.setup(a)
        b = _perturb(a, seed=24, grow=2)
        solver.setup(b, reuse=h0, patch=True)
        # A cold setup through the same (now spliced) plan cache must
        # still match a setup through a pristine backend.
        again = solver.setup(b)
        pristine = BoomerAMG(AmgTBackend(A100, precision="fp64")).setup(b)
        _assert_identical(again, pristine)


# ---------------------------------------------------------------------------
# Patch <-> tape interaction
# ---------------------------------------------------------------------------


class TestPatchTapeInteraction:
    def _rhs(self, n, seed=5, width=None):
        rng = np.random.default_rng(seed)
        return rng.normal(size=n if width is None else (n, width))

    def test_patched_setup_re_records_bit_identical(self):
        a = poisson2d(16)
        s = AmgTSolver("amgt", "A100", precision="fp64")
        s.setup(a)
        b = self._rhs(a.nrows)
        s.solve(b, max_iterations=3, tape=True)
        stale = s._driver.get_tape()

        new_a = _perturb(a, seed=31)
        s.setup(new_a, reuse=True, patch=True)
        assert s.hierarchy.patched

        taped = s.solve(b, max_iterations=3, tape=True)
        fresh = s._driver.get_tape()
        assert fresh is not stale

        cold = AmgTSolver("amgt", "A100", precision="fp64").setup(new_a)
        ref = cold.solve(b, max_iterations=3)
        np.testing.assert_array_equal(taped.x, ref.x)
        assert taped.stats.residual_history == ref.stats.residual_history

    def test_patched_setup_bumps_generation(self):
        a = poisson2d(16)
        s = AmgTSolver("amgt", "A100", precision="fp64")
        s.setup(a)
        g0 = s.hierarchy.generation
        s.setup(_perturb(a, seed=32), reuse=True, patch=True)
        assert s.hierarchy.patched
        assert s.hierarchy.generation == g0 + 1

    def test_multi_rhs_taped_solve_after_patch(self):
        a = poisson2d(16)
        s = AmgTSolver("amgt", "A100", precision="fp64")
        s.setup(a)
        new_a = _perturb(a, seed=33)
        s.setup(new_a, reuse=True, patch=True)
        assert s.hierarchy.patched

        b = self._rhs(a.nrows, width=3)
        taped = s.solve_multi(b, max_iterations=3)
        cold = AmgTSolver("amgt", "A100", precision="fp64").setup(new_a)
        ref = cold.solve_multi(b, max_iterations=3)
        np.testing.assert_array_equal(taped.x, ref.x)


# ---------------------------------------------------------------------------
# Benchmark smoke
# ---------------------------------------------------------------------------


@pytest.mark.perf_smoke
def test_bench_evolve_smoke(tmp_path, monkeypatch):
    """One family at a small dirty fraction through the evolving-problem
    benchmark: patched/cold bit-identity asserted in-run, payload shaped
    like the other BENCH_* files."""
    import bench_evolve

    # Timing bench: under REPRO_CHECK the differential oracle re-runs a
    # full cold setup inside every patched one and inverts the speedup.
    # The bench asserts bit-identity itself, in-run, so drop the gates.
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)

    payload = bench_evolve.run(
        families=["newton"], fracs=[0.02], repeats=1,
        out_path=str(tmp_path / "BENCH_evolve.json"),
    )
    assert set(payload) == {
        "generated_by", "config", "results", "summary", "metrics",
        "meta", "attribution",
    }
    assert {r["op"] for r in payload["results"]} == {"patch@0.02"}
    assert all(r["outcome"] == "patched" for r in payload["results"])
    assert payload["summary"]["patch@0.02"]["min_speedup"] > 0
    # The instrumented pass drives the reuse engine, so its outcome
    # counters must be in the snapshot.
    assert "setup_reuse_total" in payload["metrics"]["newton"]
