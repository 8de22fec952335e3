"""Seeded benchmark inputs: matrices, right-hand sides and local edits.

Everything the program receives is generated here from the benchmark's
``--seed``; the same seed gives the same inputs.  Every call returns a
fresh matrix object, so no per-matrix pattern key or operator cache can
carry over from one timed setup to the next.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.matrices import generators as g
from repro.matrices.generators import evolving_sequence
from repro.matrices.suite import SUITE, suite_names

#: The paper's three solver configurations: (backend, precision).
CONFIGS = (("hypre", "fp64"), ("amgt", "fp64"), ("amgt", "mixed"))

#: Suite analogs whose generator draws a random structure.  The benchmark
#: draws them from its own seed, with the suite's generator and size, so
#: the inputs (and hence the model's counters) follow ``--seed``; the
#: stencil analogs have no randomness to draw.
_RANDOM_ANALOGS = {
    "spmsrtls": lambda s: g.random_block_spd(220, 4, 0.004, seed=s),
    "mc2depi": lambda s: g.epidemiology_grid(56, seed=s),
    "TSOPF_RS_b300_c3": lambda s: g.power_network(2800, seed=s, avg_degree=4),
    "nd24k": lambda s: g.random_block_spd(500, 4, 0.05, seed=s),
}

#: thermal1 scaled by these factors probes mixed precision's data range.
SCALES = {"x1e5": 1e5, "x1e8": 1e8, "x1e-8": 1e-8}

#: Fraction of rows a local edit (or an evolving step) touches.
DIRTY_FRAC = 0.02


def stream(seed: int, *labels) -> np.random.Generator:
    """Independent generator for one (seed, label...) stream.

    ``zlib.crc32`` keeps the derivation identical across processes (the
    built-in ``hash`` of a string is salted per process).
    """
    words = [int(seed)] + [zlib.crc32(str(x).encode()) for x in labels]
    return np.random.default_rng(np.random.SeedSequence(words))


def cold_setup_cases() -> list[str]:
    """The 16 Table-II analogs followed by the scaled thermal1 variants."""
    return suite_names() + [f"thermal1{k}" for k in SCALES]


def make_matrix(name: str, seed: int) -> CSRMatrix:
    """Fresh matrix object for case *name* (``thermal1x1e8`` etc. allowed)."""
    for suffix, factor in SCALES.items():
        if name.endswith(suffix):
            base = make_matrix(name[: -len(suffix)], seed)
            return CSRMatrix(base.shape, base.indptr.copy(),
                             base.indices.copy(), base.data * factor)
    if name in _RANDOM_ANALOGS:
        draw = int(stream(seed, "matrix", name).integers(0, 2**31 - 1))
        return _RANDOM_ANALOGS[name](draw)
    return SUITE[name].generator()


def rhs(n: int, seed: int, *labels) -> np.ndarray:
    return stream(seed, "rhs", *labels).standard_normal(n)


def to_scipy(a: CSRMatrix):
    """The benchmark's own fp64 view of a CSR operator (for checks).

    scipy is imported here, not at module level, so the cold-start child
    does not load it before its timed region.
    """
    import scipy.sparse as sp

    return sp.csr_matrix(
        (np.asarray(a.data, dtype=np.float64), a.indices, a.indptr),
        shape=a.shape,
    )


def is_symmetric(a: CSRMatrix) -> bool:
    """True when A equals its transpose (picks PCG over GMRES)."""
    m = to_scipy(a)
    diff = abs(m - m.T)
    return diff.nnz == 0 or diff.max() <= 1e-14 * abs(m).max()


#: Relative size of a local edit.  Small enough that the anchors'
#: re-setups take the patch path: with 1e-2, 10-40% of them fell back to
#: a cold setup, which made ``resetup_s`` bimodal from seed to seed.
#: Fallbacks, and the mixed-precision defect on that path, are measured
#: by the evolving workload's sequences.
EDIT_EPS = 1e-3


def local_edit(a: CSRMatrix, seed: int, *labels) -> CSRMatrix:
    """Local edit of ~``DIRTY_FRAC`` of the rows: a random window of rows
    is scaled by ``1 + EDIT_EPS u`` each, values only.  Scaling a whole
    row keeps its relative coupling strengths, the regime a patched
    re-setup is built for (the kind of edit ``evolving_sequence``'s steps
    make).
    """
    rng = stream(seed, "edit", *labels)
    n = a.nrows
    count = max(int(round(DIRTY_FRAC * n)), 4)
    start = int(rng.integers(0, n - count + 1))
    factor = np.ones(n)
    factor[start:start + count] += EDIT_EPS * rng.uniform(0.5, 1.0,
                                                          size=count)
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    return CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(),
                     a.data * factor[rows])


#: The evolving sequences.  Each run draws several sequences of each kind:
#: whether a step's patch falls back to a cold setup depends on the drawn
#: values, and averaging over draws keeps that share, and with it the
#: run's model time, from swinging with the seed.
EVOLVING_KINDS = ("newton", "refine", "timestep")
EVOLVING_DRAWS = 3
EVOLVING_STEPS = 4


def evolving(kind: str, seed: int, draw: int) -> list[CSRMatrix]:
    value = int(stream(seed, "evolving", kind, draw).integers(0, 2**31 - 1))
    return evolving_sequence(kind, steps=EVOLVING_STEPS,
                             dirty_frac=DIRTY_FRAC, seed=value)
