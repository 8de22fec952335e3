"""Cold start, run in a fresh interpreter by ``run.py``.

Times ``import repro`` plus the first setup and first Krylov solve of
thermal1 (amgt, fp64), then checks the solution untimed and prints one
JSON line.  Usage: ``python3 cold_start.py SEED``.
"""

import sys
import time

t_start = time.perf_counter()
import repro  # noqa: E402  (the import is what this script times)
from repro import AmgTSolver  # noqa: E402

t_import = time.perf_counter()

import json  # noqa: E402

import inputs  # noqa: E402


def main() -> None:
    seed = int(sys.argv[1])
    a = inputs.make_matrix("thermal1", seed)
    b = inputs.rhs(a.nrows, seed, "thermal1", "cold-start")
    t0 = time.perf_counter()
    solver = AmgTSolver(backend="amgt", device="H100", precision="fp64")
    solver.setup(a)
    result = solver.solve_krylov(b)
    t1 = time.perf_counter()

    import verify

    label, rel = verify.check_solution(
        inputs.to_scipy(a), b, result.x,
        verify.KRYLOV_TOL * verify.KRYLOV_SLACK)
    print(json.dumps({
        "import_s": t_import - t_start,
        "setup_solve_s": t1 - t0,
        "cold_start_s": (t_import - t_start) + (t1 - t0),
        "label": label,
        "relative_residual": rel,
        "version": repro.__version__,
    }))


if __name__ == "__main__":
    main()
