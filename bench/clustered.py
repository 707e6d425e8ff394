"""Time ``top_k`` and ``attach_shc`` on clustered unit rows, sides alternating; print a JSON summary.

Run from the root of a checkout:

    python3 bench/clustered.py --side parent=OTHER_CHECKOUT/src --side change=src

Each ``--side NAME=SRC`` names a ``sei`` package to measure (default: one
side, ``change``, from this checkout's ``src``).  The rows are n = 20,000
vectors of d = 256, each one of 8 random unit centres plus Gaussian noise of
norm about ``spread``, so a row's cosine with its centre is about
1 / sqrt(1 + spread^2); spreads 1, 0.1, 0.03 and 0.01 run from loose
clusters to near-duplicates.  Retrieval of similar reports meets such rows
where many reports say nearly the same thing; the isotropic rows of
``perfbench/inputs.py`` do not show what a rounding margin costs there.

One measurement is a fresh process with one BLAS thread, as perfbench runs:
it normalizes the rows into an index, round-trips it through ``save_index``
and ``load_index`` as ``sei run`` does, times ``top_k`` (k = 5, own row
excluded) on 400 stored rows after one untimed call, then one
``attach_shc`` over 2,560 study ids.  It counts the rows each query hands to
exact rescoring (``retrieval._exact_scores``, or ``_gemv_rows`` in ``sei``
before 0.2.0) and hashes every hit's id, which must agree between sides.
Score bits are left out, as 0.2.0 changed the exact score's definition.
``--rounds`` rounds (default 3) measure every side once per spread, the
order flipped every round; the summary keeps each metric's median per side
and spread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
N, D, K, CENTRES, SEED = 20_000, 256, 5, 8, 7
SPREADS = (1.0, 0.1, 0.03, 0.01)
TOP_K_CALLS, RECORDS = 400, 2_560


def measure(src: Path, spread: float) -> dict:
    sys.path[:0] = [str(src)]
    import numpy as np

    from sei import retrieval

    rng = np.random.default_rng(SEED)
    centres = rng.standard_normal((CENTRES, D))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    raw = centres[rng.integers(0, CENTRES, N)] + spread * rng.standard_normal((N, D)) / np.sqrt(D)
    ids = [f"s{i:05d}" for i in range(N)]
    with tempfile.TemporaryDirectory() as tmp:
        retrieval.save_index(retrieval.index_from_vectors(ids, raw), Path(tmp) / "index.bin")
        index = retrieval.load_index(Path(tmp) / "index.bin")
    helper = "_exact_scores" if hasattr(retrieval, "_exact_scores") else "_gemv_rows"
    rescored, rescore = [], getattr(retrieval, helper)

    def counting(matrix, q, rows):
        rescored.append(len(rows))
        return rescore(matrix, q, rows)

    setattr(retrieval, helper, counting)
    digest = hashlib.sha256()
    retrieval.top_k(index, raw[0], K)
    rescored.clear()
    calls = []
    for row in rng.choice(N, TOP_K_CALLS, replace=False).tolist():
        start = time.perf_counter()
        hits = retrieval.top_k(index, raw[row], K, exclude_id=ids[row]).hits
        calls.append(time.perf_counter() - start)
        digest.update(repr([sid for sid, _ in hits]).encode())
    embeddings = retrieval.index_from_vectors(ids, raw, normalize=False)
    start = time.perf_counter()
    attached = retrieval.attach_shc(ids[:RECORDS], index, K, embeddings, dict.fromkeys(ids, ""))
    attach_s = time.perf_counter() - start
    for row in attached:
        digest.update(repr([c["study_id"] for c in row["cases"]]).encode())
    calls.sort()
    return {
        "top_k.p50_ms": 1000.0 * statistics.median(calls),
        "top_k.p99_ms": 1000.0 * calls[int(0.99 * len(calls))],
        "attach_shc.s": attach_s,
        "rescored_rows.p50": statistics.median(rescored),
        "rescored_rows.max": max(rescored),
        "hit_ids_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", metavar="NAME=SRC", help="a sei package to measure (repeatable)")
    parser.add_argument("--rounds", type=int, default=3, help="rounds, each measuring every side once per spread")
    parser.add_argument("--measure", nargs=2, metavar=("SRC", "SPREAD"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(Path(args.measure[0]), float(args.measure[1]))))
        return 0
    sides = dict(side.split("=", 1) for side in args.side or [f"change={ROOT / 'src'}"])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs: dict[str, dict[float, list[dict]]] = {name: {s: [] for s in SPREADS} for name in sides}
    for round_no in range(args.rounds):
        for spread in SPREADS:
            for name in list(sides) if round_no % 2 == 0 else list(reversed(sides)):
                cmd = [sys.executable, __file__, "--measure", str(Path(sides[name]).resolve()), str(spread)]
                run = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True, env=env).stdout)
                runs[name][spread].append(run)
                print(f"round {round_no + 1} spread {spread:g} {name}: {run}", file=sys.stderr, flush=True)
    summary = {
        name: {
            f"spread {spread:g}": {
                **{m: statistics.median(r[m] for r in rs) for m in rs[0] if m != "hit_ids_sha256"},
                "hit_ids_sha256": sorted({r["hit_ids_sha256"] for r in rs}),
            }
            for spread, rs in by_spread.items()
        }
        for name, by_spread in runs.items()
    }
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
