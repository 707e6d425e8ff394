"""Time one whole ``sei run`` and the retrieval layer on a seeded corpus; merge into a BENCH file.

Run from the root of a checkout:

    python3 bench/run_bench.py --side change --out BENCH_11.json
    python3 bench/run_bench.py --side parent --src OTHER_CHECKOUT/src --out BENCH_11.json

It writes the n=20,000, d=256, k=5 corpus of
``tests/conftest.py::write_pipeline_fixture`` (seed 123) to
``.bench_build/run_bench`` and times one ``sei run`` over it in this
process; the directory is fixed, so the manifest's input paths, and with
them every artifact, are the same for every ``--src``.  The run's one
``attach_shc`` call is timed where the pipeline looks it up, as
perfbench's tracer does, so no ``sei`` API beyond ``cli.main`` is called
for it.  It then times ``retrieval.top_k`` on stored rows of the index that
run wrote.  Names follow
``perfbench/METRICS.md``: ``cli.main.s`` is the whole run and
``throughput_per_s`` means what it means on ``pipeline-10k``;
``peak_rss_mb`` is this process's peak, corpus generation included.
``setting.scoring_threads`` is the size of ``attach_shc``'s scoring pool
(1 for a ``sei`` that scores on the calling thread only).

``--src`` picks the ``sei`` package to measure; the corpus generator always
comes from this checkout's ``tests``.  The result goes into ``--out`` under
``--side``, next to what other sides put there, with the sha256 of every
artifact and ``wc -l`` of ``src/sei/*.py`` (and its net change once both a
``parent`` and a ``change`` side are in).  BLAS runs on one thread, as in
perfbench, unless the environment says otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "run_bench"
N, D, K, SEED = 20_000, 256, 5, 123
TOP_K_CALLS = 2_000


def source_lines(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((src / "sei").glob("*.py")))


def measure(src: Path, work: Path) -> dict:
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import numpy as np
    import sei.cli
    from conftest import write_pipeline_fixture
    from sei import pipeline, retrieval

    if Path(sei.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"imported sei from {sei.cli.__file__}, not from {src}")
    paths = write_pipeline_fixture(work, n=N, d=D, seed=SEED)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["k"] = K
    paths["config"].write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    attach_shc, attached = pipeline.attach_shc, []

    def timed_attach(records, *args, **kwargs):
        start = time.perf_counter()
        result = attach_shc(records, *args, **kwargs)
        attached.append((len(records), time.perf_counter() - start))
        return result

    pipeline.attach_shc = timed_attach
    try:
        start = time.perf_counter()
        code = sei.cli.main(["run", "--config", str(paths["config"])])
        run_s = time.perf_counter() - start
    finally:
        pipeline.attach_shc = attach_shc
    if code != 0:
        raise SystemExit(f"sei run exited with {code}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = paths["out_dir"]
    artifacts = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}

    index = retrieval.load_index(out / "index.bin")
    rows = np.random.default_rng(SEED).choice(index.n, size=TOP_K_CALLS, replace=False)
    calls = []
    for row in rows:
        t0 = time.perf_counter()
        retrieval.top_k(index, index.matrix[row], K, exclude_id=index.ids[row])
        calls.append(time.perf_counter() - t0)

    ((attach_records, attach_s),) = attached
    return {
        "cli.main.s": run_s,
        "throughput_per_s": N / run_s,
        "peak_rss_mb": peak_mb,
        "retrieval.top_k.calls": len(calls),
        "retrieval.top_k.s": sum(calls),
        "retrieval.top_k.p50_ms": 1000.0 * statistics.median(calls),
        "retrieval.attach_shc.records": attach_records,
        "retrieval.attach_shc.s": attach_s,
        "src_lines": source_lines(src),
        "artifacts_sha256": artifacts,
        "scoring_threads": retrieval._scoring_threads() if hasattr(retrieval, "_scoring_threads") else 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", required=True, help="key the result is stored under, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the sei package")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to merge the result into")
    args = parser.parse_args(argv)

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        result = measure(args.src, WORK)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result["setting"] = {
        "n": N, "d": D, "k": K, "seed": SEED, "top_k_calls": TOP_K_CALLS,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "scoring_threads": result.pop("scoring_threads"),
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
    }
    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    bench[args.side] = result
    sides = [side for side in bench if isinstance(bench[side], dict) and "artifacts_sha256" in bench[side]]
    bench["artifacts_identical"] = len({json.dumps(bench[s]["artifacts_sha256"], sort_keys=True) for s in sides}) == 1
    if "parent" in bench and "change" in bench:
        bench["src_lines_net"] = bench["change"]["src_lines"] - bench["parent"]["src_lines"]
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, value in result.items():
        if isinstance(value, float):
            print(f"{args.side} {name} = {value:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
