"""Time whole ``sei run``s and the retrieval layer on a seeded corpus, sides alternating; write a BENCH file.

Run from the root of a checkout:

    python3 bench/run_bench.py --side parent=OTHER_CHECKOUT/src --side change=src --out BENCH_12.json

Each ``--side NAME=SRC`` names a ``sei`` package to measure (default: one
side, ``change``, from this checkout's ``src``).  The script writes the
n=20,000, d=256, k=5 corpus of ``tests/conftest.py::write_pipeline_fixture``
(seed 123) to ``.bench_build/run_bench`` in a subprocess of its own, so
generating it sets no measured peak.  The directory is fixed, so the
manifest's input paths, and with them every artifact, are the same for every
side.  It then takes ``RUNS`` rounds; each round measures every side once,
in a fresh process, the order flipped every round.  One measurement times
one ``sei run`` through ``cli.main``, and the run's one ``attach_shc`` call
where the pipeline looks it up, as perfbench's tracer does.  It then times
``retrieval.load_index`` of the ``index.bin`` that run wrote and
``retrieval.top_k`` on stored rows of that index.  After each measurement a
second fresh process imports the same ``sei``, loads that ``index.bin`` and
nothing else, and reports its ``VmHWM`` (``/proc/self/status``) as
``load_index_peak_rss_mb``: a new program image starts that mark afresh,
where ``ru_maxrss`` would start at the peak of the process that started it.

Names follow ``perfbench/METRICS.md``: ``cli.main.s`` is the whole run and
``throughput_per_s`` means what it means on ``pipeline-10k``.
``peak_rss_mb`` is the measuring process's own peak, and
``children_peak_rss_mb`` the largest peak of the processes ``sei`` forked
(``RUSAGE_CHILDREN``; 0 for a ``sei`` that forks none).  A forked child's
peak counts the pages it shares with the measuring process at the fork (the
interpreter, numpy, the records it reads), so it is an upper bound on the
memory the child adds, not that memory itself.  ``setting.scoring_threads``
is the size of ``attach_shc``'s scoring pool (1 for a ``sei`` that scores on
the calling thread only).

Each side of ``--out`` keeps every run, the ``median`` and the ``spread``
(max - min) of each timing and memory metric over the runs, the sha256 of
every artifact, and ``wc -l`` of ``src/sei/*.py``; ``src_lines_net`` is the
change's lines minus the parent's once both sides are in.  BLAS runs on one
thread, as in perfbench, unless the environment says otherwise.
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
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "run_bench"
N, D, K, SEED = 20_000, 256, 5, 123
TOP_K_CALLS = 2_000
RUNS = 3  # rounds; each measures every side once
# metrics summarized over a side's runs
SUMMARIZED = (
    "cli.main.s", "throughput_per_s", "peak_rss_mb", "children_peak_rss_mb",
    "retrieval.attach_shc.s", "retrieval.top_k.s", "retrieval.top_k.p50_ms",
    "retrieval.load_index.s", "load_index_peak_rss_mb",
)


def source_lines(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((src / "sei").glob("*.py")))


def generate(work: Path) -> None:
    """Write the corpus and its config with this checkout's generator."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from conftest import write_pipeline_fixture

    paths = write_pipeline_fixture(work, n=N, d=D, seed=SEED)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["k"] = K
    paths["config"].write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


def measure(src: Path, config_path: Path) -> dict:
    """One ``sei run`` of ``config_path`` with the ``sei`` under ``src``, then the ``top_k`` calls."""
    sys.path[:0] = [str(src)]
    import numpy as np
    import sei.cli
    from sei import pipeline, retrieval

    if Path(sei.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"imported sei from {sei.cli.__file__}, not from {src}")

    attach_shc, attached = pipeline.attach_shc, []

    def timed_attach(records, *args, **kwargs):
        start = time.perf_counter()
        result = attach_shc(records, *args, **kwargs)
        attached.append((len(records), time.perf_counter() - start))
        return result

    pipeline.attach_shc = timed_attach
    try:
        start = time.perf_counter()
        code = sei.cli.main(["run", "--config", str(config_path)])
        run_s = time.perf_counter() - start
    finally:
        pipeline.attach_shc = attach_shc
    if code != 0:
        raise SystemExit(f"sei run exited with {code}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out = json.loads(config_path.read_text(encoding="utf-8"))["paths"]["out_dir"]
    artifacts = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out).iterdir())}

    start = time.perf_counter()
    index = retrieval.load_index(Path(out) / "index.bin")
    load_s = time.perf_counter() - start
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
        "children_peak_rss_mb": children_mb,
        "retrieval.top_k.calls": len(calls),
        "retrieval.top_k.s": sum(calls),
        "retrieval.top_k.p50_ms": 1000.0 * statistics.median(calls),
        "retrieval.attach_shc.records": attach_records,
        "retrieval.attach_shc.s": attach_s,
        "retrieval.load_index.s": load_s,
        "artifacts_sha256": artifacts,
        "scoring_threads": retrieval._scoring_threads() if hasattr(retrieval, "_scoring_threads") else 1,
    }


def load_peak(src: Path, config_path: Path) -> float:
    """The ``VmHWM`` in MB of this process after it loads the run's ``index.bin`` with the ``sei`` under ``src``."""
    sys.path[:0] = [str(src)]
    from sei import retrieval

    out = json.loads(config_path.read_text(encoding="utf-8"))["paths"]["out_dir"]
    retrieval.load_index(Path(out) / "index.bin")
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024.0


def in_subprocess(*args: str) -> str:
    """Run this script with ``args`` in a fresh interpreter; returns what it printed."""
    proc = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} failed with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def summarize(runs: list[dict], src: Path) -> dict:
    first = runs[0]
    return {
        "runs": [{k: v for k, v in run.items() if k not in ("artifacts_sha256", "scoring_threads")} for run in runs],
        "median": {name: statistics.median(run[name] for run in runs) for name in SUMMARIZED},
        "spread": {name: max(run[name] for run in runs) - min(run[name] for run in runs) for name in SUMMARIZED},
        "artifacts_sha256": first["artifacts_sha256"],
        "artifacts_same_every_run": all(run["artifacts_sha256"] == first["artifacts_sha256"] for run in runs),
        "src_lines": source_lines(src),
        "scoring_threads": first["scoring_threads"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--side", action="append", metavar="NAME=SRC",
        help="a sei package to measure under NAME, e.g. parent=../parent/src (repeatable; default change=src)",
    )
    parser.add_argument("--out", type=Path, help="JSON file to merge the result into")
    # internal: the steps that run in a fresh interpreter
    parser.add_argument("--generate", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--measure", type=Path, metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--load-peak", type=Path, metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.generate:
        generate(WORK)
        return 0
    if args.measure:
        print(json.dumps(measure(args.measure, WORK / "config.json")))
        return 0
    if args.load_peak:
        print(load_peak(args.load_peak, WORK / "config.json"))
        return 0
    if args.out is None:
        parser.error("--out is required")
    sides = dict(side.split("=", 1) for side in args.side or [f"change={ROOT / 'src'}"])
    sides = {name: Path(src) for name, src in sides.items()}

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        in_subprocess("--generate")
        runs: dict[str, list[dict]] = {name: [] for name in sides}
        for round_no in range(RUNS):
            order = list(sides) if round_no % 2 == 0 else list(reversed(sides))
            for name in order:
                printed = in_subprocess("--measure", str(sides[name]))  # sei's own line, then the result
                runs[name].append(json.loads(printed.splitlines()[-1]))
                runs[name][-1]["load_index_peak_rss_mb"] = float(in_subprocess("--load-peak", str(sides[name])))
                print(f"round {round_no + 1} {name}: {runs[name][-1]['throughput_per_s']:.1f} studies/s", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    for name, src in sides.items():
        result = summarize(runs[name], src)
        result["setting"] = {
            "n": N, "d": D, "k": K, "seed": SEED, "top_k_calls": TOP_K_CALLS, "runs": RUNS,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "scoring_threads": result.pop("scoring_threads"),
            "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        }
        bench[name] = result
        for metric, value in result["median"].items():
            print(f"{name} {metric} = {value:.6g} (spread {result['spread'][metric]:.3g})")
    kept = [side for side in bench if isinstance(bench[side], dict) and "artifacts_sha256" in bench[side]]
    hashes = {json.dumps(bench[s]["artifacts_sha256"], sort_keys=True) for s in kept}
    bench["artifacts_identical"] = len(hashes) == 1 and all(bench[s].get("artifacts_same_every_run", True) for s in kept)
    if "parent" in bench and "change" in bench:
        bench["src_lines_net"] = bench["change"]["src_lines"] - bench["parent"]["src_lines"]
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
