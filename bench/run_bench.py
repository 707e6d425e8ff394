"""Time whole ``sei run``s, the retrieval layer and fusion on seeded inputs, sides alternating; write a BENCH file.

Run from the root of a checkout:

    python3 bench/run_bench.py --side parent=OTHER_CHECKOUT/src --side change=src --out BENCH_12.json

Each ``--side NAME=SRC`` names a ``sei`` package to measure (default: one
side, ``change``, from this checkout's ``src``).  The script writes the
n=20,000, d=256, k=5 corpus of ``tests/conftest.py::write_pipeline_fixture``
(seed 123) to ``.bench_build/run_bench`` in a subprocess of its own, so
generating it sets no measured peak.  The directory is fixed, so the
manifest's input paths, and with them every artifact, are the same for every
side.  It then takes ``--rounds`` rounds (default 3, as the committed BENCH
files use; an A/A comparison of one ``src`` on both sides wants 10 or more);
each round measures every side once, in a fresh process, the order flipped
every round, so the first side named runs first in the odd rounds.  One
measurement times one ``sei run`` through ``cli.main``, and the run's one
``attach_shc`` call where the pipeline looks it up, as perfbench's tracer
does.  It then times ``retrieval.load_index`` of the ``index.bin`` that run
wrote and ``retrieval.top_k`` on stored rows of that index.  Around the ``sei run``
alone it reads the CPU seconds (``ru_utime + ru_stime``) of the measuring
process (``cpu_s``) and of the children ``sei`` forked and reaped
(``children_cpu_s``), the involuntary context switches of each (``nivcsw``,
``children_nivcsw``) and the machine's steal ticks (``steal_ticks``, the 8th
value of the ``cpu`` line of ``/proc/stat``, which counts every process on
the machine); ``cpu_s_per_study`` is both CPU sums over the n studies.
After each measurement a second fresh process imports the same ``sei``,
loads that ``index.bin`` and nothing else, and reports its ``VmHWM``
(``/proc/self/status``) as ``load_index_peak_rss_mb``: a new program image
starts that mark afresh, where ``ru_maxrss`` would start at the peak of the
process that started it.  Each of those two processes imports numpy and
then times its import of ``sei``: ``sei.cli`` in the first
(``import.sei_cli.s``) and ``sei.retrieval`` in the second
(``import.sei_retrieval.s``).  Each is a new program image, so the time
includes compiling the ``sei`` source unless its bytecode is already cached
on disk (``PYTHONDONTWRITEBYTECODE`` keeps it from being written).  A third
fresh process runs fusion on the 16 studies of one ``train-step`` step
(``perfbench/inputs.py::train_step_arrays`` at ``perfbench/worker.py``'s
``TrainStep.SHAPES``, seed 1, step 0): ``fuse`` then ``fuse_backward`` per
study, ``FUSION_REPS`` times.  It reports the median time of one pass as
``fusion.step_s`` and the sha256 of every fused output and gradient, in
study order, as ``fusion_sha256``.

Names follow ``perfbench/METRICS.md``: ``cli.main.s`` is the whole run and
``throughput_per_s`` means what it means on ``pipeline-10k``.
``peak_rss_mb`` is the measuring process's own peak, and
``children_peak_rss_mb`` the largest peak of the processes ``sei`` forked
(``RUSAGE_CHILDREN``; 0 for a ``sei`` that forks none).  A forked child's
peak counts the pages it shares with the measuring process at the fork (the
interpreter, numpy, the records it reads), so it is an upper bound on the
memory the child adds, not that memory itself.  ``setting.fusion_helper``
says whether fusion runs a helper thread at the ``train-step`` shapes.
``setting.numeric_env`` names what decides the bits of ``fusion.json``, the
one artifact that follows the numeric environment (see ``sei.pipeline``,
C8): numpy's version, the dispatch target of the float64 ``power`` and
``exp`` loops, OpenBLAS's configuration string and ``OPENBLAS_CORETYPE``,
if set.

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
FUSION_REPS = 5  # passes over one step's studies in each fusion measurement
# metrics summarized over a side's runs
SUMMARIZED = (
    "cli.main.s", "throughput_per_s", "cpu_s_per_study", "cpu_s", "children_cpu_s",
    "nivcsw", "children_nivcsw", "steal_ticks", "peak_rss_mb", "children_peak_rss_mb",
    "retrieval.attach_shc.s", "retrieval.top_k.s", "retrieval.top_k.p50_ms",
    "retrieval.load_index.s", "load_index_peak_rss_mb", "fusion.step_s", "import.sei_cli.s",
    "import.sei_retrieval.s",
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


def steal_ticks() -> int:
    """The machine's steal ticks so far: the 8th value of the ``cpu`` line of ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as stat:
        return int(stat.readline().split()[8])


def usage() -> dict:
    """CPU seconds and involuntary context switches so far, of this process and of its reaped children."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime,
        "children_cpu_s": children.ru_utime + children.ru_stime,
        "nivcsw": own.ru_nivcsw,
        "children_nivcsw": children.ru_nivcsw,
        "steal_ticks": steal_ticks(),
    }


def measure(src: Path, config_path: Path) -> dict:
    """One ``sei run`` of ``config_path`` with the ``sei`` under ``src``, then the ``top_k`` calls."""
    sys.path[:0] = [str(src)]
    import numpy as np

    start = time.perf_counter()
    import sei.cli
    import_s = time.perf_counter() - start
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
        before = usage()
        start = time.perf_counter()
        code = sei.cli.main(["run", "--config", str(config_path)])
        run_s = time.perf_counter() - start
        spent = {name: value - before[name] for name, value in usage().items()}
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
        "cpu_s_per_study": (spent["cpu_s"] + spent["children_cpu_s"]) / N,
        **spent,
        "peak_rss_mb": peak_mb,
        "children_peak_rss_mb": children_mb,
        "retrieval.top_k.calls": len(calls),
        "retrieval.top_k.s": sum(calls),
        "retrieval.top_k.p50_ms": 1000.0 * statistics.median(calls),
        "retrieval.attach_shc.records": attach_records,
        "retrieval.attach_shc.s": attach_s,
        "retrieval.load_index.s": load_s,
        "import.sei_cli.s": import_s,
        "artifacts_sha256": artifacts,
    }


def numeric_environment() -> dict:
    """numpy's version and float64 ``power``/``exp`` dispatch targets, OpenBLAS's configuration and core type."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_targets_info__ as targets

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "power_ddd": targets["power"]["ddd"]["current"],
        "exp_dd": targets["exp"]["dd"]["current"],
        "openblas_configuration": blas.get("openblas configuration"),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
    }


def measure_fusion(src: Path) -> dict:
    """``fuse`` then ``fuse_backward`` on one ``train-step`` step's studies with the ``sei`` under ``src``."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from inputs import train_step_arrays
    from sei import fusion
    from worker import TrainStep

    shapes = TrainStep.SHAPES
    raw = train_step_arrays(1, 0, shapes)
    params = fusion.init_params(shapes["d"], shapes["heads"], 1)
    studies = [
        (fusion.FeatureSet(image=s["image"], shc=s["shc"], indication=s["indication"]), s["upstream"])
        for s in raw["studies"]
    ]
    times, digest = [], hashlib.sha256()
    for rep in range(FUSION_REPS):
        start = time.perf_counter()
        results = [(fusion.fuse(f, params), fusion.fuse_backward(f, params, up)) for f, up in studies]
        times.append(time.perf_counter() - start)
        if rep == 0:
            for out, grads in results:
                arrays = [out.fused, grads.image, grads.shc, grads.indication]
                arrays += [a for layer in grads.layers().values() for a in layer.arrays().values()]
                for array in arrays:
                    digest.update(b"-" if array is None else array.tobytes())
        del results
    first = studies[0][0]
    helper = fusion._helper(params.d, first.image, first.shc, first.indication).threaded
    return {"fusion.step_s": statistics.median(times), "fusion_sha256": digest.hexdigest(), "fusion_helper": helper}


def load_peak(src: Path, config_path: Path) -> dict:
    """The ``VmHWM`` in MB of this process after it loads the run's ``index.bin`` with the ``sei`` under ``src``,
    and the seconds ``import sei.retrieval`` took after numpy."""
    sys.path[:0] = [str(src)]
    import numpy  # noqa: F401  (imported first, so the timed import is sei's own)

    start = time.perf_counter()
    from sei import retrieval
    import_s = time.perf_counter() - start
    out = json.loads(config_path.read_text(encoding="utf-8"))["paths"]["out_dir"]
    retrieval.load_index(Path(out) / "index.bin")
    with open("/proc/self/status", encoding="ascii") as status:
        peak_mb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024.0
    return {"load_index_peak_rss_mb": peak_mb, "import.sei_retrieval.s": import_s}


def in_subprocess(*args: str) -> str:
    """Run this script with ``args`` in a fresh interpreter; returns what it printed."""
    proc = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} failed with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def summarize(runs: list[dict], src: Path) -> dict:
    first = runs[0]
    per_side = ("artifacts_sha256", "fusion_sha256", "fusion_helper")
    return {
        "runs": [{k: v for k, v in run.items() if k not in per_side} for run in runs],
        "median": {name: statistics.median(run[name] for run in runs) for name in SUMMARIZED},
        "spread": {name: max(run[name] for run in runs) - min(run[name] for run in runs) for name in SUMMARIZED},
        "artifacts_sha256": first["artifacts_sha256"],
        "artifacts_same_every_run": all(run["artifacts_sha256"] == first["artifacts_sha256"] for run in runs),
        "fusion_sha256": first["fusion_sha256"],
        "fusion_same_every_run": all(run["fusion_sha256"] == first["fusion_sha256"] for run in runs),
        "src_lines": source_lines(src),
        "fusion_helper": first["fusion_helper"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--side", action="append", metavar="NAME=SRC",
        help="a sei package to measure under NAME, e.g. parent=../parent/src (repeatable; default change=src)",
    )
    parser.add_argument("--out", type=Path, help="JSON file to merge the result into")
    parser.add_argument("--rounds", type=int, default=3, help="rounds, each measuring every side once (default 3)")
    # internal: the steps that run in a fresh interpreter
    parser.add_argument("--generate", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--measure", type=Path, metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--load-peak", type=Path, metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--fusion", type=Path, metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.generate:
        generate(WORK)
        return 0
    if args.measure:
        print(json.dumps(measure(args.measure, WORK / "config.json")))
        return 0
    if args.load_peak:
        print(json.dumps(load_peak(args.load_peak, WORK / "config.json")))
        return 0
    if args.fusion:
        print(json.dumps(measure_fusion(args.fusion)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = dict(side.split("=", 1) for side in args.side or [f"change={ROOT / 'src'}"])
    sides = {name: Path(src) for name, src in sides.items()}

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        in_subprocess("--generate")
        runs: dict[str, list[dict]] = {name: [] for name in sides}
        for round_no in range(args.rounds):
            order = list(sides) if round_no % 2 == 0 else list(reversed(sides))
            for name in order:
                printed = in_subprocess("--measure", str(sides[name]))  # sei's own line, then the result
                runs[name].append(json.loads(printed.splitlines()[-1]))
                runs[name][-1].update(json.loads(in_subprocess("--load-peak", str(sides[name]))))
                runs[name][-1].update(json.loads(in_subprocess("--fusion", str(sides[name]))))
                run = runs[name][-1]
                print(
                    f"round {round_no + 1} {name}: {run['throughput_per_s']:.1f} studies/s, "
                    f"{1000 * run['cpu_s_per_study']:.3f} CPU ms/study",
                    flush=True,
                )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    for name, src in sides.items():
        result = summarize(runs[name], src)
        result["setting"] = {
            "n": N, "d": D, "k": K, "seed": SEED, "top_k_calls": TOP_K_CALLS, "runs": args.rounds,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "fusion_helper": result.pop("fusion_helper"),
            "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
            "numeric_env": numeric_environment(),
        }
        bench[name] = result
        for metric, value in result["median"].items():
            print(f"{name} {metric} = {value:.6g} (spread {result['spread'][metric]:.3g})")
    kept = [side for side in bench if isinstance(bench[side], dict) and "artifacts_sha256" in bench[side]]
    hashes = {json.dumps(bench[s]["artifacts_sha256"], sort_keys=True) for s in kept}
    bench["artifacts_identical"] = len(hashes) == 1 and all(bench[s].get("artifacts_same_every_run", True) for s in kept)
    fused = [side for side in kept if "fusion_sha256" in bench[side]]
    bench["fusion_identical"] = len({bench[s]["fusion_sha256"] for s in fused}) == 1 and all(
        bench[s]["fusion_same_every_run"] for s in fused
    )
    if "parent" in bench and "change" in bench:
        bench["src_lines_net"] = bench["change"]["src_lines"] - bench["parent"]["src_lines"]
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
