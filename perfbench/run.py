"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-10k --seed 1 --seconds 20 --trace 0

The inputs are generated from the seed (untimed, cached per seed under
``.bench_build/perfbench``).  Set-up is timed in several fresh processes and
the work itself in one more, ``worker.py``, with the package imported from the
checkout's ``src``.  ``--trace 0`` prints the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` prints its per-layer metrics from a traced
run.  The last line of standard output is the JSON result; the exit code is
non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = 1
SETUP_REPEATS = 9
P99_BLOCK = 1000
KEEP_SEEDS = 4
DEADLINE_S = 170.0

# Work per run is fixed by --seconds at rates measured on a 2-core x86-64 box,
# so every run of one setting does the same calls and the trace counts repeat.
WORKLOADS = {
    "pipeline-10k": {"kind": "pipeline", "n": 10_000, "d": 256, "k": 5, "run_s": 30.0},
    "train-step": {"kind": "train", "step_s": 2.5},
    "query-20k": {"kind": "query", "n": 20_000, "d": 256, "query_s": 1 / 300},
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def inputs_version() -> str:
    return hashlib.sha256((HERE / "inputs.py").read_bytes()).hexdigest()[:12]


def prepare_inputs(name: str, seed: int) -> Path:
    """Generate (or reuse) the seed's inputs; keep the newest KEEP_SEEDS per workload."""
    import inputs

    conf = WORKLOADS[name]
    base = CACHE / name / inputs_version()
    root = base / f"seed-{seed}"
    marker = root / "inputs.done"
    if not marker.exists():
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        if conf["kind"] == "pipeline":
            inputs.write_pipeline_inputs(root, conf["n"], conf["d"], seed, k=conf["k"])
        elif conf["kind"] == "query":
            from sei import retrieval

            ids, matrix = inputs.index_vectors(conf["n"], conf["d"], seed)
            index = retrieval.EmbeddingIndex(dim=conf["d"], ids=tuple(ids), matrix=matrix, normalized=True)
            retrieval.save_index(index, root / "index.bin")
        marker.write_text("ok\n", encoding="utf-8")
    os.utime(marker)
    stale = sorted(
        (p for p in base.glob("seed-*") if (p / "inputs.done").exists()),
        key=lambda p: (p / "inputs.done").stat().st_mtime,
    )
    for old in stale[:-KEEP_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return root


def worker_spec(name: str, seed: int, seconds: int, mode: str, root: Path) -> dict:
    conf = WORKLOADS[name]
    spec = {"kind": conf["kind"], "seed": seed, "mode": mode}
    if conf["kind"] == "pipeline":
        spec.update(n=conf["n"], k=conf["k"], repeats=max(1, round(seconds / conf["run_s"])))
    elif conf["kind"] == "train":
        spec.update(steps=max(1, round(seconds / conf["step_s"])))
    else:
        spec.update(queries=max(1, round(seconds / conf["query_s"])))
    spec.update(result=str(root / f"result-{mode}.json"), spans=str(root / "spans.json"))
    return spec


def run_worker(spec: dict, root: Path, deadline: float) -> dict:
    """Start worker.py on ``spec`` in ``root``; raise on a crash or the deadline."""
    spec_path = root / f"spec-{spec['mode']}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    Path(spec["result"]).unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def check_hashes(name: str, seed: int, hashes: dict) -> list[str]:
    """Artifacts of one seed must be byte-identical in every run of this checkout."""
    record = CACHE / name / inputs_version() / "hashes" / f"seed-{seed}.json"
    if record.exists():
        previous = json.loads(record.read_text(encoding="utf-8"))
        return [f"{art} differs from an earlier run of seed {seed}" for art in sorted(previous) if previous[art] != hashes.get(art)]
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(hashes, sort_keys=True), encoding="utf-8")
    return []


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


E2E_METRICS = ("setup_s", "throughput_per_s", "call_p50_ms", "call_p99_ms", "peak_rss_mb")


def end_to_end(result: dict, setups: list[float]) -> dict:
    """The end-to-end metrics of one untraced run.

    ``call_p99_ms`` is the median of the p99 of each consecutive block of
    P99_BLOCK calls (one block when there are fewer), so a burst of
    interference in one block does not set the run's tail.
    """
    times = result["times"]
    blocks = [times[i : i + P99_BLOCK] for i in range(0, len(times), P99_BLOCK)]
    if len(blocks) > 1 and len(blocks[-1]) < P99_BLOCK:
        blocks[-2] += blocks.pop()
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": result["items"] / sum(times),
        "call_p50_ms": 1000.0 * statistics.median(times),
        "call_p99_ms": 1000.0 * statistics.median([percentile(block, 99) for block in blocks]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "sei" / "__init__.py").is_file():
        return fail(f"no sei package under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import sei
    import spans

    if Path(sei.__file__).resolve().parent != (ROOT / "src" / "sei").resolve():
        return fail(f"imported sei from {sei.__file__}, not from this checkout")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m["unit"] for m in declared[section]}
    known = spans.known_metric if args.trace else E2E_METRICS.__contains__
    unknown = [m for m in metrics if not known(m)]
    if unknown:
        return fail(f"BENCHMARK.json names {section} metrics this benchmark cannot report: {unknown}")

    try:
        root = prepare_inputs(args.workload, args.seed)
        setups = []
        if not args.trace:
            setup_spec = worker_spec(args.workload, args.seed, args.seconds, "setup", root)
            setups = [run_worker(setup_spec, root, deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
        mode = "trace" if args.trace else "run"
        result = run_worker(worker_spec(args.workload, args.seed, args.seconds, mode, root), root, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    failures = list(result["failures"])
    if "hashes" in result:
        failures += check_hashes(args.workload, args.seed, result["hashes"])
    shutil.rmtree(root / "out", ignore_errors=True)
    attempted = result["calls"] + result["checks"] + ("hashes" in result)
    failed = result["failed_calls"] + len(failures)

    values = result["layers"] if args.trace else end_to_end(result, setups)
    for message in failures:
        print(f"check failed: {message}")
    times = result["times"]
    print(
        f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"blas_threads={BLAS_THREADS} calls={len(times)} items={result['items']} "
        f"setup_samples={len(setups)} fail_frac={failed}/{attempted}"
    )
    out = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in metrics.items()}
    for name, metric in out.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
