"""One benchmark process: set up, run the timed work, check the outputs.

Usage: ``python3 worker.py SPEC.json``.  ``run.py`` writes the spec and starts
this file in a fresh interpreter with ``sei`` on ``PYTHONPATH``, so import
cost and peak RSS belong to the workload alone.  The spec's ``mode`` is

* ``setup``: set up once and report how long it took;
* ``run``: set up, time the work untraced, then check the outputs;
* ``trace``: as ``run``, then set up and time the same work again with every
  public ``sei`` function wrapped by ``spans.Tracer``.

The result goes to the spec's ``result`` path as JSON.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

STAGES = ("filter", "see-extract", "normalize", "index", "attach-shc", "fuse-demo", "score")
ORACLE_SAMPLE = 200
TIE_SAMPLE = 100
FD_EPS = 1e-5
FD_TOL = 1e-4
_EMB_ID = re.compile(r'"study_id":\s*"([^"]*)"')


def same_hits(got, want) -> bool:
    """Same ids in the same order and bit-identical scores."""
    return [sid for sid, _ in got] == [sid for sid, _ in want] and [
        float(s).hex() for _, s in got
    ] == [float(s).hex() for _, s in want]


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def central_diff(fn, array, flat_index: int, eps: float = FD_EPS) -> float:
    flat = array.reshape(-1)
    old = flat[flat_index]
    flat[flat_index] = old + eps
    f_plus = fn()
    flat[flat_index] = old - eps
    f_minus = fn()
    flat[flat_index] = old
    return (f_plus - f_minus) / (2.0 * eps)


def tie_rows(rows: list[dict]) -> list[dict]:
    """shc.jsonl rows where two retrieved cases share one score."""
    out = []
    for row in rows:
        scores = [case["score"] for case in row["cases"]]
        if len(set(scores)) < len(scores):
            out.append(row)
    return out


def check_shc(shc_path: Path, index_path: Path, emb_path: Path, k: int, seed: int) -> tuple[int, list[str]]:
    """Compare a seeded sample of shc.jsonl rows, tie rows included, with ``top_k_naive``.

    The query is the study's raw embedding, as ``attach_shc`` uses it.
    Returns the number of rows compared and one message per mismatch.
    """
    import numpy as np
    from sei import retrieval

    rows = [json.loads(line) for line in shc_path.read_text(encoding="utf-8").splitlines()]
    rng = np.random.default_rng([seed, 0xC3])
    picked = [rows[int(i)] for i in rng.choice(len(rows), size=min(ORACLE_SAMPLE, len(rows)), replace=False)]
    picked += tie_rows(rows)[:TIE_SAMPLE]
    wanted = {row["study_id"] for row in picked}
    vectors = {}
    with open(emb_path, encoding="utf-8") as handle:
        for line in handle:
            match = _EMB_ID.search(line)
            if match and match.group(1) in wanted:
                vectors[match.group(1)] = json.loads(line)["vec"]
    index = retrieval.load_index(index_path)
    failures = []
    for row in picked:
        sid = row["study_id"]
        if sid not in vectors:
            failures.append(f"shc row {sid}: no embedding")
            continue
        want = retrieval.top_k_naive(index, np.asarray(vectors[sid], dtype=np.float64), k, exclude_id=sid)
        got = [(case["study_id"], case["score"]) for case in row["cases"]]
        if not same_hits(got, want.hits):
            failures.append(f"shc row {sid}: {got[:2]}... differs from top_k_naive {list(want.hits[:2])}...")
    return len(picked), failures


# ---------------------------------------------------------------------------
# Workloads.  Each has setup(spec), run(spec) -> (call times, items done,
# failed calls) and check(spec) -> (checks attempted, failure messages).
# ---------------------------------------------------------------------------


class Pipeline:
    """``sei run`` over the generated corpus, from the seed directory."""

    def __init__(self):
        self.hashes: list[dict] = []  # artifact sha256s of every run in this process

    def setup(self, spec: dict):
        import sei.cli

        self.cli = sei.cli

    def run(self, spec: dict) -> tuple[list[float], int, int]:
        times, failed = [], 0
        for _ in range(spec["repeats"]):
            shutil.rmtree("out", ignore_errors=True)
            start = time.perf_counter()
            code = self.cli.main(["run", "--config", "config.json"])
            times.append(time.perf_counter() - start)
            failed += code != 0
            if code == 0:
                self.hashes.append(self._hashes())
        return times, spec["n"] * spec["repeats"], failed

    def _hashes(self) -> dict:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path("out").iterdir())}

    def check(self, spec: dict) -> tuple[int, list[str]]:
        failures = []
        manifest = json.loads(Path("out/run_manifest.json").read_text(encoding="utf-8"))
        if manifest.get("status") != "ok":
            failures.append(f"manifest status {manifest.get('status')!r}")
        stages = manifest.get("stages", [])
        if tuple(stage.get("name") for stage in stages) != STAGES:
            failures.append(f"manifest stages {[s.get('name') for s in stages]}")
        current = self.hashes[-1] if self.hashes else {}
        for stage in stages:
            for artifact in stage.get("artifacts", []):
                if current.get(artifact["path"]) != artifact["sha256"]:
                    failures.append(f"manifest sha256 of {artifact['path']} does not match the file")
        if any(h != current for h in self.hashes):
            failures.append("artifacts differ between runs in one process")
        compared, wrong = check_shc(Path("out/shc.jsonl"), Path("out/index.bin"), Path("emb.jsonl"), spec["k"], spec["seed"])
        # status, stage list, manifest hashes and repeat hashes, then one per compared row
        return 4 + compared, failures + wrong


class Query:
    """Single ``top_k`` calls against a loaded index, one at a time."""

    K = 20

    def setup(self, spec: dict):
        from sei import retrieval

        self.retrieval = retrieval
        self.index = retrieval.load_index("index.bin")

    def run(self, spec: dict) -> tuple[list[float], int, int]:
        import numpy as np

        import inputs

        index, top_k = self.index, self.retrieval.top_k
        rows = inputs.query_rows(spec["seed"], index.n, spec["queries"])
        rng = np.random.default_rng([spec["seed"], 0xC4])
        sample = set(rng.choice(len(rows), size=min(ORACLE_SAMPLE, len(rows)), replace=False).tolist())
        times, self.kept, ties = [], [], 0
        for pos, row in enumerate(rows.tolist()):
            query, qid = index.matrix[row], index.ids[row]
            start = time.perf_counter()
            result = top_k(index, query, self.K, exclude_id=qid)
            times.append(time.perf_counter() - start)
            hits = result.hits
            tie = len({score for _, score in hits}) < len(hits)
            if pos in sample or (tie and ties < TIE_SAMPLE):
                self.kept.append((row, hits))
                ties += tie
        return times, len(rows), 0

    def check(self, spec: dict) -> tuple[int, list[str]]:
        failures = []
        for row, hits in self.kept:
            want = self.retrieval.top_k_naive(self.index, self.index.matrix[row], self.K, exclude_id=self.index.ids[row])
            if len(hits) != self.K or not same_hits(hits, want.hits):
                failures.append(f"top_k for row {row} differs from top_k_naive")
        return len(self.kept), failures


class TrainStep:
    """Alignment loss and gradients, fusion forward/backward per study, NLL gradient."""

    SHAPES = {"B": 16, "S_i": 49, "S_t": 64, "d": 256, "heads": 8, "S_h": 100, "S_n": 20, "M": 16, "V": 2000}

    def setup(self, spec: dict):
        from sei import fusion, losses

        self.fusion, self.losses = fusion, losses
        self.params = fusion.init_params(self.SHAPES["d"], self.SHAPES["heads"], spec["seed"])
        self.first = self._build(spec["seed"], 0)

    def _build(self, seed: int, step: int) -> dict:
        import inputs

        raw = inputs.train_step_arrays(seed, step, self.SHAPES)
        f, ls = self.fusion, self.losses
        return {
            "batch": ls.AlignmentBatch(**raw["align"]),
            "studies": [
                (f.FeatureSet(image=s["image"], shc=s["shc"], indication=s["indication"]), s["upstream"])
                for s in raw["studies"]
            ],
            "preds": [ls.TokenPrediction(probs=p, reference=tuple(r)) for p, r in zip(raw["probs"], raw["refs"].tolist())],
        }

    def run(self, spec: dict) -> tuple[list[float], int, int]:
        f, ls, params = self.fusion, self.losses, self.params
        times, self.values = [], []
        for step in range(spec["steps"]):
            data = self.first if step == 0 else self._build(spec["seed"], step)
            fused, kept = [], {}
            start = time.perf_counter()
            align, align_grads = ls.total_alignment_loss_grad(data["batch"])
            for i, (features, up) in enumerate(data["studies"]):
                out = f.fuse(features, params)
                grads = f.fuse_backward(features, params, up)
                fused.append(out)
                kept.setdefault(out.branch_taken, (i, grads))
            nll, nll_grads = ls.nll_loss_grad(data["preds"])
            times.append(time.perf_counter() - start)
            self.values.append([align, nll] + [float(out.fused.sum()) for out in fused])
            if step == 0:
                self.grads = (align_grads, kept, nll_grads)
        return times, spec["steps"], 0

    def check(self, spec: dict) -> tuple[int, list[str]]:
        import numpy as np

        f, ls, params = self.fusion, self.losses, self.params
        failures = []
        if not all(math.isfinite(v) for step in self.values for v in step):
            failures.append("a loss or fused output is not finite")
        align_grads, fusion_grads, nll_grads = self.grads
        if set(fusion_grads) != {"full", "no_indication"}:
            failures.append(f"fusion branches taken: {sorted(fusion_grads)}")
        rng = np.random.default_rng([spec["seed"], 0xFD])
        data = self.first
        probes = []  # (label, objective, array, analytic gradient, flat index, step)
        batch = data["batch"]
        for name in ("image_feats", "text_feats", "image_locals", "text_locals"):
            array = getattr(batch, name)
            flat = int(rng.integers(array.size))
            probes.append((name, lambda: ls.total_alignment_loss(batch), array, align_grads[name], flat, FD_EPS))
        for branch, (i, grads) in fusion_grads.items():
            features, up = data["studies"][i]
            objective = lambda features=features, up=up: float(np.sum(f.fuse(features, params).fused * up))  # noqa: E731
            layers, grad_layers = params.layers(), grads.layers()
            for layer, name in (("integrate", "cross_q"), ("img_enrich", "ff1")):
                array = layers[layer].arrays()[name]
                flat = int(rng.integers(array.size))
                probes.append((f"{branch} {layer}.{name}", objective, array, grad_layers[layer].arrays()[name], flat, FD_EPS))
            flat = int(rng.integers(features.image.size))
            probes.append((f"{branch} image", objective, features.image, grads.image, flat, FD_EPS))
        preds = data["preds"]
        # A reference entry, where the NLL gradient is not zero.  log p curves
        # on the scale of p itself, so the step is relative to it.
        flat = int(np.ravel_multi_index((0, preds[0].reference[0]), preds[0].probs.shape))
        step = 1e-4 * float(preds[0].probs.reshape(-1)[flat])
        probes.append(("nll probs", lambda: ls.nll_loss(preds, validate=False), preds[0].probs, nll_grads[0], flat, step))
        for label, objective, array, grad, flat, step in probes:
            numeric = central_diff(objective, array, flat, step)
            analytic = float(grad.reshape(-1)[flat])
            if rel_err(analytic, numeric) > FD_TOL:
                failures.append(f"{label} gradient entry {flat}: analytic {analytic!r} vs central difference {numeric!r}")
        return 2 + len(probes), failures


WORKLOADS = {"pipeline": Pipeline, "query": Query, "train": TrainStep}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["kind"]]()
    workload.setup(spec)
    result = {"setup_s": time.perf_counter() - _START}
    if spec["mode"] != "setup":
        times, items, failed = workload.run(spec)
        result.update(times=times, items=items, calls=len(times), failed_calls=failed)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if spec["mode"] == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install()
            try:
                workload.setup(spec)
                traced, _, failed = workload.run(spec)
            finally:
                tracer.restore()
            result["calls"] += len(traced)
            result["failed_calls"] += failed
            result["layers"] = spans.layer_metrics(tracer)
            result["layers"]["trace.overhead_frac"] = sum(traced) / sum(times) - 1.0
            tracer.write(Path(spec["spans"]))
        checks, failures = workload.check(spec)
        result.update(checks=checks, failures=failures)
        if spec["kind"] == "pipeline" and workload.hashes:
            result["hashes"] = workload.hashes[-1]
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    raise SystemExit(main(sys.argv[1]))
