"""The stage table: ``sei <stage> --config C`` run in stage order writes what ``sei run`` writes."""

import importlib
import importlib.util
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sei import pipeline
from sei.cli import main
from sei.pipeline import STAGE_ORDER, STAGES

from conftest import patch_config, write_pipeline_fixture

REPO = Path(__file__).resolve().parents[1]
M_GT_VALUES = (60, 80, 90, 100, "cpl")
# Trace targets that no longer resolve, left for the benchmark's own repair: build_index is gone
# (index_from_vectors took its place), and pipeline scores through score_settings, not score_corpus.
STALE_TRACE_TARGETS = {"sei.pipeline:build_index", "sei.pipeline:score_corpus"}


def sei(*argv) -> int:
    with redirect_stdout(io.StringIO()):
        return main(list(argv))


def artifacts(out_dir: Path) -> dict[str, bytes]:
    return {spec.artifact: (out_dir / spec.artifact).read_bytes() for spec in STAGES.values()}


def drop_studies(paths: dict, dropped: set[int]) -> None:
    """Make the corpus filter drop the studies at ``dropped`` and take them out of the generated-side files."""
    ids = {f"st{i:03d}" for i in dropped}
    rows = [json.loads(line) for line in paths["corpus"].read_text().splitlines()]
    for row in rows:
        if row["study_id"] in ids:
            row["findings"] += " Portable film is subnitted."  # the fixture config's junk pattern
    paths["corpus"].write_text("".join(json.dumps(row) + "\n" for row in rows))
    for name in ("generated", "generated_entities"):
        lines = paths[name].read_text().splitlines(keepends=True)
        paths[name].write_text("".join(line for line in lines if json.loads(line)["study_id"] not in ids))
    lines = paths["generated_labels"].read_text().splitlines(keepends=True)
    paths["generated_labels"].write_text("".join(line for line in lines if line.split(",")[0] not in ids))


@settings(max_examples=50, deadline=None)
@given(
    dropped=st.sets(st.integers(0, 7), max_size=3),
    k=st.sampled_from([0, 1, 3]),
    m_gt=st.lists(st.sampled_from(M_GT_VALUES), min_size=1, unique=True),
    sn=st.sampled_from([0, 3]),
    sh=st.sampled_from([0, 6]),
    fixture_seed=st.integers(0, 2**16),
)
def test_stages_in_order_write_the_runs_artifacts(dropped, k, m_gt, sn, sh, fixture_seed):
    """For each drawn config, the stage subcommands run in ``STAGE_ORDER`` write
    ``sei run``'s seven artifacts byte for byte, and no manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = write_pipeline_fixture(root, n=8, seed=fixture_seed)
        drop_studies(paths, dropped)
        patch_config(paths["config"], k=k, m_gt=m_gt, fusion={"sn": sn, "sh": sh})
        staged = root / "staged.json"
        staged.write_text(paths["config"].read_text())
        patch_config(staged, paths={"out_dir": str(root / "staged")})
        assert sei("run", "--config", str(paths["config"])) == 0
        for stage in STAGE_ORDER:
            assert sei(stage, "--config", str(staged)) == 0, stage
        assert artifacts(root / "staged") == artifacts(paths["out_dir"])
        assert sorted(p.name for p in (root / "staged").iterdir()) == sorted(spec.artifact for spec in STAGES.values())
        filtered = (paths["out_dir"] / "filtered.jsonl").read_text().splitlines()
        assert len(filtered) == 8 - len(dropped)


def test_no_similar_case_rows_is_the_k_zero_branch(tmp_path):
    """``fusion.sh`` 0 with k 1 writes the ``fusion.json`` of k 0: no similar cases go into the fusion demo."""
    written = {}
    for k in (0, 1):
        paths = write_pipeline_fixture(tmp_path / f"k{k}", n=30)
        patch_config(paths["config"], k=k, fusion={"sh": 0})
        assert sei("run", "--config", str(paths["config"])) == 0
        written[k] = (paths["out_dir"] / "fusion.json").read_bytes()
    assert written[1] == written[0]
    assert json.loads(written[1])["branch"] == "no_shc"


def test_a_stage_alone_deletes_the_runs_manifest(tmp_path):
    paths = write_pipeline_fixture(tmp_path)
    manifest = paths["out_dir"] / "run_manifest.json"
    assert sei("run", "--config", str(paths["config"])) == 0
    assert json.loads(manifest.read_text())["status"] == "ok"
    assert sei("normalize", "--config", str(paths["config"])) == 0
    assert not manifest.exists()


class TestDroppedStudyIsNamed:
    """A generated report for a study the corpus filter dropped is rejected naming the filter and its reason."""

    REASON = "was dropped by the corpus filter (junk:effusion opacity)"

    @pytest.fixture
    def paths(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path, n=30)
        patch_config(paths["config"], filter={"junk_patterns": ["effusion opacity"]})
        return paths

    def test_run(self, paths, capsys):
        assert main(["run", "--config", str(paths["config"])]) == 2
        message = f"stage score: {paths['generated']}: generated study_id 'st000' {self.REASON}"
        assert message in capsys.readouterr().err
        manifest = json.loads((paths["out_dir"] / "run_manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "score")

    def test_score_stage(self, paths, capsys):
        assert sei("filter", "--config", str(paths["config"])) == 0
        assert main(["score", "--config", str(paths["config"])]) == 2
        assert f"error: {paths['generated']}: generated study_id 'st000' {self.REASON}" in capsys.readouterr().err
        assert not (paths["out_dir"] / "scores.json").exists()

    def test_an_id_the_corpus_lacks_is_not_blamed_on_the_filter(self, tmp_path, capsys):
        paths = write_pipeline_fixture(tmp_path)
        with open(paths["generated"], "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"study_id": "zz9", "text": "lungs clear."}) + "\n")
        assert sei("filter", "--config", str(paths["config"])) == 0
        assert main(["score", "--config", str(paths["config"])]) == 2
        assert f"{paths['generated']}: generated study_id 'zz9' is not in the reference corpus" in capsys.readouterr().err


class TestTraceTargets:
    """The benchmark traces ``sei`` by patching module attributes; the stages must still look them up there."""

    def test_run_and_a_stage_reach_the_patched_load_corpus(self, tmp_path, monkeypatch):
        calls = []
        real = pipeline.load_corpus

        def counted(path):
            calls.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(pipeline, "load_corpus", counted)
        paths = write_pipeline_fixture(tmp_path)
        assert sei("run", "--config", str(paths["config"])) == 0
        assert calls == ["corpus.jsonl"]
        assert sei("normalize", "--config", str(paths["config"])) == 0
        assert calls == ["corpus.jsonl", "filtered.jsonl"]

    def test_every_traced_sei_name_resolves(self):
        spec = importlib.util.spec_from_file_location("perfbench_spans", REPO / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        targets = {
            target
            for names, _ in spans.WRAPS.values()
            for target in names
            if target.startswith(("sei.cli:", "sei.pipeline:"))
        }
        targets.add("sei.pipeline:attach_shc")  # bench/run_bench.py times attach-shc through it
        missing = {
            target for target in targets
            if not hasattr(importlib.import_module(target.split(":")[0]), target.split(":")[1])
        }
        assert missing <= STALE_TRACE_TARGETS, missing
