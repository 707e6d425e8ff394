"""End-to-end CLI and pipeline behavior: artifacts, determinism, exit codes."""

import errno
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sei import pipeline
from sei.cli import main
from sei.pipeline import (
    STAGE_ORDER,
    load_config,
    run_pipeline,
)
from sei.errors import StageError, ValidationError

from conftest import patch_config, write_pipeline_fixture

ARTIFACT_NAMES = (
    "filtered.jsonl",
    "sequences.jsonl",
    "normalized.jsonl",
    "index.bin",
    "shc.jsonl",
    "fusion.json",
    "scores.json",
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sei", *args], capture_output=True, text=True
    )


def read_artifacts(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in ARTIFACT_NAMES} | {
        "run_manifest.json": (out_dir / "run_manifest.json").read_bytes()
    }


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Every run, ok or failed, has reaped the processes it forked by the time it returns."""
    yield
    assert multiprocessing.active_children() == []


def corrupt_line(path: Path, index: int) -> None:
    """Cut the last three characters off line ``index`` (0-based), so it is no longer JSON."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = lines[index][:-3]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def failed_manifest(out_dir: Path) -> dict:
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["status"] == "failed"
    return manifest


class TestRunPipeline:
    def test_all_artifacts_and_manifest(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        cfg = load_config(paths["config"])
        manifest_path = run_pipeline(cfg)
        for name in ARTIFACT_NAMES:
            assert (paths["out_dir"] / name).exists(), name
        manifest = json.loads(manifest_path.read_text())
        assert manifest["status"] == "ok"
        assert [s["name"] for s in manifest["stages"]] == list(STAGE_ORDER)
        assert len(manifest["stages"]) == 7
        scores = json.loads((paths["out_dir"] / "scores.json").read_text())
        assert sorted(scores) == ["100", "60", "80", "90", "cpl"]
        for report in scores.values():
            assert sorted(report) == ["BL-2", "BL-4", "CX14", "CX5", "RG-F1", "R_L"]

    def test_rerun_byte_identical(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        cfg = load_config(paths["config"])
        run_pipeline(cfg)
        first = read_artifacts(paths["out_dir"])
        run_pipeline(cfg)
        second = read_artifacts(paths["out_dir"])
        assert first == second

    def test_deleting_intermediate_regenerates_identically(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        cfg = load_config(paths["config"])
        run_pipeline(cfg)
        first = read_artifacts(paths["out_dir"])
        (paths["out_dir"] / "sequences.jsonl").unlink()
        (paths["out_dir"] / "index.bin").unlink()
        run_pipeline(cfg)
        assert read_artifacts(paths["out_dir"]) == first

    def test_k_zero_takes_no_shc_branch(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        cfg = replace(load_config(paths["config"]), k=0)
        run_pipeline(cfg)
        fusion = json.loads((paths["out_dir"] / "fusion.json").read_text())
        assert fusion["branch"] == "no_shc"
        shc_rows = [
            json.loads(line)
            for line in (paths["out_dir"] / "shc.jsonl").read_text().splitlines()
        ]
        assert all(row["cases"] == [] for row in shc_rows)

    def test_k_one_takes_full_branch(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        cfg = load_config(paths["config"])
        run_pipeline(cfg)
        fusion = json.loads((paths["out_dir"] / "fusion.json").read_text())
        assert fusion["branch"] == "full"
        assert fusion["max_fd_rel_error"] < 1e-4
        shc_rows = [
            json.loads(line)
            for line in (paths["out_dir"] / "shc.jsonl").read_text().splitlines()
        ]
        for row in shc_rows:
            assert len(row["cases"]) == 1
            assert row["cases"][0]["study_id"] != row["study_id"]

    def test_junk_filter_applied(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        # append a junk record plus its embedding
        with open(paths["corpus"], "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "study_id": "junk1",
                        "findings": "Portable supine chest radiograph__at 23:16 is subnitted.",
                        "indication": None,
                        "entities": [],
                        "labels14": None,
                    }
                )
                + "\n"
            )
        with open(paths["embeddings"], "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"study_id": "junk1", "vec": [0.1] * 8}) + "\n")
        cfg = load_config(paths["config"])
        run_pipeline(cfg)
        filtered = (paths["out_dir"] / "filtered.jsonl").read_text()
        assert "junk1" not in filtered

    def test_stage_error_writes_failed_manifest(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        # corrupt the embeddings: drop one study so the index stage fails
        lines = paths["embeddings"].read_text().splitlines()
        paths["embeddings"].write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        cfg = load_config(paths["config"])
        with pytest.raises(StageError, match="stage index.*has no embedding"):
            run_pipeline(cfg)
        manifest = json.loads((paths["out_dir"] / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == "index"
        assert [s["name"] for s in manifest["stages"]] == ["filter", "see-extract", "normalize"]

    def test_missing_generated_path_rejected(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        raw = json.loads(paths["config"].read_text())
        del raw["paths"]["generated"]
        paths["config"].write_text(json.dumps(raw))
        cfg = load_config(paths["config"])
        with pytest.raises(StageError, match="generated"):
            run_pipeline(cfg)

    def test_invalid_m_gt_rejected(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        with pytest.raises(ValidationError, match="m_gt"):
            replace(load_config(paths["config"]), m_gt=(42.0,))

    @pytest.mark.parametrize(
        "choices", [pipeline.M_GT_CHOICES, (60, 75, math.inf)], ids=["declared", "other"]
    )
    def test_invalid_m_gt_message_names_every_choice(self, tmp_path, monkeypatch, choices):
        paths = write_pipeline_fixture(tmp_path)
        monkeypatch.setattr(pipeline, "M_GT_CHOICES", choices)
        with pytest.raises(ValidationError) as err:
            replace(load_config(paths["config"]), m_gt=(42.0,))
        listed = str(err.value).split("one of ")[1].split(";")[0]
        assert listed.replace(" or ", " ").replace(",", "").split() == [pipeline.m_gt_key(c) for c in choices]

    def test_jobs_change_artifacts_not(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        run_pipeline(replace(load_config(paths["config"]), jobs=1))
        first = {name: (paths["out_dir"] / name).read_bytes() for name in ARTIFACT_NAMES}
        run_pipeline(replace(load_config(paths["config"]), jobs=3))
        second = {name: (paths["out_dir"] / name).read_bytes() for name in ARTIFACT_NAMES}
        assert first == second


class TestParseOnce:
    """One run parses the corpus and the embeddings file once each."""

    @pytest.fixture
    def parse_calls(self, monkeypatch, tmp_path):
        """A function giving the parse calls so far, made in this process or a forked child.

        Each call appends its name to a log file, which a child shares with
        the test process, so a parse in a child is counted too.
        """
        import sei.pipeline

        log = tmp_path / "parse_calls.log"
        names = ("load_corpus", "load_embeddings")
        for name in names:
            real = getattr(sei.pipeline, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(_name + "\n")
                return _real(*args, **kwargs)

            monkeypatch.setattr(sei.pipeline, name, counted)

        def calls() -> dict[str, int]:
            logged = log.read_text(encoding="utf-8").split() if log.exists() else []
            return {name: logged.count(name) for name in names}

        return calls

    def test_each_input_parsed_once(self, tmp_path, parse_calls):
        paths = write_pipeline_fixture(tmp_path)
        manifest = json.loads(run_pipeline(load_config(paths["config"])).read_text())
        assert manifest["status"] == "ok"
        assert parse_calls() == {"load_corpus": 1, "load_embeddings": 1}

    def test_malformed_embeddings_still_fail_the_index_stage(self, tmp_path, parse_calls):
        paths = write_pipeline_fixture(tmp_path)
        lines = paths["embeddings"].read_text().splitlines()
        lines[4] = lines[4][:-3]
        paths["embeddings"].write_text("\n".join(lines) + "\n")
        with pytest.raises(StageError, match="stage index.*line 5"):
            run_pipeline(load_config(paths["config"]))
        manifest = json.loads((paths["out_dir"] / "run_manifest.json").read_text())
        assert manifest["failed_stage"] == "index"
        assert [s["name"] for s in manifest["stages"]] == ["filter", "see-extract", "normalize"]
        assert parse_calls() == {"load_corpus": 1, "load_embeddings": 1}


class TestForkedStages:
    """The embeddings parse and the scoring run in forked children; errors surface at their stages."""

    @pytest.mark.parametrize("why", ["thread-running", "fork-fails", "daemonic-process"])
    def test_artifacts_match_an_in_process_run(self, tmp_path, monkeypatch, why):
        """Where no child can be forked safely, the work runs in-process, with the same artifacts."""
        paths = write_pipeline_fixture(tmp_path, n=40, d=16)
        cfg = replace(load_config(paths["config"]), k=3)
        run_pipeline(cfg)
        forked = read_artifacts(paths["out_dir"])
        forks = []

        def failing_fork():
            forks.append(os.getpid())
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        if why == "thread-running":
            monkeypatch.setattr(os, "fork", failing_fork)
            stop = threading.Event()
            thread = threading.Thread(target=stop.wait)
            thread.start()
            try:
                run_pipeline(cfg)
            finally:
                stop.set()
                thread.join()
            assert forks == []
        elif why == "fork-fails":
            monkeypatch.setattr(os, "fork", failing_fork)
            run_pipeline(cfg)
            assert len(forks) == 2  # the parse and the scoring each tried once
        else:
            pool = multiprocessing.get_context("fork").Pool(1)  # its worker is daemonic: no children allowed
            try:
                pool.apply(run_pipeline, (cfg,))
            finally:
                pool.close()
                pool.join()
        assert read_artifacts(paths["out_dir"]) == forked

    def test_forked_parse_matches_the_in_process_parse(self, tmp_path):
        emb = write_pipeline_fixture(tmp_path, n=40, d=16)["embeddings"]
        forked = pipeline._Forked(pipeline.load_embeddings, emb).result()
        here = pipeline.load_embeddings(emb)
        assert (forked.ids, forked.dim, forked.normalized) == (here.ids, here.dim, here.normalized)
        assert forked.matrix.dtype == here.matrix.dtype and forked.matrix.tobytes() == here.matrix.tobytes()
        assert forked.matrix.flags.writeable == here.matrix.flags.writeable

    def test_malformed_corpus_fails_filter_before_malformed_embeddings(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        corrupt_line(paths["corpus"], 2)
        corrupt_line(paths["embeddings"], 1)
        with pytest.raises(StageError, match=r"stage filter: .*corpus\.jsonl: line 3:"):
            run_pipeline(load_config(paths["config"]))
        manifest = failed_manifest(paths["out_dir"])
        assert manifest["failed_stage"] == "filter"
        assert manifest["stages"] == []

    def test_failing_stage_kills_a_child_still_running(self, tmp_path, monkeypatch):
        paths = write_pipeline_fixture(tmp_path)
        corrupt_line(paths["corpus"], 2)
        monkeypatch.setattr(pipeline, "load_embeddings", lambda path: time.sleep(60))
        start = time.monotonic()
        with pytest.raises(StageError, match="stage filter"):
            run_pipeline(load_config(paths["config"]))
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize("broken", ["generated-line", "reference-labels14"])
    def test_scoring_error_fails_the_score_stage(self, tmp_path, broken):
        paths = write_pipeline_fixture(tmp_path)
        if broken == "generated-line":
            corrupt_line(paths["generated"], 1)
            expected = rf"stage score: {paths['generated']}: line 2:"
        else:
            rows = [json.loads(line) for line in paths["corpus"].read_text().splitlines()]
            rows[1]["labels14"] = None
            paths["corpus"].write_text("".join(json.dumps(row) + "\n" for row in rows))
            expected = rf"stage score: {paths['corpus']}: study 'st001' has no gold labels14"
        with pytest.raises(StageError, match=expected):
            run_pipeline(load_config(paths["config"]))
        manifest = failed_manifest(paths["out_dir"])
        assert manifest["failed_stage"] == "score"
        assert [s["name"] for s in manifest["stages"]] == list(STAGE_ORDER[:-1])  # attach-shc, fuse-demo done
        assert not (paths["out_dir"] / "scores.json").exists()

    @pytest.mark.parametrize("target, stage", [("load_embeddings", "index"), ("score_from_files", "score")])
    def test_child_exiting_without_a_result_fails_its_stage_with_exit_3(
        self, tmp_path, monkeypatch, capsys, target, stage
    ):
        test_pid = os.getpid()

        def exit_9(*args):
            if os.getpid() == test_pid:
                pytest.fail(f"{target} ran in the test process, not in a forked child")
            os._exit(9)

        paths = write_pipeline_fixture(tmp_path)
        monkeypatch.setattr(pipeline, target, exit_9)
        assert main(["run", "--config", str(paths["config"])]) == 3
        message = capsys.readouterr().err
        assert f"error: stage {stage}: exit_9 exited with code 9" in message, message
        manifest = failed_manifest(paths["out_dir"])
        assert manifest["failed_stage"] == stage
        assert [s["name"] for s in manifest["stages"]] == list(STAGE_ORDER[: STAGE_ORDER.index(stage)])


class TestCli:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "sei" in proc.stdout

    def test_run_and_rerun_via_cli(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        proc = run_cli("run", "--config", str(paths["config"]))
        assert proc.returncode == 0, proc.stderr
        first = read_artifacts(paths["out_dir"])
        proc = run_cli("run", "--config", str(paths["config"]))
        assert proc.returncode == 0, proc.stderr
        assert read_artifacts(paths["out_dir"]) == first

    def test_retrieve_tsv(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        assert run_cli("run", "--config", str(paths["config"])).returncode == 0
        proc = run_cli(
            "retrieve",
            "--index",
            str(paths["out_dir"] / "index.bin"),
            "--query-id",
            "st000",
            "--k",
            "3",
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split("\t") for line in proc.stdout.strip().splitlines()]
        assert len(rows) == 3
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert "st000" not in [r[1] for r in rows]
        scores = [float(r[2]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_see_extract_cli_schema(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        for stage in ("filter", "see-extract"):
            proc = run_cli(stage, "--config", str(paths["config"]))
            assert proc.returncode == 0, proc.stderr
        out = paths["out_dir"] / "sequences.jsonl"
        assert proc.stdout == f"wrote {out}\n"
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(set(row) == {"study_id", "factual_sequence"} for row in rows)

    def test_score_cli_matches_library(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        assert run_cli("run", "--config", str(paths["config"])).returncode == 0
        out = paths["out_dir"] / "scores.json"
        pipeline_scores = json.loads(out.read_text())
        out.unlink()
        patch_config(paths["config"], m_gt=[60])
        proc = run_cli("score", "--config", str(paths["config"]))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text()) == {"60": pipeline_scores["60"]}

    def test_validation_error_exit_2(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        paths["corpus"].write_text(
            '{"study_id": "a", "findings": "x.", "entities": '
            '[{"tokens": "x", "label": "OBS-XX", "start_ix": 0, "end_ix": 0}]}\n'
        )
        proc = run_cli("filter", "--config", str(paths["config"]))
        assert proc.returncode == 2
        assert "OBS-XX" in proc.stderr

    def test_io_error_exit_3(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        paths["corpus"].unlink()
        proc = run_cli("filter", "--config", str(paths["config"]))
        assert proc.returncode == 3
        assert str(paths["corpus"]) in proc.stderr

    @pytest.mark.parametrize(
        "stage, missing",
        [
            ("see-extract", "filtered.jsonl"),
            ("normalize", "filtered.jsonl"),
            ("index", "normalized.jsonl"),
            ("attach-shc", "index.bin"),
            ("attach-shc", "sequences.jsonl"),
            ("fuse-demo", "normalized.jsonl"),
            ("score", "filtered.jsonl"),
        ],
    )
    def test_missing_earlier_artifact_exits_3_naming_it(self, tmp_path, capsys, stage, missing):
        paths = write_pipeline_fixture(tmp_path)
        assert main(["run", "--config", str(paths["config"])]) == 0
        before = read_artifacts(paths["out_dir"])
        (paths["out_dir"] / missing).unlink()
        capsys.readouterr()
        assert main([stage, "--config", str(paths["config"])]) == 3
        assert str(paths["out_dir"] / missing) in capsys.readouterr().err
        # nothing was replaced: the stage's own artifact and the manifest are intact
        after = {path.name: path.read_bytes() for path in paths["out_dir"].iterdir()}
        assert after == {name: data for name, data in before.items() if name != missing}

    def test_filter_cli(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        patch_config(paths["config"], filter={"junk_patterns": ["effusion opacity"]})
        dropped = tmp_path / "dropped.jsonl"
        proc = run_cli("filter", "--config", str(paths["config"]), "--dropped", str(dropped))
        assert proc.returncode == 0, proc.stderr
        kept = [json.loads(line)["study_id"] for line in (paths["out_dir"] / "filtered.jsonl").read_text().splitlines()]
        rows = [json.loads(line) for line in dropped.read_text().splitlines()]
        assert rows and all(row["reason"] == "junk:effusion opacity" for row in rows)
        assert sorted(kept + [row["study_id"] for row in rows]) == [f"st{i:03d}" for i in range(10)]

    def test_normalize_cli(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        for stage in ("filter", "normalize"):
            proc = run_cli(stage, "--config", str(paths["config"]))
            assert proc.returncode == 0, proc.stderr
        rows = [json.loads(line) for line in (paths["out_dir"] / "normalized.jsonl").read_text().splitlines()]
        by_id = {row["study_id"]: row["indication"] for row in rows}
        assert by_id["st000"] == "62 woman with cough fever"

    @pytest.mark.parametrize(
        "patch, branch", [({}, "full"), ({"k": 0, "fusion": {"sn": 0}}, "image_only")], ids=["full", "image-only"]
    )
    def test_fuse_demo_branches(self, tmp_path, patch, branch):
        paths = write_pipeline_fixture(tmp_path)
        patch_config(paths["config"], **patch)
        for stage in ("filter", "normalize", "fuse-demo"):
            proc = run_cli(stage, "--config", str(paths["config"]))
            assert proc.returncode == 0, proc.stderr
        fusion = json.loads((paths["out_dir"] / "fusion.json").read_text())
        assert fusion["branch"] == branch
        assert fusion["max_fd_rel_error"] < 1e-4

    def test_align_demo(self):
        proc = run_cli("align-demo", "--b", "4", "--d", "8", "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        lines = dict(
            line.split(": ") for line in proc.stdout.strip().splitlines() if ": " in line
        )
        assert float(lines["max_fd_rel_error"]) < 1e-4
        total = float(lines["total"])
        parts = (
            float(lines["global_image_to_text"])
            + float(lines["global_text_to_image"])
            + float(lines["local"])
        )
        assert abs(total - parts) < 1e-5

    def test_index_cli_roundtrip(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        for stage in ("filter", "normalize", "index"):
            proc = run_cli(stage, "--config", str(paths["config"]))
            assert proc.returncode == 0, proc.stderr
        from sei.retrieval import load_index

        index = load_index(paths["out_dir"] / "index.bin")
        assert index.n == 10
        assert index.normalized


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65])
def test_sha256_file_hashes_in_chunks(tmp_path, monkeypatch, size):
    """Around a 64-byte chunk, the digest is that of the whole file and no read is larger than a chunk."""
    path = tmp_path / "blob"
    path.write_bytes(bytes(range(size)))
    want = hashlib.sha256(path.read_bytes()).hexdigest()
    sha256, reads = hashlib.sha256, []

    class Counted:
        def __init__(self):
            self.digest = sha256()

        def update(self, chunk):
            reads.append(len(chunk))
            self.digest.update(chunk)

        def hexdigest(self):
            return self.digest.hexdigest()

    monkeypatch.setattr(pipeline.retrieval, "_SLAB_BYTES", 64)
    monkeypatch.setattr(hashlib, "sha256", Counted)
    assert pipeline.sha256_file(path) == want
    assert reads == [64] * (size // 64) + [size % 64] * (size % 64 > 0)
