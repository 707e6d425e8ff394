"""End-to-end CLI and pipeline behavior: artifacts, determinism, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sei import pipeline
from sei.pipeline import (
    STAGE_ORDER,
    load_config,
    run_pipeline,
)
from sei.errors import StageError, ValidationError

from conftest import write_pipeline_fixture

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
        cfg = load_config(paths["config"], {"k": 0})
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
        with pytest.raises(StageError, match="stage index"):
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
            load_config(paths["config"], {"m_gt": [42]})

    @pytest.mark.parametrize(
        "choices", [pipeline.M_GT_CHOICES, (60, 75, math.inf)], ids=["declared", "other"]
    )
    def test_invalid_m_gt_message_names_every_choice(self, tmp_path, monkeypatch, choices):
        paths = write_pipeline_fixture(tmp_path)
        monkeypatch.setattr(pipeline, "M_GT_CHOICES", choices)
        with pytest.raises(ValidationError) as err:
            load_config(paths["config"], {"m_gt": [42]})
        listed = str(err.value).split("one of ")[1].split(";")[0]
        assert listed.replace(" or ", " ").replace(",", "").split() == [pipeline.m_gt_key(c) for c in choices]

    def test_jobs_change_artifacts_not(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        run_pipeline(load_config(paths["config"], {"jobs": 1}))
        first = {name: (paths["out_dir"] / name).read_bytes() for name in ARTIFACT_NAMES}
        run_pipeline(load_config(paths["config"], {"jobs": 3}))
        second = {name: (paths["out_dir"] / name).read_bytes() for name in ARTIFACT_NAMES}
        assert first == second


class TestParseOnce:
    """One run parses the corpus and the embeddings file once each."""

    @pytest.fixture
    def parse_calls(self, monkeypatch):
        import sei.pipeline

        calls = {"load_corpus": 0, "load_embeddings": 0}
        for name in calls:
            real = getattr(sei.pipeline, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(sei.pipeline, name, counted)
        return calls

    def test_each_input_parsed_once(self, tmp_path, parse_calls):
        paths = write_pipeline_fixture(tmp_path)
        manifest = json.loads(run_pipeline(load_config(paths["config"])).read_text())
        assert manifest["status"] == "ok"
        assert parse_calls == {"load_corpus": 1, "load_embeddings": 1}

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
        assert parse_calls == {"load_corpus": 1, "load_embeddings": 1}


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
        out = tmp_path / "sequences.jsonl"
        proc = run_cli("see-extract", "--corpus", str(paths["corpus"]), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(set(row) == {"study_id", "factual_sequence"} for row in rows)

    def test_score_cli_matches_library(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        assert run_cli("run", "--config", str(paths["config"])).returncode == 0
        out = tmp_path / "one_score.json"
        proc = run_cli(
            "score",
            "--gen",
            str(paths["generated"]),
            "--ref",
            str(paths["out_dir"] / "normalized.jsonl"),
            "--labels",
            str(paths["generated_labels"]),
            "--entities",
            str(paths["generated_entities"]),
            "--mgt",
            "60",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        standalone = json.loads(out.read_text())
        pipeline_scores = json.loads((paths["out_dir"] / "scores.json").read_text())
        assert standalone == pipeline_scores["60"]

    def test_validation_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"study_id": "a", "findings": "x.", "entities": '
            '[{"tokens": "x", "label": "OBS-XX", "start_ix": 0, "end_ix": 0}]}\n'
        )
        proc = run_cli("see-extract", "--corpus", str(bad), "--out", str(tmp_path / "o.jsonl"))
        assert proc.returncode == 2
        assert "OBS-XX" in proc.stderr

    def test_io_error_exit_3(self, tmp_path):
        proc = run_cli(
            "see-extract", "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 3

    def test_filter_cli(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        out = tmp_path / "kept.jsonl"
        dropped = tmp_path / "dropped.jsonl"
        proc = run_cli(
            "filter",
            "--corpus",
            str(paths["corpus"]),
            "--out",
            str(out),
            "--dropped",
            str(dropped),
            "--junk",
            "is subnitted",
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists() and dropped.exists()

    def test_normalize_cli(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        out = tmp_path / "normalized.jsonl"
        proc = run_cli("normalize", "--corpus", str(paths["corpus"]), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        by_id = {row["study_id"]: row["indication"] for row in rows}
        assert by_id["st000"] == "62 woman with cough fever"

    def test_fuse_demo_branches(self):
        proc = run_cli("fuse-demo", "--d", "8", "--heads", "2", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        assert "branch: full" in proc.stdout
        proc = run_cli("fuse-demo", "--no-shc", "--no-indication")
        assert "branch: image_only" in proc.stdout

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
        out = tmp_path / "idx.bin"
        proc = run_cli("index", "--embeddings", str(paths["embeddings"]), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        from sei.retrieval import load_index

        index = load_index(out)
        assert index.n == 10
        assert index.normalized
