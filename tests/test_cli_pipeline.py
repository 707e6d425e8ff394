"""End-to-end CLI and pipeline behavior: artifacts, determinism, exit codes."""

import errno
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import tomllib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sei
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

    def test_run_starts_no_thread(self, tmp_path, monkeypatch):
        """``sei run`` works on the calling thread and in forked children only: with
        every thread start refused, it exits 0 and writes an unrefused run's bytes."""
        paths = write_pipeline_fixture(tmp_path)
        assert main(["run", "--config", str(paths["config"])]) == 0
        want = read_artifacts(paths["out_dir"])

        def refuse(thread):
            raise AssertionError(f"sei run started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(["run", "--config", str(paths["config"])]) == 0
        assert read_artifacts(paths["out_dir"]) == want

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

    def test_shc_rows_keep_their_layout(self, tmp_path):
        """Each shc.jsonl row is a study and its cases, each case an id, a float score
        and a factual sequence; scores do not rise down a row, and no row holds its
        own study."""
        paths = write_pipeline_fixture(tmp_path)
        patch_config(paths["config"], k=4)
        assert main(["run", "--config", str(paths["config"])]) == 0
        rows = [json.loads(line) for line in (paths["out_dir"] / "shc.jsonl").read_text().splitlines()]
        assert rows
        for row in rows:
            assert set(row) == {"study_id", "cases"}
            assert len(row["cases"]) == 4
            for case in row["cases"]:
                assert set(case) == {"study_id", "score", "factual_sequence"}
                assert isinstance(case["score"], float)
                assert case["study_id"] != row["study_id"]
            scores = [case["score"] for case in row["cases"]]
            assert scores == sorted(scores, reverse=True)

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

    @pytest.mark.parametrize(
        "exc, cause",
        [(KeyboardInterrupt(), "KeyboardInterrupt"), (MemoryError("no room"), "MemoryError: no room")],
        ids=["KeyboardInterrupt", "MemoryError"],
    )
    def test_other_exception_names_its_type_as_the_cause(self, tmp_path, monkeypatch, exc, cause):
        paths = write_pipeline_fixture(tmp_path)

        def fail(*args):
            raise exc

        stages = {**pipeline.STAGES, "normalize": replace(pipeline.STAGES["normalize"], fn=fail)}
        monkeypatch.setattr(pipeline, "STAGES", stages)
        with pytest.raises(type(exc)):
            run_pipeline(load_config(paths["config"]))
        manifest = failed_manifest(paths["out_dir"])
        assert (manifest["failed_stage"], manifest["cause"]) == ("normalize", cause)

    def test_missing_generated_path_rejected(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        raw = json.loads(paths["config"].read_text())
        del raw["paths"]["generated"]
        paths["config"].write_text(json.dumps(raw))
        cfg = load_config(paths["config"])
        with pytest.raises(ValidationError, match="paths.generated"):
            run_pipeline(cfg)
        assert not paths["out_dir"].exists()

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
        with pytest.raises(StageError, match=expected) as caught:
            run_pipeline(load_config(paths["config"]))
        manifest = failed_manifest(paths["out_dir"])
        assert manifest["failed_stage"] == "score"
        assert [s["name"] for s in manifest["stages"]] == list(STAGE_ORDER[:-1])  # attach-shc, fuse-demo done
        assert not (paths["out_dir"] / "scores.json").exists()
        if broken == "reference-labels14":
            # the cause is the text the CLI prints after "error: ", and a second failing run writes the same bytes
            assert manifest["cause"] == str(caught.value)
            assert manifest["cause"] == f"stage score: {paths['corpus']}: study 'st001' has no gold labels14"
            first = (paths["out_dir"] / "run_manifest.json").read_bytes()
            with pytest.raises(StageError, match=expected):
                run_pipeline(load_config(paths["config"]))
            assert (paths["out_dir"] / "run_manifest.json").read_bytes() == first

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

    def test_version_is_the_package_and_project_version(self):
        project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
        proc = run_cli("--version")
        assert proc.stdout.strip() == f"sei {sei.__version__}"
        assert project["project"]["version"] == sei.__version__

    def test_a_config_that_sets_jobs_exits_2_before_any_stage(self, tmp_path):
        """``jobs`` is no longer a config key: no stage read it."""
        paths = write_pipeline_fixture(tmp_path)
        patch_config(paths["config"], jobs=2)
        proc = run_cli("run", "--config", str(paths["config"]))
        assert proc.returncode == 2
        assert "unknown config key 'jobs'" in proc.stderr
        assert not paths["out_dir"].exists() or not any(paths["out_dir"].iterdir())

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

    def test_scores_json_holds_hand_values(self, tmp_path):
        """``sei filter`` then ``sei score`` on two studies worked out by hand (a third is filtered out)."""
        paths = write_pipeline_fixture(tmp_path, n=1)
        corpus = [
            {"study_id": "a", "findings": "The heart is normal.", "labels14": [0] * 14, "entities": [
                {"tokens": "heart", "label": "ANAT-DP", "start_ix": 1, "end_ix": 1},
                {"tokens": "normal", "label": "OBS-DA", "start_ix": 3, "end_ix": 3},
            ]},
            {"study_id": "b", "findings": "No effusion.", "labels14": [0] * 14, "entities": [
                {"tokens": "effusion", "label": "OBS-DA", "start_ix": 1, "end_ix": 1},
            ]},
            {"study_id": "c", "findings": "Clear.", "labels14": [0] * 14},  # 2 tokens: dropped
        ]
        # gold: a has Cardiomegaly (1) and Edema (4); b has Pleural Effusion (9).
        # predicted: a has Cardiomegaly and No Finding (13); b has Pleural Effusion and Edema.
        corpus[0]["labels14"][1] = corpus[0]["labels14"][4] = corpus[1]["labels14"][9] = 1
        pred = {"a": [0] * 14, "b": [0] * 14}
        pred["a"][1] = pred["a"][13] = pred["b"][9] = pred["b"][4] = 1
        generated = {"a": "The heart is enlarged.", "b": "No no effusion."}
        gen_entities = {
            "a": [{"tokens": "Heart", "label": "ANAT-DP"}, {"tokens": "enlarged", "label": "OBS-DP"}],
            "b": [{"tokens": "effusion", "label": "OBS-DA"}, {"tokens": "pleural", "label": "ANAT-DP"}],
        }
        paths["corpus"].write_text("".join(json.dumps(row) + "\n" for row in corpus))
        paths["generated"].write_text(
            "".join(json.dumps({"study_id": s, "text": t}) + "\n" for s, t in generated.items())
        )
        paths["generated_labels"].write_text(
            "study_id," + ",".join(f"l{i}" for i in range(1, 15)) + "\n"
            + "".join(f"{sid},{','.join(map(str, vec))}\n" for sid, vec in pred.items())
        )
        paths["generated_entities"].write_text(
            "".join(json.dumps({"study_id": s, "entities": e}) + "\n" for s, e in gen_entities.items())
        )
        patch_config(paths["config"], m_gt=[60, "cpl"])
        for stage in ("filter", "score"):
            proc = run_cli(stage, "--config", str(paths["config"]))
            assert proc.returncode == 0, proc.stderr
        # Tokens: a  the heart is enlarged .  /  the heart is normal .
        #         b  no no effusion .          /  no effusion .
        # Unigrams clipped 4/5 + 3/4 = 7/9 (b's second "no" is clipped), bigrams
        # 2/4 + 2/3 = 4/7; 9 generated tokens against 8 reference ones, so no
        # brevity penalty.  No 4-gram is shared.  LCS a: 4 of 5 and 5, so
        # F = 4/5; b: 3 of 4 and 3, so F = (1 + 1.44) * 1 * 3/4 / (1 + 1.44 * 3/4) = 183/208.
        # Labels, all 14: TP 2 (a:1, b:9), FP 2 (a:13, b:4), FN 1 (a:4); the
        # CX5 positions exclude a:13.  Entities: a shares heart of 2 and 2,
        # F = 1/2; b shares effusion of 2 and 1, F = 2/3.
        want = {
            "BL-2": math.sqrt(7 / 9 * 4 / 7),
            "BL-4": 0.0,
            "R_L": (4 / 5 + 183 / 208) / 2,
            "CX14": 2 * 2 / (2 * 2 + 2 + 1),
            "CX5": 2 * 2 / (2 * 2 + 1 + 1),
            "RG-F1": (1 / 2 + 2 / 3) / 2,
        }
        scores = json.loads((paths["out_dir"] / "scores.json").read_text())
        assert set(scores) == {"60", "cpl"}  # both references are shorter than 60 tokens
        for setting, report in scores.items():
            assert set(report) == set(want), setting
            for name, value in want.items():
                assert report[name] == pytest.approx(value, abs=1e-12), (setting, name)

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

    @pytest.mark.parametrize("b", [1, 4])
    def test_align_demo_prints_a_power_of_ten_at_or_above_the_error(self, monkeypatch, capsys, b):
        import sei.cli

        real, errors = sei.cli.max_fd_error, []

        def recorded(*args):
            errors.append(real(*args))
            return errors[-1]

        monkeypatch.setattr(sei.cli, "max_fd_error", recorded)
        assert main(["align-demo", "--b", str(b), "--d", "8", "--seed", "3"]) == 0
        printed = capsys.readouterr().out.splitlines()[-1].removeprefix("max_fd_rel_error: ")
        ((max_err, _),) = errors
        if max_err == 0:  # one study: every loss and gradient is 0
            assert printed == "0"
        else:
            assert re.fullmatch(r"1e[+-]\d\d+", printed), printed
            assert float(printed) / 10 < max_err <= float(printed)

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

    monkeypatch.setattr(pipeline, "_HASH_CHUNK_BYTES", 64)
    monkeypatch.setattr(hashlib, "sha256", Counted)
    assert pipeline.sha256_file(path) == want
    assert reads == [64] * (size // 64) + [size % 64] * (size % 64 > 0)
