"""Malformed inputs fail by name, config typos fail loudly, writes are atomic."""

import io
import json
import math
import os
import resource
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sei import pipeline, retrieval
from sei.cli import main
from sei.corpus import CorpusFilterConfig, atomic_write, load_corpus, save_corpus
from sei.errors import CorpusError, ValidationError
from sei.indications import NormalizerConfig
from sei.pipeline import STAGE_ORDER, STAGES, PathsConfig, load_config, run_pipeline
from sei.retrieval import attach_shc, index_from_vectors

from conftest import make_record, patch_config, write_pipeline_fixture, write_study_fixture


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "sei", *args], capture_output=True, text=True, **kwargs
    )


def run_stages(config: Path, *stages: str) -> None:
    """Run each of ``stages`` from ``config`` in this process; each must succeed."""
    for stage in stages:
        with redirect_stdout(io.StringIO()):
            assert main([stage, "--config", str(config)]) == 0, stage


def assert_clean_exit_2(proc, *needles):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    for needle in needles:
        assert needle in proc.stderr


class TestCliMalformedInput:
    def test_filter_config_bad_json(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        text = paths["config"].read_text()
        line = text[: text.index('"junk_patterns"')].count("\n") + 1
        paths["config"].write_text(text.replace('"junk_patterns": [', '"junk_patterns": [}', 1))
        proc = run_cli("filter", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, str(paths["config"]), f"line {line}")
        assert not paths["out_dir"].exists()

    def test_filter_config_unknown_key(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        patch_config(paths["config"], filter={"min_token": 3})
        proc = run_cli("filter", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, "filter.min_token")

    def _attach_inputs(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        patch_config(paths["config"], k=2)
        run_stages(paths["config"], *STAGE_ORDER)
        return paths, paths["out_dir"] / "sequences.jsonl"

    def _attach(self, paths):
        """``sei attach-shc``, which must leave the run's shc.jsonl as it was and no .tmp file."""
        shc = paths["out_dir"] / "shc.jsonl"
        before = shc.read_bytes()
        proc = run_cli("attach-shc", "--config", str(paths["config"]))
        assert shc.read_bytes() == before
        assert not [p for p in os.listdir(paths["out_dir"]) if p.endswith(".tmp")]
        return proc

    def test_attach_sequences_bad_jsonl_line(self, tmp_path):
        paths, sequences = self._attach_inputs(tmp_path)
        lines = sequences.read_text().splitlines()
        lines[3] = lines[3][:-5]
        sequences.write_text("\n".join(lines) + "\n")
        proc = self._attach(paths)
        assert_clean_exit_2(proc, str(sequences), "line 4")

    def test_attach_study_without_embedding(self, tmp_path):
        paths, sequences = self._attach_inputs(tmp_path)
        lines = paths["embeddings"].read_text().splitlines()
        paths["embeddings"].write_text("".join(line + "\n" for line in lines if '"st003"' not in line))
        proc = self._attach(paths)
        assert_clean_exit_2(proc, "study 'st003' has no embedding")

    def test_attach_sequences_missing_retrieved_id(self, tmp_path):
        paths, sequences = self._attach_inputs(tmp_path)
        rows = [json.loads(line) for line in sequences.read_text().splitlines()]
        sequences.write_text("".join(json.dumps(row) + "\n" for row in rows[1:]))
        proc = self._attach(paths)
        assert_clean_exit_2(proc, repr(rows[0]["study_id"]))

    @pytest.mark.parametrize(
        "line, normalize, needles",
        [
            (b'{"study_id": "b", "vec": [1.0, "x"]}', True, ("{emb}", "line 2", "'vec'")),
            (b'{"study_id": "b", "vec": [NaN, 1.0]}', True, ("{emb}", "line 2", "'vec'")),
            (b'{"study_id": "b", "vec": [Infinity, 1.0]}', False, ("{emb}", "line 2", "'vec'")),
            (b'{"study_id": "b", "vec": [-Infinity, 1.0]}', True, ("{emb}", "line 2", "'vec'")),
            (b'{"study_id": "b\xff", "vec": [1.0, 1.0]}', True, ("{emb}", "line 2", "UTF-8")),
            # finite, but the norm overflows float64 / the value overflows float32
            (b'{"study_id": "b", "vec": [1e300, 1.0]}', True, ("study 'b'", "norm overflows")),
            (b'{"study_id": "b", "vec": [1e300, 1.0]}', False, ("study 'b'", "float32")),
            (b'{"study_id": "b", "vec": [1e39, 1.0]}', False, ("study 'b'", "float32")),
        ],
        ids=[
            "non-numeric", "nan", "infinity", "minus-infinity", "invalid-utf8",
            "norm-overflow", "float32-overflow", "float32-overflow-small",
        ],
    )
    def test_index_non_numeric_vector_entry(self, tmp_path, line, normalize, needles):
        paths = write_study_fixture(
            tmp_path, b'{"study_id": "a", "vec": [1.0, 2.0]}\n' + line + b"\n", index_normalize=normalize
        )
        run_stages(paths["config"], "filter", "normalize")
        proc = run_cli("index", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, *(needle.format(emb=paths["embeddings"]) for needle in needles))
        assert "Warning" not in proc.stderr
        assert not (paths["out_dir"] / "index.bin").exists()

    def test_crlf_embeddings_index_like_lf(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        run_stages(paths["config"], "filter", "normalize", "index")
        lf = (paths["out_dir"] / "index.bin").read_bytes()
        paths["embeddings"].write_bytes(paths["embeddings"].read_bytes().replace(b"\n", b"\r\n"))
        assert run_cli("index", "--config", str(paths["config"])).returncode == 0
        assert (paths["out_dir"] / "index.bin").read_bytes() == lf

    def test_score_labels_invalid_utf8(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        run_stages(paths["config"], "filter")
        labels = paths["generated_labels"].read_bytes().split(b"\n")
        labels[2] = b"\xff" + labels[2]
        paths["generated_labels"].write_bytes(b"\n".join(labels))
        proc = run_cli("score", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, str(paths["generated_labels"]), "line 3", "UTF-8")

    @pytest.mark.parametrize("cell", [" 1", "+1", "01", "1.0", "1 ", "true", "2"])
    def test_score_label_cell_not_exactly_0_or_1(self, tmp_path, capsys, cell):
        paths = write_pipeline_fixture(tmp_path)
        labels = paths["generated_labels"].read_text().splitlines()
        cells = labels[2].split(",")
        cells[1] = cell
        labels[2] = ",".join(cells)
        paths["generated_labels"].write_text("\n".join(labels) + "\n")
        run_stages(paths["config"], "filter")
        assert main(["score", "--config", str(paths["config"])]) == 2
        assert f"{paths['generated_labels']}: line 3: labels14 entries must be 0 or 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, reason",
        [
            (lambda cells: cells[:-1], "labels14 has 13 entries, expected 14"),
            (lambda cells: [], "labels14 has 0 entries, expected 14"),
        ],
        ids=["13-labels", "blank-row"],
    )
    def test_score_label_row_not_14_labels(self, tmp_path, capsys, row, reason):
        paths = write_pipeline_fixture(tmp_path)
        labels = paths["generated_labels"].read_text().splitlines()
        labels[2] = ",".join(row(labels[2].split(",")))
        paths["generated_labels"].write_text("\n".join(labels) + "\n")
        run_stages(paths["config"], "filter")
        assert main(["score", "--config", str(paths["config"])]) == 2
        assert f"{paths['generated_labels']}: line 3: {reason}" in capsys.readouterr().err

    def test_run_config_invalid_utf8(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        raw = paths["config"].read_bytes()
        paths["config"].write_bytes(raw.replace(b'"seed"', b'"s\xffeed"', 1))
        line = raw[: raw.index(b'"seed"')].count(b"\n") + 1
        proc = run_cli("run", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, str(paths["config"]), f"line {line}", "UTF-8")

    def test_retrieve_index_id_invalid_utf8(self, tmp_path):
        paths = write_study_fixture(
            tmp_path, b'{"study_id": "a", "vec": [1.0, 2.0]}\n{"study_id": "b", "vec": [2.0, 1.0]}\n'
        )
        run_stages(paths["config"], "filter", "normalize", "index")
        index = paths["out_dir"] / "index.bin"
        blob = index.read_bytes()
        at = blob.index(b"a", 17)  # after the header, the first id's bytes
        index.write_bytes(blob[:at] + b"\xff" + blob[at + 1 :])
        proc = run_cli("retrieve", "--index", str(index), "--query-id", "b")
        assert_clean_exit_2(proc, str(index), "UTF-8")

    @pytest.mark.parametrize(
        "patch, needle",
        [
            ({"labels14": "abc"}, "labels14"),
            ({"labels14": 5}, "labels14"),
            ({"entity": {"start_ix": "zero"}}, "start_ix"),
            ({"entity": {"end_ix": "zero"}}, "end_ix"),
            ({"entities": 5}, "entities"),
            ({"entities": [5]}, "entity 5"),
            ({"findings": None}, "'findings'"),
            ({"findings": ["lungs", "clear"]}, "'findings'"),
            ({"indication": 5}, "'indication'"),
            ({"entity": {"tokens": 5}}, "'tokens'"),
            ({"entity": {"label": None}}, "'label'"),
        ],
    )
    def test_see_extract_wrong_typed_corpus_field(self, tmp_path, patch, needle):
        paths = write_pipeline_fixture(tmp_path)
        run_stages(paths["config"], "filter")
        filtered = paths["out_dir"] / "filtered.jsonl"
        rows = [json.loads(line) for line in filtered.read_text().splitlines()]
        patch = dict(patch)
        rows[2]["entities"][0].update(patch.pop("entity", {}))
        rows[2].update(patch)
        filtered.write_text("".join(json.dumps(row) + "\n" for row in rows))
        proc = run_cli("see-extract", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, str(filtered), "line 3", needle)
        assert not (paths["out_dir"] / "sequences.jsonl").exists()

    @pytest.mark.parametrize(
        "second_id, entities, needle",
        [
            pytest.param("st001", 5, "'entities'", id="5-'entities'"),
            pytest.param("st001", [5], "'tokens'", id="entities1-'tokens'"),
            pytest.param("st001", [{"tokens": "x", "label": "BAD"}], "'BAD'", id="entities2-'BAD'"),
            pytest.param("st001", [{"tokens": 5, "label": "OBS-DP"}], "'tokens'", id="tokens-not-a-string"),
            pytest.param("st001", [{"tokens": "x", "label": 5}], "'label'", id="label-not-a-string"),
            pytest.param("st000", [], "duplicate study_id 'st000'", id="duplicate-id"),
        ],
    )
    def test_score_malformed_entities_file(self, tmp_path, second_id, entities, needle):
        paths = write_pipeline_fixture(tmp_path)
        run_stages(paths["config"], "filter")
        bad = paths["generated_entities"]
        rows = [{"study_id": "st000", "entities": []}, {"study_id": second_id, "entities": entities}]
        bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
        proc = run_cli("score", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, str(bad), "line 2", needle)


    @pytest.mark.parametrize("text", [None, ["lungs", "clear"], 5], ids=["null", "list", "number"])
    def test_score_generated_text_not_a_string(self, tmp_path, text):
        paths = write_pipeline_fixture(tmp_path)
        rows = [json.loads(line) for line in paths["generated"].read_text().splitlines()]
        rows[1]["text"] = text
        paths["generated"].write_text("".join(json.dumps(row) + "\n" for row in rows))
        run_stages(paths["config"], "filter")
        proc = run_cli("score", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, str(paths["generated"]), "line 2", "'text'")
        assert not (paths["out_dir"] / "scores.json").exists()

    def test_attach_sequence_not_a_string(self, tmp_path):
        paths, sequences = self._attach_inputs(tmp_path)
        rows = [json.loads(line) for line in sequences.read_text().splitlines()]
        rows[2]["factual_sequence"] = None
        sequences.write_text("".join(json.dumps(row) + "\n" for row in rows))
        proc = self._attach(paths)
        assert_clean_exit_2(proc, str(sequences), "line 3", "'factual_sequence'")


def _edit_row(path: Path, i: int, edit) -> None:
    """Apply ``edit`` to the parsed row on line ``i + 1`` of the JSONL file at ``path``."""
    lines = path.read_text().splitlines()
    row = json.loads(lines[i])
    edit(row)
    lines[i] = json.dumps(row)
    path.write_text("".join(line + "\n" for line in lines))


def _drop_line(path: Path, i: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:i] + lines[i + 1 :]))


def _blank_first_line(path: Path) -> None:
    path.write_text("\n" + path.read_text())


# (argv, what to break in a fresh write_pipeline_fixture, what stderr must hold); argv and needles are
# formatted with the fixture's paths.  No other test reaches these error branches.  A corpus row's second
# entity starts in its second sentence, past word 0.
RUN = ("run", "--config", "{config}")
MALFORMED_INPUTS = {
    "entity-negative-start": (
        RUN, lambda p: _edit_row(p["corpus"], 1, lambda row: row["entities"][1].update(start_ix=-1)),
        ("{corpus}: line 2: entity ", "start_ix -1 is negative"),
    ),
    "entity-end-before-start": (
        RUN, lambda p: _edit_row(p["corpus"], 1, lambda row: row["entities"][1].update(end_ix=0)),
        ("{corpus}: line 2: entity ", "end_ix 0 precedes start_ix"),
    ),
    "config-top-level-list": (RUN, lambda p: p["config"].write_text("[]\n"), ("{config}: expected a JSON object",)),
    "embedding-401-digit-integer": (
        RUN, lambda p: _edit_row(p["embeddings"], 1, lambda row: row.update(vec=[10**400] + row["vec"][1:])),
        ("{embeddings}: line 2: field 'vec' holds an integer too large for a float",),
    ),
    "retrieve-unknown-query-id": (
        ("retrieve", "--index", "{out_dir}/index.bin", "--query-id", "nope"),
        lambda p: run_stages(p["config"], "filter", "normalize", "index"),
        ("study 'nope' is not in the index",),
    ),
    "align-demo-tau-0": (("align-demo", "--tau", "0"), None, ("temperature must be finite and positive, got 0.0",)),
    "align-demo-tau-nan": (("align-demo", "--tau", "nan"), None, ("temperature must be finite and positive, got nan",)),
    "align-demo-b-0": (("align-demo", "--b", "0"), None, ("batch must contain at least one study",)),
    "generated-empty": (
        RUN, lambda p: p["generated"].write_text(""), ("{generated}: no generated reports match the reference corpus",)
    ),
    "generated-entities-missing-id": (
        RUN, lambda p: _drop_line(p["generated_entities"], 2),
        ("{generated_entities}: study 'st002' has no generated entity set",),
    ),
    "empty-junk-pattern": (
        RUN, lambda p: patch_config(p["config"], filter={"junk_patterns": [""]}),
        ("config section 'filter': junk_patterns must be non-empty strings",),
    ),
    "run-label-csv-blank-first-line": (
        RUN, lambda p: _blank_first_line(p["generated_labels"]),
        ("stage score: {generated_labels}: expected header study_id,l1..l14",),
    ),
    "score-label-csv-blank-first-line": (
        ("score", "--config", "{config}"),
        lambda p: (run_stages(p["config"], "filter"), _blank_first_line(p["generated_labels"])),
        ("{generated_labels}: expected header study_id,l1..l14",),
    ),
}


@pytest.mark.parametrize("argv, breakage, needles", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exits_2_with_one_error_line(tmp_path, argv, breakage, needles):
    paths = write_pipeline_fixture(tmp_path)
    if breakage is not None:
        breakage(paths)
    proc = run_cli(*(arg.format(**paths) for arg in argv))
    assert_clean_exit_2(proc, *(needle.format(**paths) for needle in needles))
    assert proc.stderr.count("error:") == 1


def test_blank_and_whitespace_corpus_lines_are_skipped(tmp_path):
    """Blank and whitespace-only corpus lines change no artifact but the manifest, which hashes the corpus."""
    paths = write_pipeline_fixture(tmp_path)
    out = paths["out_dir"]
    run_stages(paths["config"], "run")
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}
    lines = paths["corpus"].read_text().splitlines(keepends=True)
    blanks = ["  \t\n", "\r\n"] * len(lines)
    paths["corpus"].write_text("\n" + "".join(line + blank for line, blank in zip(lines, blanks)))
    run_stages(paths["config"], "run")
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"} == before


# JSON that json.loads rejects with something other than a JSONDecodeError:
# an integer literal past Python's 4,300-digit limit, and arrays nested past the recursion limit
BIG_INT = "7" * 5_000
DEEP = "[" * 100_000
JSON_LIMITS = pytest.mark.parametrize(
    "literal, reason", [(BIG_INT, "too many digits"), (DEEP, "nested too deeply")], ids=["big-int", "deep"]
)


class TestJsonLimits:
    """Every reader turns what ``json.loads`` raises into exit 2 naming the file, and the line for JSONL."""

    @JSON_LIMITS
    def test_corpus_line(self, tmp_path, literal, reason):
        paths = write_pipeline_fixture(tmp_path)
        rows = paths["corpus"].read_text().splitlines()
        rows[1] = rows[1].replace('"labels14": [', f'"labels14": [{literal}, ', 1)
        paths["corpus"].write_text("\n".join(rows) + "\n")
        proc = run_cli("filter", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, f"{paths['corpus']}: line 2: invalid JSON", reason)
        assert not (paths["out_dir"] / "filtered.jsonl").exists()

    @JSON_LIMITS
    def test_run_config(self, tmp_path, literal, reason):
        paths = write_pipeline_fixture(tmp_path)
        paths["config"].write_text(paths["config"].read_text().replace('"seed": 7', f'"seed": {literal}', 1))
        proc = run_cli("run", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, f"{paths['config']}: invalid JSON", reason)

    def test_run_with_a_nested_embeddings_line_fails_the_index_stage(self, tmp_path):
        """The embeddings parse runs in a forked child; its error still reaches the stage and the manifest."""
        paths = write_pipeline_fixture(tmp_path)
        rows = paths["embeddings"].read_text().splitlines()
        rows[2] = DEEP
        paths["embeddings"].write_text("\n".join(rows) + "\n")
        proc = run_cli("run", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, f"stage index: {paths['embeddings']}: line 3: invalid JSON (nested too deeply)")
        manifest = json.loads((paths["out_dir"] / "run_manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "index")


class TestLoneSurrogateId:
    """A study_id holding a lone surrogate cannot go into the index file's UTF-8 id table."""

    def _with_surrogate_id(self, path: Path, line: int) -> None:
        rows = path.read_text().splitlines()
        row = json.loads(rows[line - 1])
        row["study_id"] = "st\ud800"
        rows[line - 1] = json.dumps(row)  # ensure_ascii writes the surrogate as the escape \ud800
        path.write_text("\n".join(rows) + "\n")

    def test_index(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        run_stages(paths["config"], "filter", "normalize")
        self._with_surrogate_id(paths["embeddings"], 3)
        proc = run_cli("index", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, f"{paths['embeddings']}: line 3: field 'study_id'", "lone surrogate")
        assert not (paths["out_dir"] / "index.bin").exists()

    def test_run(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        self._with_surrogate_id(paths["embeddings"], 3)
        proc = run_cli("run", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, f"stage index: {paths['embeddings']}: line 3:", "lone surrogate")
        manifest = json.loads((paths["out_dir"] / "run_manifest.json").read_text())
        assert manifest["failed_stage"] == "index"

    def test_corpus(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        self._with_surrogate_id(paths["corpus"], 2)
        proc = run_cli("filter", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, f"{paths['corpus']}: line 2: field 'study_id'", "lone surrogate")


class TestLoadIndexNamesTheFile:
    """Each check ``load_index`` makes of a well-formed file's content names the file too."""

    def _index(self, tmp_path, vectors: str, normalize: bool = True) -> tuple[Path, bytes]:
        emb = "".join(f'{{"study_id": "{sid}", "vec": {vec}}}\n' for sid, vec in zip("abc", vectors.split(";")))
        paths = write_study_fixture(tmp_path, emb.encode(), ids="abc", index_normalize=normalize)
        run_stages(paths["config"], "filter", "normalize", "index")
        index = paths["out_dir"] / "index.bin"
        return index, index.read_bytes()

    def _retrieve(self, index: Path):
        return run_cli("retrieve", "--index", str(index), "--query-id", "a", "--k", "2")

    def test_rows_no_longer_unit_length(self, tmp_path):
        index, blob = self._index(tmp_path, "[1.0, 0.0];[0.0, 1.0];[0.6, 0.8]")
        last = struct.unpack_from("<f", blob, len(blob) - 4)[0]
        index.write_bytes(blob[:-4] + struct.pack("<f", 2 * last))
        assert_clean_exit_2(self._retrieve(index), f"{index}: index flagged normalized but rows are not unit length")

    def test_repeated_id(self, tmp_path):
        index, blob = self._index(tmp_path, "[1.0, 0.0];[0.0, 1.0];[0.6, 0.8]")
        index.write_bytes(blob.replace(b"\x01\x00\x00\x00b", b"\x01\x00\x00\x00a", 1))
        assert_clean_exit_2(self._retrieve(index), f"{index}: duplicate study_id 'a' in index")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_in_an_unnormalized_index(self, tmp_path, bad):
        index, blob = self._index(tmp_path, "[1.0, 2.0];[3.0, 4.0];[5.0, 6.0]", normalize=False)
        index.write_bytes(blob[:-8] + struct.pack("<f", bad) + blob[-4:])
        proc = self._retrieve(index)
        assert_clean_exit_2(proc, f"{index}: index matrix contains non-finite values")
        assert proc.stdout == ""


class TestNegativeSizes:
    """A negative seed, size or count exits 2 naming its key or flag, never with a traceback."""

    # (config patch, what stderr must hold); a value a section's own checks reject is named with the section
    CONFIG_ROWS = [
        ({"seed": -1}, ("seed",)),
        ({"fusion": {"sh": -1}}, ("sh", "config section 'fusion': ")),
        ({"m_gt": [60.5]}, ("m_gt",)),
        ({"tau": math.nan}, ("config key 'tau' must be a finite number",)),
        ({"fusion": {"heads": 3}}, ("n_heads 3 does not divide feature width 8", "config section 'fusion': ")),
        ({"fusion": {"d": 0}}, ("d must be >= 1, got 0", "config section 'fusion': ")),
        ({"fusion": {"si": -2}}, ("si", "config section 'fusion': ")),
        ({"fusion": {"sn": -1}}, ("sn", "config section 'fusion': ")),
        ({"m_gt": []}, ("m_gt",)),
    ]
    CONFIG_IDS = [
        "seed", "fusion-sh", "fractional-m_gt", "tau-nan", "fusion-heads", "fusion-d", "fusion-si", "fusion-sn",
        "empty-m_gt",
    ]

    @pytest.mark.parametrize("patch, needles", CONFIG_ROWS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("command", ["run", "fuse-demo"])
    def test_run_rejects_before_any_stage(self, tmp_path, command, patch, needles):
        """``sei run`` and the fuse-demo stage alone reject the value before anything is written."""
        paths = write_pipeline_fixture(tmp_path)
        patch_config(paths["config"], **patch)
        proc = run_cli(command, "--config", str(paths["config"]))
        assert_clean_exit_2(proc, *needles)
        assert proc.stderr.count("error:") == 1
        assert not paths["out_dir"].exists()

    @pytest.mark.parametrize(
        "args, needle",
        [
            (("align-demo", "--seed", "-3"), "seed"),
            (("align-demo", "--b", "-1"), "b must be"),
            (("align-demo", "--d", "-1"), "d must be >= 1, got -1"),
            (("align-demo", "--d", "0"), "d must be >= 1, got 0"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
    )
    def test_demo_flags(self, args, needle):
        proc = run_cli(*args)
        assert_clean_exit_2(proc, needle)
        assert proc.stderr.count("error:") == 1


class TestAllocationTooLarge:
    """An array no machine can hold exits 3 with one ``error:`` line, never a traceback.

    Each asks for at least 2**48 bytes, past a 47-bit user address space, so
    malloc refuses it under any overcommit setting without touching memory.
    """

    @staticmethod
    def assert_out_of_memory(proc):
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("error:") == 1
        assert proc.stderr.startswith("error: out of memory: ")

    def test_run(self, tmp_path):
        """The fuse-demo stage's image features, 10**15 rows of width 8, are 2**55.8 bytes."""
        paths = write_pipeline_fixture(tmp_path)
        patch_config(paths["config"], fusion={"si": 10**15, "d": 8})
        self.assert_out_of_memory(run_cli("run", "--config", str(paths["config"])))
        manifest = json.loads((paths["out_dir"] / "run_manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "fuse-demo")
        assert "MemoryError: " in manifest["cause"]

    def test_align_demo(self):
        """One feature row of width 10**15 is 2**52.8 bytes."""
        self.assert_out_of_memory(run_cli("align-demo", "--b", "1", "--d", str(10**15)))


class TestUnaddressableSize:
    """A size whose float64 array numpy cannot address exits 2 naming the sizes, never with a traceback."""

    @pytest.mark.parametrize(
        "fusion, needle",
        [
            ({"si": 10**18}, "image of shape (1000000000000000000, 8) is past numpy's limit"),
            ({"d": 10**10, "heads": 1}, "ff1 of shape (10000000000, 40000000000) is past numpy's limit"),
        ],
        ids=["fusion-si", "fusion-d"],
    )
    @pytest.mark.parametrize("command", ["run", "fuse-demo"])
    def test_config(self, tmp_path, command, fusion, needle):
        paths = write_pipeline_fixture(tmp_path)
        patch_config(paths["config"], fusion=fusion)
        proc = run_cli(command, "--config", str(paths["config"]))
        assert_clean_exit_2(proc, "config section 'fusion': ", needle)
        assert proc.stderr.count("error:") == 1
        assert not paths["out_dir"].exists()

    @pytest.mark.parametrize(
        "args, shape",
        [
            (("--d", str(10**10), "--b", str(10**10)), (10**10, 3, 10**10)),
            (("--d", str(10**20)), (4, 3, 10**20)),
            (("--d", str(10**20), "--b", "0"), (0, 3, 10**20)),  # no bytes, but a size numpy cannot hold
        ],
        ids=["b-and-d", "d-past-intp", "empty-b"],
    )
    def test_align_demo(self, args, shape):
        proc = run_cli("align-demo", *args)
        assert_clean_exit_2(proc, f"image_locals of shape {shape} is past numpy's limit")
        assert proc.stderr.count("error:") == 1


def test_run_without_generated_reports_writes_nothing(tmp_path):
    """``sei run`` rejects a config without ``paths.generated``, which its score stage reads, before any
    stage; every stage but score still runs alone without it, and score alone exits 2 writing nothing."""
    paths = write_pipeline_fixture(tmp_path)
    raw = json.loads(paths["config"].read_text())
    for name in ("generated", "generated_labels", "generated_entities"):
        del raw["paths"][name]
    paths["config"].write_text(json.dumps(raw))
    proc = run_cli("run", "--config", str(paths["config"]))
    assert_clean_exit_2(proc, "paths.generated")
    assert proc.stderr.count("error:") == 1
    assert not paths["out_dir"].exists()
    run_stages(paths["config"], *(stage for stage in STAGE_ORDER if stage != "score"))
    proc = run_cli("score", "--config", str(paths["config"]))
    assert_clean_exit_2(proc, "score stage requires paths.generated in the config")
    assert proc.stderr.count("error:") == 1
    assert not (paths["out_dir"] / "scores.json").exists()


@pytest.mark.parametrize("missing", ["corpus", "embeddings", "generated"])
def test_run_with_a_missing_input_makes_no_out_dir(tmp_path, missing):
    """``sei run`` checks that every input file exists before it makes ``paths.out_dir``."""
    paths = write_pipeline_fixture(tmp_path)
    paths[missing].unlink()
    proc = run_cli("run", "--config", str(paths["config"]))
    assert_clean_exit_2(proc, f"input file {paths[missing]} does not exist")
    assert proc.stderr.count("error:") == 1
    assert not paths["out_dir"].exists()


def test_attach_shc_missing_sequence_names_id(rng):
    embeddings = index_from_vectors(["s0", "s1", "s2"], rng.standard_normal((3, 3)), normalize=False)
    index = index_from_vectors(embeddings.ids, embeddings.matrix)
    with pytest.raises(ValidationError, match="'s2'"):
        attach_shc(embeddings.ids, index, 2, embeddings, sequences={"s0": "x", "s1": "y"})


def shc_inputs(indexed: dict, queries: dict, order) -> tuple:
    """The normalized index over ``indexed``, the raw embeddings ``queries`` and the study ids in ``order``."""
    index = index_from_vectors(list(indexed), list(indexed.values()))
    embeddings = index_from_vectors(list(queries), list(queries.values()), normalize=False)
    return index, embeddings, list(order)


class TestAttachShcErrorOrder:
    """With two faults, attach_shc raises the one a record-at-a-time scan meets first,
    whether both records share a query block or the block holds one record; the
    messages are the ones the record-at-a-time code raised.  No raise leaves a
    scoring thread running."""

    # a's best hit is b, which has no sequence; z is not indexed; c's query has zero norm
    INDEXED = {"a": (1.0, 0.0), "b": (0.9, 0.1), "c": (0.0, 1.0)}
    QUERIES = {"a": (1.0, 0.0), "b": (0.9, 0.1), "c": (0.0, 0.0), "z": (1.0, 1.0)}

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize(
        "order, message",
        [
            (("a", "z"), "no factual sequence for retrieved study 'b'"),
            (("z", "a"), "study 'z' is not indexed"),
            (("a", "c"), "no factual sequence for retrieved study 'b'"),
            (("c",), "cannot normalize a zero-norm query"),
        ],
        ids=[
            "missing-sequence-then-unindexed",
            "unindexed-then-missing-sequence",
            "missing-sequence-then-zero-norm",
            "zero-norm-alone",
        ],
    )
    def test_first_fault_in_record_order(self, monkeypatch, block, order, message):
        if block is not None:
            monkeypatch.setattr(retrieval, "_QUERY_BLOCK", block)
        index, embeddings, ids = shc_inputs(self.INDEXED, self.QUERIES, order)
        before = threading.active_count()
        with pytest.raises(ValidationError) as excinfo:
            attach_shc(ids, index, 1, embeddings, sequences={"a": "x", "c": "z"})
        assert str(excinfo.value) == message
        assert threading.active_count() == before

    @pytest.mark.parametrize("order", [(), ("z",)], ids=["no-records", "unindexed-record"])
    def test_negative_k_is_checked_before_any_record(self, order):
        index, embeddings, ids = shc_inputs(self.INDEXED, self.QUERIES, order)
        with pytest.raises(ValidationError, match=r"^k must be >= 0, got -1$"):
            attach_shc(ids, index, -1, embeddings, {})

    @pytest.mark.parametrize("failing", [0, 1])
    def test_scoring_error_comes_out_unchanged(self, monkeypatch, failing):
        """A scoring error in one record's block comes out of attach_shc as is, after
        the records before it are finished and before any later record is looked at."""
        vectors = {f"s{i}": (float(i + 1), float(12 - i)) for i in range(12)}
        index, embeddings, ids = shc_inputs(vectors, vectors, ["s0", "s1", "s2"])
        boom = MemoryError("no room for scores")
        scoring = retrieval._block_hits

        def kernel(index, queries, *args):
            if np.allclose(queries[0], index.matrix[failing]):
                raise boom
            return scoring(index, queries, *args)

        looked_up = []

        class Sequences(dict):
            def __contains__(self, sid):
                looked_up.append(sid)
                return super().__contains__(sid)

        monkeypatch.setattr(retrieval, "_QUERY_BLOCK", 1)
        monkeypatch.setattr(retrieval, "_SLAB_BYTES", 4 * 2 * 8)  # three slabs of 4 rows
        monkeypatch.setattr(retrieval, "_block_hits", kernel)
        before = threading.active_count()
        with pytest.raises(MemoryError) as excinfo:
            attach_shc(ids, index, 1, embeddings, sequences=Sequences.fromkeys(vectors, ""))
        assert excinfo.value is boom
        assert threading.active_count() == before
        assert len(looked_up) == failing  # the one hit of each record before the failing one

    def test_error_in_record_0_cancels_the_later_blocks(self, monkeypatch):
        """A check error in the first block stops attach_shc before any block is
        scored, and no thread outlives the call."""
        vectors = {f"s{i}": (float(i + 1), float(200 - i)) for i in range(200)}
        index, embeddings, ids = shc_inputs(vectors, {"z": (1.0, 1.0), **vectors}, ["z", *list(vectors)[1:]])
        scoring = retrieval._block_hits
        calls = []

        def kernel(index, queries, *args):
            calls.append(len(queries))
            return scoring(index, queries, *args)

        monkeypatch.setattr(retrieval, "_QUERY_BLOCK", 1)
        monkeypatch.setattr(retrieval, "_block_hits", kernel)
        before = threading.active_count()
        with pytest.raises(ValidationError, match="study 'z' is not indexed"):
            attach_shc(ids, index, 1, embeddings, sequences=dict.fromkeys(vectors, ""))
        assert calls == []
        assert threading.active_count() == before


@pytest.mark.parametrize("key", [f.name for f in fields(PathsConfig)])
def test_a_nul_in_a_config_path_exits_2_before_any_stage(tmp_path, capsys, key):
    paths = write_pipeline_fixture(tmp_path)
    patch_config(paths["config"], paths={key: "o\u0000ut"})
    assert main(["run", "--config", str(paths["config"])]) == 2
    assert capsys.readouterr().err == f"error: config key 'paths.{key}' must not contain a NUL character\n"
    assert not paths["out_dir"].exists()


# Each set of strings a config section holds, with its section and dataclass.
STRING_SETS = {
    "junk_patterns": ("filter", CorpusFilterConfig),
    "illegal_chars": ("normalizer", NormalizerConfig),
    "invalid_words": ("normalizer", NormalizerConfig),
    "male_terms": ("normalizer", NormalizerConfig),
    "female_terms": ("normalizer", NormalizerConfig),
}


class TestBlankStringSetEntry:
    """An empty or whitespace-only entry in any config string set is rejected by one rule."""

    @pytest.mark.parametrize("blank", ["", " ", "\t\n"], ids=["empty", "space", "tab-newline"])
    @pytest.mark.parametrize("key", STRING_SETS)
    def test_dataclass(self, key, blank):
        _, cls = STRING_SETS[key]
        kind = type(getattr(cls(), key))  # a tuple or a frozenset
        with pytest.raises(ValidationError) as excinfo:
            cls(**{key: kind((blank, "zz"))})
        assert str(excinfo.value) == f"{key} must be non-empty strings"

    @pytest.mark.parametrize("blank", ["", " "], ids=["empty", "space"])
    @pytest.mark.parametrize("key", STRING_SETS)
    def test_config_file_exits_2_naming_the_section(self, tmp_path, capsys, key, blank):
        section, _ = STRING_SETS[key]
        paths = write_pipeline_fixture(tmp_path)
        patch_config(paths["config"], **{section: {key: [blank, "zz"]}})
        command = "filter" if section == "filter" else "normalize"
        assert main([command, "--config", str(paths["config"])]) == 2
        assert capsys.readouterr().err == f"error: config section {section!r}: {key} must be non-empty strings\n"
        assert not paths["out_dir"].exists()

    @pytest.mark.parametrize(
        "normalizer", [{"male_terms": ["", "male"]}, {"female_terms": [" "]}], ids=["empty-male", "space-female"]
    )
    def test_blank_gender_term_fails_normalize(self, tmp_path, capsys, normalizer):
        """A blank term would match at every word boundary: "fever and cough" became
        "manfeverman manandman mancoughman" with the empty male term, and
        "feverwomanandwomancough" with the female term " "."""
        paths = write_pipeline_fixture(tmp_path)
        _edit_row(paths["corpus"], 0, lambda row: row.update(indication="fever and cough"))
        run_stages(paths["config"], "filter")
        patch_config(paths["config"], normalizer=normalizer)
        assert main(["normalize", "--config", str(paths["config"])]) == 2
        assert "must be non-empty strings" in capsys.readouterr().err
        assert not (paths["out_dir"] / "normalized.jsonl").exists()


class TestConfigStrictness:
    @pytest.mark.parametrize(
        "file_patch, key",
        [
            ({"kk": 1}, "kk"),
            ({"jobs": 1}, "jobs"),
            ({"paths": {"corpos": "x"}}, "paths.corpos"),
            ({"filter": {"min_token": 3}}, "filter.min_token"),
            ({"normalizer": {"male_term": ["m"]}}, "normalizer.male_term"),
            ({"fusion": {"dd": 8}}, "fusion.dd"),
            ({"index_normalize": "false"}, "index_normalize"),
            ({"k": "1"}, "k"),
            ({"k": True}, "k"),
            ({"tau": "0.07"}, "tau"),
            ({"tau": math.nan}, "tau"),
            ({"tau": math.inf}, "tau"),
            ({"tau": -math.inf}, "tau"),
            ({"tau": 10**400}, "tau"),
            ({"filter": {"junk_patterns": "is subnitted"}}, "filter.junk_patterns"),
            ({"filter": []}, "filter"),
            ({"m_gt": [[60]]}, "m_gt"),
            ({"m_gt": [60.5]}, "m_gt"),
            ({"seed": -1}, "seed"),
            ({"fusion": {"si": 0}}, "si"),
            ({"fusion": {"sh": -1}}, "sh"),
            ({"fusion": {"sn": -1}}, "sn"),
        ],
    )
    def test_typo_or_wrong_type_names_the_key(self, tmp_path, file_patch, key):
        paths = write_pipeline_fixture(tmp_path)
        raw = json.loads(paths["config"].read_text())
        for name, value in file_patch.items():
            if isinstance(value, dict) and isinstance(raw.get(name), dict):
                raw[name].update(value)
            else:
                raw[name] = value
        paths["config"].write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as exc:
            load_config(paths["config"])
        assert key in str(exc.value)

    def test_every_declared_key_round_trips_through_echo(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        raw = json.loads(paths["config"].read_text())
        raw.update(index_normalize=False)
        raw["normalizer"] = {"illegal_chars": ["/"], "invalid_words": ["history:"],
                             "male_terms": ["man"], "female_terms": ["woman"]}
        paths["config"].write_text(json.dumps(raw))
        cfg = load_config(paths["config"])
        echoed = tmp_path / "echoed.json"
        echoed.write_text(json.dumps(cfg.echo()))
        assert load_config(echoed) == cfg
        assert cfg.index_normalize is False

    def test_bad_json_names_the_line(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text('{\n  "k": 1,\n  "seed": \n}\n')
        with pytest.raises(ValidationError, match="line 4"):
            load_config(bad)


def test_manifest_config_block_is_pinned(tmp_path):
    paths = write_pipeline_fixture(tmp_path)
    manifest = json.loads(run_pipeline(load_config(paths["config"])).read_text())
    root = str(tmp_path)
    assert manifest["config"] == {
        "filter": {"junk_patterns": ["is subnitted"], "min_tokens": 3},
        "fusion": {"d": 8, "heads": 2, "sh": 6, "si": 4, "sn": 3},
        "index_normalize": True,
        "k": 1,
        "m_gt": ["60", "80", "90", "100", "cpl"],
        "normalizer": {
            "female_terms": ["f", "female", "lady", "woman"],
            "illegal_chars": ["/", "@", "_"],
            "invalid_words": ["history:", "-year-old", "year old"],
            "male_terms": ["gentleman", "m", "male", "man"],
        },
        "paths": {
            "corpus": f"{root}/corpus.jsonl",
            "embeddings": f"{root}/emb.jsonl",
            "generated": f"{root}/generated.jsonl",
            "generated_entities": f"{root}/gen_entities.jsonl",
            "generated_labels": f"{root}/gen_labels.csv",
            "out_dir": f"{root}/out",
        },
        "seed": 7,
        "tau": 0.07,
    }


class TestAtomicWrites:
    def test_serializer_raising_partway_keeps_previous(self, tmp_path, rng):
        path = tmp_path / "corpus.jsonl"
        records = [make_record(rng, study_id=f"s{i}") for i in range(5)]
        save_corpus(records, path)
        before = path.read_bytes()

        def failing():
            yield from records[:3]
            raise RuntimeError("serializer failed")

        with pytest.raises(RuntimeError):
            save_corpus(failing(), path)
        with pytest.raises(RuntimeError):
            with atomic_write(path, binary=True) as handle:
                handle.write(b"partial")
                raise RuntimeError("serializer failed")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["corpus.jsonl"]
        assert load_corpus(path) == records

    def test_write_failing_at_os_level_keeps_previous(self, tmp_path):
        """A write that hits the file-size limit (as on a full disk) exits 3, old artifact intact."""
        paths = write_pipeline_fixture(tmp_path)
        assert run_cli("run", "--config", str(paths["config"])).returncode == 0
        out = paths["out_dir"] / "normalized.jsonl"
        args = ("normalize", "--config", str(paths["config"]))
        before = out.read_bytes()
        limit = len(before) // 4

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

        proc = run_cli(*args, preexec_fn=limit_file_size)
        assert proc.returncode == 3, proc.stderr
        assert out.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("cut", [KeyboardInterrupt, MemoryError])
def test_a_rerun_cut_short_leaves_no_ok_manifest(tmp_path, monkeypatch, cut):
    """A seed-99 rerun cut after it replaced ``fusion.json`` leaves a failed manifest, not the seed-7 ``ok`` one."""
    paths = write_pipeline_fixture(tmp_path)
    manifest_path = run_pipeline(load_config(paths["config"]))
    assert json.loads(manifest_path.read_text())["status"] == "ok"
    patch_config(paths["config"], seed=99)
    seen = []

    def filter_stage(cfg, out, *taken):
        seen.append(json.loads(manifest_path.read_text()))
        return STAGES["filter"].fn(cfg, out, *taken)

    def cut_fuse_demo(cfg, out, *taken):
        STAGES["fuse-demo"].fn(cfg, out, *taken)
        raise cut()

    stages = dict(STAGES)
    stages["filter"] = replace(STAGES["filter"], fn=filter_stage)
    stages["fuse-demo"] = replace(STAGES["fuse-demo"], fn=cut_fuse_demo)
    monkeypatch.setattr(pipeline, "STAGES", stages)
    with pytest.raises(cut):
        run_pipeline(load_config(paths["config"]))
    (running,) = seen
    assert (running["status"], running["stages"], running["config"]["seed"]) == ("running", [], 99)
    manifest = json.loads(manifest_path.read_text())
    assert (manifest["status"], manifest["failed_stage"], manifest["config"]["seed"]) == ("failed", "fuse-demo", 99)
    assert "fusion.json" not in {a["path"] for stage in manifest["stages"] for a in stage["artifacts"]}


# When a signal reaches the rerun: the given delay after it replaces the given file.  Replacing the
# manifest starts the stages, and fusion.json is the artifact seed 99 changes.
SIGNAL_POINTS = [("run_manifest.json", 0.0), ("run_manifest.json", 0.1), ("fusion.json", 0.0), ("fusion.json", 0.25)]


@pytest.mark.parametrize("anchor, delay", SIGNAL_POINTS, ids=str)
@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM, signal.SIGKILL], ids=lambda s: s.name)
def test_a_signalled_rerun_leaves_no_ok_manifest_that_lies(tmp_path, sig, anchor, delay):
    """``sei run`` at seed 99 over a seed-7 run, signalled ``delay`` s after it replaces ``anchor``.

    The manifest it leaves reads ``ok`` only if every sha256 in it matches its
    file.  Besides the artifacts and the manifest, ``paths.out_dir`` holds at
    most ``atomic_write``'s temporary files of the killed process, and those
    only where the signal stops it without unwinding.
    """
    paths = write_pipeline_fixture(tmp_path, n=300)
    manifest_path = run_pipeline(load_config(paths["config"]))
    patch_config(paths["config"], seed=99)
    anchor_path = paths["out_dir"] / anchor
    seed_7_inode = anchor_path.stat().st_ino  # os.replace gives the path a new inode
    proc = subprocess.Popen(
        [sys.executable, "-m", "sei", "run", "--config", str(paths["config"])],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while anchor_path.stat().st_ino == seed_7_inode:
            assert proc.poll() is None and time.monotonic() < deadline, f"the rerun never replaced {anchor}"
            time.sleep(0.001)
        time.sleep(delay)
        proc.send_signal(sig)
        proc.wait(timeout=60)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the forked children too
        except ProcessLookupError:
            pass
        proc.wait()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["config"]["seed"] == 99
    if manifest["status"] == "ok":
        listed = [*manifest["inputs"].values(), *(a for stage in manifest["stages"] for a in stage["artifacts"])]
        for entry in listed:
            path = paths["out_dir"] / entry["path"]  # an input's path is absolute
            assert pipeline.sha256_file(path) == entry["sha256"], entry["path"]
    else:
        assert manifest["status"] in ("running", "failed")
    names = {spec.artifact for spec in STAGES.values()} | {"run_manifest.json"}
    left = set(os.listdir(paths["out_dir"])) - names
    temporary = {f".{name}.{proc.pid}.tmp" for name in names}
    assert left <= (temporary if sig != signal.SIGINT else set()), left


SCORING_FILES = ("generated", "generated_labels", "generated_entities")
MUTATIONS = (
    "delete-field", "swap-type", "nan", "truncate", "duplicate-id", "invalid-utf8", "bom", "retype-id", "late-bom",
    "null-ref-labels14",
)
# mutations that may leave the file's schema intact but take a study from it: a study_id retyped to an
# integer is read as its decimal string, and a BOM before a CSV id becomes part of it; the error then names
# the file but no line.  A study_id retyped to any other JSON kind is rejected naming its line.
ID_MUTATIONS = ("retype-id", "late-bom")
# mutations of the reference corpus (the filter stage's filtered.jsonl) instead of the target file: a study's
# labels14 becomes null, which the corpus schema allows but scoring against a label file does not; the error
# names filtered.jsonl
REF_MUTATIONS = ("null-ref-labels14",)
# a JSON value of each type; a swap draws one whose type differs from the value it replaces
JSON_VALUES = (None, 0, 1.5, True, "x", [], {})


def _json_paths(row: dict, with_id: bool) -> list[tuple]:
    """Key paths to the fields of a JSONL row, nested entity fields and labels14 items included."""
    paths = [(key,) for key in row if with_id or key != "study_id"]
    for i, ent in enumerate(row.get("entities") or []):
        paths += [("entities", i, key) for key in ent]
    return paths + [("labels14", j) for j in range(len(row.get("labels14") or []))]


def _mutate_json_line(line: bytes, rows: list[bytes], i: int, mutation: str, data) -> bytes:
    row = json.loads(line)
    if mutation in ("delete-field", "swap-type", "nan"):
        *parents, last = data.draw(st.sampled_from(_json_paths(row, with_id=mutation == "delete-field")))
        holder = row
        for key in parents:
            holder = holder[key]
        if mutation == "delete-field":
            del holder[last]
        elif mutation == "nan":
            holder[last] = float("nan")
        else:
            kind = type(holder[last])
            holder[last] = data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not kind]))
        return json.dumps(row).encode()
    if mutation == "duplicate-id":
        row["study_id"] = json.loads(rows[data.draw(st.integers(0, i - 1))])["study_id"]
        return json.dumps(row).encode()
    if mutation == "retype-id":  # an integer is read as its decimal string, which no other file lists
        row["study_id"] = data.draw(st.sampled_from([v for v in JSON_VALUES if not isinstance(v, str)]))
        return json.dumps(row).encode()
    return _mutate_bytes(line, mutation, data)


def _mutate_csv_line(line: bytes, rows: list[bytes], i: int, mutation: str, data) -> bytes:
    cells = line.decode().split(",")
    if mutation == "delete-field":
        del cells[data.draw(st.integers(0, len(cells) - 1))]
    elif mutation in ("swap-type", "nan"):
        col = data.draw(st.integers(1, len(cells) - 1))  # a label column; the id is never retyped
        cells[col] = "nan" if mutation == "nan" else data.draw(st.sampled_from(["x", "", "0.5", "true", "[]"]))
    elif mutation == "duplicate-id":
        cells[0] = rows[data.draw(st.integers(1, i - 1))].decode().split(",")[0]
    elif mutation == "retype-id":
        cells[0] = data.draw(st.sampled_from(["x", "", "0.5", "true", "[]"]))
    else:
        return _mutate_bytes(line, mutation, data)
    return ",".join(cells).encode()


def _mutate_bytes(line: bytes, mutation: str, data) -> bytes:
    if mutation == "truncate":
        return line[: data.draw(st.integers(1, len(line) - 1))]
    if mutation == "invalid-utf8":
        at = data.draw(st.integers(0, len(line)))
        return line[:at] + b"\xff" + line[at:]
    return b"\xef\xbb\xbf" + line  # a BOM, on line 1 ("bom") or a later line ("late-bom")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCORING_FILES), st.sampled_from(MUTATIONS), st.data())
def test_score_names_the_malformed_scoring_file(target, mutation, data):
    """One malformed line in a generated-side file makes ``sei score --config`` exit 2
    (or 3 on IO), naming the file, and the line for JSONL, and leaving the previous
    scores.json as it was and no .tmp file.  Every mutation but those in
    ID_MUTATIONS breaks the file's schema, so exit 0 would mean it was read anyway.
    A study_id retyped to an integer is read as its decimal string, and a BOM on a
    later line of the label CSV becomes part of the id; the file then lacks a study
    the other files list, and the exit is 2 naming the file.  A study_id retyped to
    any other JSON kind is rejected naming its line.  A mutation in REF_MUTATIONS
    changes the reference corpus instead, and the exit is 2 naming it."""
    csv_file = target == "generated_labels" and mutation not in REF_MUTATIONS
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_pipeline_fixture(Path(tmp), n=4)
        run_stages(paths["config"], "filter", "score")
        scores = paths["out_dir"] / "scores.json"
        before = scores.read_bytes()
        path = paths["out_dir"] / "filtered.jsonl" if mutation in REF_MUTATIONS else paths[target]
        rows = path.read_bytes().splitlines()
        # the label CSV's header is line 1; a duplicate id needs an earlier row to copy
        first = {"bom": 0, "duplicate-id": 2 if csv_file else 1, "late-bom": 1}.get(mutation, 1 if csv_file else 0)
        i = 0 if mutation == "bom" else data.draw(st.integers(first, len(rows) - 1))
        if mutation == "null-ref-labels14":
            rows[i] = json.dumps(json.loads(rows[i]) | {"labels14": None}).encode()
        else:
            mutate = _mutate_csv_line if csv_file else _mutate_json_line
            rows[i] = mutate(rows[i], rows, i, mutation, data)
        path.write_bytes(b"\n".join(rows) + b"\n")
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(["score", "--config", str(paths["config"])])
        message = stderr.getvalue()
        assert code in (2, 3), (rows[i], message)
        assert str(path) in message
        if mutation in ID_MUTATIONS + REF_MUTATIONS:
            assert code == 2, message
        if not csv_file and mutation not in ("retype-id", *REF_MUTATIONS):
            assert f"line {i + 1}:" in message, message
        if not csv_file and mutation == "retype-id" and type(json.loads(rows[i])["study_id"]) is not int:
            assert f"{path}: line {i + 1}:" in message, message
        assert scores.read_bytes() == before
        assert not list(Path(tmp).rglob("*.tmp"))


READER_MUTATIONS = ("delete-field", "swap-type", "nan", "truncate", "duplicate-id", "invalid-utf8", "bom")
# the Python types of the JSON kinds each corpus or --sequences field takes ("labels14[]": one item)
FIELD_KINDS = {
    "study_id": (str, int), "findings": (str,), "indication": (str, type(None)),
    "entities": (list, type(None)), "labels14": (list, type(None)), "labels14[]": (int,),
    "tokens": (str,), "label": (str,), "start_ix": (int,), "end_ix": (int,), "factual_sequence": (str,),
}
# corpus fields a row may leave out
OPTIONAL_FIELDS = ("indication", "entities", "labels14")
# a swap draws one of these whose type the field does not take
SWAP_VALUES = (True, "1", 1.7, None, [], {}, 0)


def _mutate_reader_line(line: bytes, rows: list[bytes], i: int, mutation: str, data) -> bytes:
    if mutation not in ("delete-field", "swap-type"):
        return _mutate_json_line(line, rows, i, mutation, data)
    row = json.loads(line)
    paths = _json_paths(row, with_id=True)
    if mutation == "delete-field":
        paths = [path for path in paths if path[-1] not in OPTIONAL_FIELDS]
    *parents, last = data.draw(st.sampled_from(paths))
    holder = row
    for key in parents:
        holder = holder[key]
    if mutation == "delete-field":
        del holder[last]
    else:
        kinds = FIELD_KINDS[last if isinstance(last, str) else f"{parents[-1]}[]"]
        holder[last] = data.draw(st.sampled_from([v for v in SWAP_VALUES if type(v) not in kinds]))
    return json.dumps(row).encode()


# reader target -> (the file mutated, the stage that reads it): the corpus, and the filter and
# see-extract stages' artifacts as the stages after them read them back
READER_TARGETS = {
    "corpus": (None, "filter"),
    "filtered": ("filtered.jsonl", "normalize"),
    "sequences": ("sequences.jsonl", "attach-shc"),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(READER_TARGETS)), st.sampled_from(READER_MUTATIONS), st.data())
def test_corpus_and_sequences_readers_name_the_malformed_line(target, mutation, data):
    """One malformed line in the corpus (``sei filter``), or in the filtered.jsonl
    (``sei normalize``) or sequences.jsonl (``sei attach-shc``) a stage reads back,
    makes the stage exit 2 (or 3 on IO), naming the file and the line, and leaving
    its previous artifact as it was and no .tmp file.  Every mutation breaks the
    file's schema: a swap draws a value of a JSON kind the field does not take, and
    a deletion takes a field no row may leave out."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = write_pipeline_fixture(root, n=4)
        patch_config(paths["config"], k=2)
        artifact, stage = READER_TARGETS[target]
        run_stages(paths["config"], *STAGE_ORDER[: STAGE_ORDER.index(stage) + 1])
        path = paths["corpus"] if artifact is None else paths["out_dir"] / artifact
        out = paths["out_dir"] / STAGES[stage].artifact
        before = out.read_bytes()
        rows = path.read_bytes().splitlines()
        i = data.draw(st.integers(1 if mutation == "duplicate-id" else 0, len(rows) - 1))
        rows[i] = _mutate_reader_line(rows[i], rows, i, mutation, data)
        path.write_bytes(b"\n".join(rows) + b"\n")
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main([stage, "--config", str(paths["config"])])
        message = stderr.getvalue()
        assert code in (2, 3), (rows[i], message)
        assert f"{path}: line {i + 1}:" in message, message
        assert out.read_bytes() == before
        assert not list(root.rglob("*.tmp"))


EMBEDDING_MUTATIONS = ("delete-field", "swap-type", "non-finite", "truncate", "duplicate-id", "invalid-utf8", "bom")


def _mutate_embedding_line(line: bytes, rows: list[bytes], i: int, mutation: str, data) -> bytes:
    if mutation not in ("swap-type", "non-finite"):
        return _mutate_json_line(line, rows, i, mutation, data)
    row = json.loads(line)
    at = data.draw(st.integers(0, len(row["vec"]) - 1))
    if mutation == "non-finite":
        row["vec"][at] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif data.draw(st.booleans()):  # the vector, or one of its values, becomes a non-number
        row["vec"] = data.draw(st.sampled_from([v for v in JSON_VALUES if not isinstance(v, list)]))
    else:  # JSON values float() would take are swapped in too: bools, numeric strings, an int past float range
        row["vec"][at] = data.draw(st.sampled_from([None, "x", [], {}, True, False, "1.5", " 2 ", 10**400]))
    return json.dumps(row).encode()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(EMBEDDING_MUTATIONS), st.booleans(), st.data())
def test_index_names_the_malformed_embeddings_line(mutation, normalize, data):
    """One malformed line in an embeddings file makes ``sei run``, which parses the
    file in a forked child, fail its index stage with exit 2, naming the file and
    the line, and leaving no index file.  ``sei index --config`` then exits 2 (or 3
    on IO) the same way, taking its ids from the normalized.jsonl the failed run
    wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_pipeline_fixture(Path(tmp), n=4)
        patch_config(paths["config"], index_normalize=normalize)
        emb = paths["embeddings"]
        rows = emb.read_bytes().splitlines()
        i = 0 if mutation == "bom" else data.draw(st.integers(1 if mutation == "duplicate-id" else 0, len(rows) - 1))
        rows[i] = _mutate_embedding_line(rows[i], rows, i, mutation, data)
        emb.write_bytes(b"\n".join(rows) + b"\n")
        out = paths["out_dir"] / "index.bin"
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(["run", "--config", str(paths["config"])])
        message = stderr.getvalue()
        assert code == 2, (rows[i], message)
        assert f"stage index: {emb}: line {i + 1}:" in message, message
        assert not out.exists()
        assert not [p for p in os.listdir(paths["out_dir"]) if p.endswith(".tmp")]

        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(["index", "--config", str(paths["config"])])
        message = stderr.getvalue()
        assert code in (2, 3), (rows[i], message)
        assert f"{emb}: line {i + 1}:" in message, message
        assert not out.exists()
        assert not list(Path(tmp).rglob("*.tmp"))


CONFIG_MUTATIONS = ("delete-key", "swap-type", "nan", "truncate", "big-int", "deep-nesting", "invalid-utf8", "bom")


def _config_paths(value, prefix=()) -> list[tuple]:
    """Key paths to every value of a parsed config, sections and list items included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    paths = []
    for key, item in items:
        paths += [prefix + (key,)] + _config_paths(item, prefix + (key,))
    return paths


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("run", "filter")), st.sampled_from(CONFIG_MUTATIONS), st.data())
def test_run_names_the_malformed_config(target, mutation, data):
    """One mutation of the config of ``sei run --config`` or ``sei filter --config``
    makes the command exit 0, 2 or 3, never with a traceback; on exit 2 or 3 stderr
    names the file or the dotted key of the mutated value (its list, for a list
    item; for a deleted section, a key the section required), no .tmp file is left,
    and ``sei filter`` leaves no filtered.jsonl or --dropped file.  A mutation may
    leave a valid file: a deleted key with a default, a truncation of the final
    newline."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = write_pipeline_fixture(root, n=4)
        config, out, dropped = paths["config"], paths["out_dir"] / "filtered.jsonl", root / "dropped.jsonl"
        argv = [target, "--config", str(config), *(["--dropped", str(dropped)] if target == "filter" else [])]
        raw = json.loads(config.read_text())
        key = ""
        if mutation in ("delete-key", "swap-type", "nan", "big-int", "deep-nesting"):
            *parents, last = path = data.draw(st.sampled_from(_config_paths(raw)))
            key = ".".join(part for part in path if isinstance(part, str))
            holder = raw
            for part in parents:
                holder = holder[part]
            if mutation == "delete-key":
                del holder[last]
            elif mutation == "swap-type":
                holder[last] = data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(holder[last])]))
            else:
                holder[last] = math.nan if mutation == "nan" else "@"
            literal = {"big-int": BIG_INT, "deep-nesting": "[" * data.draw(st.sampled_from([3, 100_000]))}
            text = json.dumps(raw, indent=2).replace('"@"', literal.get(mutation, '"@"'))
            config.write_bytes(text.encode())
        else:
            blob = config.read_bytes()
            if mutation == "truncate":
                blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
            elif mutation == "invalid-utf8":
                at = data.draw(st.integers(0, len(blob)))
                blob = blob[:at] + b"\xff" + blob[at:]
            else:
                blob = b"\xef\xbb\xbf" + blob
            config.write_bytes(blob)
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(argv)
        message = stderr.getvalue()
        assert code in (0, 2, 3), message
        assert "Traceback" not in message
        if code:
            # the key itself: quoted, or as the subject of a sentence; a deleted section names a key it required
            needles = [str(config)] + ([f"'{key}'", f" {key} ", f"'{key}."] if key else [])
            assert any(needle in message for needle in needles), (mutation, key, message)
            if target == "filter":
                assert not out.exists() and not dropped.exists()
        assert not list(root.rglob("*.tmp"))


@st.composite
def small_indexes(draw):
    """A small EmbeddingIndex as ``index_from_vectors`` builds it: 1-3 distinct ids, d of 1-3."""
    ids = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
                        min_size=1, max_size=3, unique=True))
    d = draw(st.integers(1, 3))
    value = st.floats(-4.0, 4.0, allow_nan=False, width=32)
    vectors = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=len(ids), max_size=len(ids)))
    normalize = draw(st.booleans())
    if normalize:
        assume(all(any(vec) for vec in vectors))
    return index_from_vectors(ids, vectors, normalize=normalize)


@settings(max_examples=40, deadline=None)
@given(small_indexes())
def test_load_index_survives_every_truncation_and_bit_flip(index):
    """Every truncation point and every single-bit flip of a file ``save_index``
    wrote either loads as an index with a finite matrix, or raises a CorpusError
    that starts with the path."""
    _survives_every_truncation_and_bit_flip(index)


@settings(max_examples=40, deadline=None)
@given(small_indexes())
def test_load_index_survives_every_truncation_and_bit_flip_in_one_row_slabs(index):
    """The same with slabs of one row, so a 2- or 3-row index is read, written
    and norm-checked over several slabs."""
    with mock.patch.object(retrieval, "_SLAB_BYTES", 1):
        assert len(retrieval._slab_bounds(index.matrix)) == index.n + 1
        _survives_every_truncation_and_bit_flip(index)


def _survives_every_truncation_and_bit_flip(index):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.bin"
        retrieval.save_index(index, path)
        blob = path.read_bytes()
        damaged = [blob[:end] for end in range(len(blob))]
        damaged += [
            blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1 :] for at in range(len(blob)) for bit in range(8)
        ]
        for data in damaged:
            path.write_bytes(data)
            try:
                loaded = retrieval.load_index(path)
            except CorpusError as exc:
                assert str(exc).startswith(f"{path}: "), (data, exc)
            else:
                assert loaded.matrix.shape == (loaded.n, loaded.dim)
                assert np.isfinite(loaded.matrix).all(), data
