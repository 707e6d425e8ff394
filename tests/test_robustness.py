"""Malformed inputs fail by name, config typos fail loudly, writes are atomic."""

import io
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sei import retrieval
from sei.cli import main
from sei.corpus import ReportDocument, StudyRecord, atomic_write, load_corpus, save_corpus
from sei.errors import ValidationError
from sei.pipeline import load_config, run_pipeline
from sei.retrieval import attach_shc, build_index

from conftest import make_record, write_pipeline_fixture


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "sei", *args], capture_output=True, text=True, **kwargs
    )


def assert_clean_exit_2(proc, *needles):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    for needle in needles:
        assert needle in proc.stderr


class TestCliMalformedInput:
    def test_filter_config_bad_json(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        bad = tmp_path / "filter.json"
        bad.write_text('{"min_tokens": 3,\n "junk_patterns": [}\n')
        proc = run_cli(
            "filter", "--corpus", str(paths["corpus"]), "--out", str(tmp_path / "kept.jsonl"),
            "--filter-config", str(bad),
        )
        assert_clean_exit_2(proc, str(bad), "line 2")

    def test_filter_config_unknown_key(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        bad = tmp_path / "filter.json"
        bad.write_text('{"min_token": 3}\n')
        proc = run_cli(
            "filter", "--corpus", str(paths["corpus"]), "--out", str(tmp_path / "kept.jsonl"),
            "--filter-config", str(bad),
        )
        assert_clean_exit_2(proc, "min_token")

    def _attach_inputs(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        index = tmp_path / "idx.bin"
        sequences = tmp_path / "seq.jsonl"
        assert run_cli("index", "--embeddings", str(paths["embeddings"]), "--out", str(index)).returncode == 0
        proc = run_cli("see-extract", "--corpus", str(paths["corpus"]), "--out", str(sequences))
        assert proc.returncode == 0, proc.stderr
        return paths, index, sequences

    def _attach(self, paths, index, sequences, tmp_path):
        return run_cli(
            "attach-shc", "--corpus", str(paths["corpus"]), "--embeddings", str(paths["embeddings"]),
            "--index", str(index), "--k", "2", "--sequences", str(sequences),
            "--out", str(tmp_path / "shc.jsonl"),
        )

    def test_attach_sequences_bad_jsonl_line(self, tmp_path):
        paths, index, sequences = self._attach_inputs(tmp_path)
        lines = sequences.read_text().splitlines()
        lines[3] = lines[3][:-5]
        sequences.write_text("\n".join(lines) + "\n")
        proc = self._attach(paths, index, sequences, tmp_path)
        assert_clean_exit_2(proc, str(sequences), "line 4")

    def test_attach_sequences_missing_retrieved_id(self, tmp_path):
        paths, index, sequences = self._attach_inputs(tmp_path)
        rows = [json.loads(line) for line in sequences.read_text().splitlines()]
        sequences.write_text("".join(json.dumps(row) + "\n" for row in rows[1:]))
        proc = self._attach(paths, index, sequences, tmp_path)
        assert_clean_exit_2(proc, repr(rows[0]["study_id"]))

    @pytest.mark.parametrize(
        "line, flags, needles",
        [
            (b'{"study_id": "b", "vec": [1.0, "x"]}', (), ("{emb}", "line 2", "'vec'")),
            (b'{"study_id": "b", "vec": [NaN, 1.0]}', (), ("{emb}", "line 2", "'vec'")),
            (b'{"study_id": "b", "vec": [Infinity, 1.0]}', ("--no-normalize",), ("{emb}", "line 2", "'vec'")),
            (b'{"study_id": "b", "vec": [-Infinity, 1.0]}', (), ("{emb}", "line 2", "'vec'")),
            (b'{"study_id": "b\xff", "vec": [1.0, 1.0]}', (), ("{emb}", "line 2", "UTF-8")),
            # finite, but the norm overflows float64 / the value overflows float32
            (b'{"study_id": "b", "vec": [1e300, 1.0]}', (), ("study 'b'", "norm overflows")),
            (b'{"study_id": "b", "vec": [1e300, 1.0]}', ("--no-normalize",), ("study 'b'", "float32")),
            (b'{"study_id": "b", "vec": [1e39, 1.0]}', ("--no-normalize",), ("study 'b'", "float32")),
        ],
        ids=[
            "non-numeric", "nan", "infinity", "minus-infinity", "invalid-utf8",
            "norm-overflow", "float32-overflow", "float32-overflow-small",
        ],
    )
    def test_index_non_numeric_vector_entry(self, tmp_path, line, flags, needles):
        emb = tmp_path / "emb.jsonl"
        emb.write_bytes(b'{"study_id": "a", "vec": [1.0, 2.0]}\n' + line + b"\n")
        proc = run_cli("index", "--embeddings", str(emb), "--out", str(tmp_path / "idx.bin"), *flags)
        assert_clean_exit_2(proc, *(needle.format(emb=emb) for needle in needles))
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "idx.bin").exists()

    def test_crlf_embeddings_index_like_lf(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        crlf = tmp_path / "emb_crlf.jsonl"
        crlf.write_bytes(paths["embeddings"].read_bytes().replace(b"\n", b"\r\n"))
        for emb, out in ((paths["embeddings"], "lf.bin"), (crlf, "crlf.bin")):
            assert run_cli("index", "--embeddings", str(emb), "--out", str(tmp_path / out)).returncode == 0
        assert (tmp_path / "lf.bin").read_bytes() == (tmp_path / "crlf.bin").read_bytes()

    def test_score_labels_invalid_utf8(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        labels = paths["generated_labels"].read_bytes().split(b"\n")
        labels[2] = b"\xff" + labels[2]
        paths["generated_labels"].write_bytes(b"\n".join(labels))
        proc = run_cli(
            "score", "--gen", str(paths["generated"]), "--ref", str(paths["corpus"]),
            "--labels", str(paths["generated_labels"]),
        )
        assert_clean_exit_2(proc, str(paths["generated_labels"]), "line 3", "UTF-8")

    def test_run_config_invalid_utf8(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        raw = paths["config"].read_bytes()
        paths["config"].write_bytes(raw.replace(b'"seed"', b'"s\xffeed"', 1))
        line = raw[: raw.index(b'"seed"')].count(b"\n") + 1
        proc = run_cli("run", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, str(paths["config"]), f"line {line}", "UTF-8")

    def test_retrieve_index_id_invalid_utf8(self, tmp_path):
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"study_id": "a", "vec": [1.0, 2.0]}\n{"study_id": "b", "vec": [2.0, 1.0]}\n')
        index = tmp_path / "idx.bin"
        assert run_cli("index", "--embeddings", str(emb), "--out", str(index)).returncode == 0
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
        rows = [json.loads(line) for line in paths["corpus"].read_text().splitlines()]
        patch = dict(patch)
        rows[2]["entities"][0].update(patch.pop("entity", {}))
        rows[2].update(patch)
        paths["corpus"].write_text("".join(json.dumps(row) + "\n" for row in rows))
        proc = run_cli("see-extract", "--corpus", str(paths["corpus"]), "--out", str(tmp_path / "seq.jsonl"))
        assert_clean_exit_2(proc, str(paths["corpus"]), "line 3", needle)

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
        bad = tmp_path / "entities.jsonl"
        rows = [{"study_id": "st000", "entities": []}, {"study_id": second_id, "entities": entities}]
        bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
        proc = run_cli(
            "score", "--gen", str(paths["generated"]), "--ref", str(paths["corpus"]), "--entities", str(bad),
        )
        assert_clean_exit_2(proc, str(bad), "line 2", needle)


    @pytest.mark.parametrize("text", [None, ["lungs", "clear"], 5], ids=["null", "list", "number"])
    def test_score_generated_text_not_a_string(self, tmp_path, text):
        paths = write_pipeline_fixture(tmp_path)
        rows = [json.loads(line) for line in paths["generated"].read_text().splitlines()]
        rows[1]["text"] = text
        paths["generated"].write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "score.json"
        proc = run_cli("score", "--gen", str(paths["generated"]), "--ref", str(paths["corpus"]), "--out", str(out))
        assert_clean_exit_2(proc, str(paths["generated"]), "line 2", "'text'")
        assert not out.exists()

    def test_attach_sequence_not_a_string(self, tmp_path):
        paths, index, sequences = self._attach_inputs(tmp_path)
        rows = [json.loads(line) for line in sequences.read_text().splitlines()]
        rows[2]["factual_sequence"] = None
        sequences.write_text("".join(json.dumps(row) + "\n" for row in rows))
        proc = self._attach(paths, index, sequences, tmp_path)
        assert_clean_exit_2(proc, str(sequences), "line 3", "'factual_sequence'")


class TestNegativeSizes:
    """A negative seed, size or count exits 2 naming its key or flag, never with a traceback."""

    @pytest.mark.parametrize(
        "patch, needle",
        [({"seed": -1}, "seed"), ({"fusion": {"sh": -1}}, "sh"), ({"m_gt": [60.5]}, "m_gt")],
        ids=["seed", "fusion-sh", "fractional-m_gt"],
    )
    def test_run_rejects_before_any_stage(self, tmp_path, patch, needle):
        paths = write_pipeline_fixture(tmp_path)
        raw = json.loads(paths["config"].read_text())
        for name, value in patch.items():
            raw[name] = {**raw[name], **value} if isinstance(value, dict) else value
        paths["config"].write_text(json.dumps(raw))
        proc = run_cli("run", "--config", str(paths["config"]))
        assert_clean_exit_2(proc, needle)
        assert proc.stderr.count("error:") == 1
        assert not paths["out_dir"].exists()

    @pytest.mark.parametrize(
        "args, needle",
        [
            (("fuse-demo", "--seed", "-1"), "seed"),
            (("fuse-demo", "--sh", "-1"), "sh"),
            (("fuse-demo", "--si", "-2"), "si"),
            (("fuse-demo", "--sn", "-1"), "sn"),
            (("align-demo", "--seed", "-3"), "seed"),
            (("align-demo", "--b", "-1"), "b must be"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
    )
    def test_demo_flags(self, args, needle):
        proc = run_cli(*args)
        assert_clean_exit_2(proc, needle)
        assert proc.stderr.count("error:") == 1


def test_attach_shc_missing_sequence_names_id(rng):
    records = [
        replace(make_record(rng, study_id=f"s{i}"), embedding=tuple(rng.standard_normal(3)))
        for i in range(3)
    ]
    index = build_index(records)
    with pytest.raises(ValidationError, match="'s2'"):
        attach_shc(records, index, 2, sequences={"s0": "x", "s1": "y"})


def shc_record(study_id, vec):
    return StudyRecord(
        study_id=study_id,
        report=ReportDocument.from_text(study_id, "lungs clear."),
        entities=(),
        embedding=tuple(vec),
    )


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
        index = build_index([shc_record(sid, vec) for sid, vec in self.INDEXED.items()])
        records = [shc_record(sid, self.QUERIES[sid]) for sid in order]
        before = threading.active_count()
        with pytest.raises(ValidationError) as excinfo:
            attach_shc(records, index, 1, sequences={"a": "x", "c": "z"})
        assert str(excinfo.value) == message
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [0, 1])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_scoring_error_comes_out_unchanged(self, monkeypatch, failing, threads):
        """A scoring error in one record's block comes out of attach_shc as is, after
        the records before it are finished and before any later record is looked at."""
        vectors = {f"s{i}": (float(i + 1), float(12 - i)) for i in range(12)}
        index = build_index([shc_record(sid, vec) for sid, vec in vectors.items()])
        records = [shc_record(f"s{i}", vectors[f"s{i}"]) for i in range(3)]
        boom = MemoryError("no room for scores")
        scoring = retrieval._score_run

        def kernel(matrix, bounds, queries, out):
            if np.allclose(queries[0, :, 0], index.matrix[failing]):
                raise boom
            scoring(matrix, bounds, queries, out)

        looked_up = []

        class Sequences(dict):
            def __contains__(self, sid):
                looked_up.append(sid)
                return super().__contains__(sid)

        monkeypatch.setattr(retrieval, "_QUERY_BLOCK", 1)
        monkeypatch.setattr(retrieval, "_SLAB_BYTES", 4 * 2 * 8)  # three slabs of 4 rows
        monkeypatch.setattr(retrieval, "_scoring_threads", lambda: threads)
        monkeypatch.setattr(retrieval, "_score_run", kernel)
        before = threading.active_count()
        with pytest.raises(MemoryError) as excinfo:
            attach_shc(records, index, 1, sequences=Sequences.fromkeys(vectors, ""))
        assert excinfo.value is boom
        assert threading.active_count() == before
        assert len(looked_up) == failing  # the one hit of each record before the failing one

    def test_error_in_record_0_cancels_the_later_blocks(self, monkeypatch):
        """A check error in the first block stops the blocks not yet started: the
        batch is not scored first, and no scoring thread outlives the call."""
        vectors = {f"s{i}": (float(i + 1), float(200 - i)) for i in range(200)}
        index = build_index([shc_record(sid, vec) for sid, vec in vectors.items()])
        records = [shc_record("z", (1.0, 1.0))] + [shc_record(sid, vec) for sid, vec in list(vectors.items())[1:]]
        scoring = retrieval._score_run
        calls = []

        def kernel(matrix, bounds, queries, out):
            calls.append(len(queries))
            time.sleep(0.001)
            scoring(matrix, bounds, queries, out)

        monkeypatch.setattr(retrieval, "_QUERY_BLOCK", 1)
        monkeypatch.setattr(retrieval, "_score_run", kernel)
        before = threading.active_count()
        with pytest.raises(ValidationError, match="study 'z' is not indexed"):
            attach_shc(records, index, 1, sequences=dict.fromkeys(vectors, ""))
        assert len(calls) < 100
        assert threading.active_count() == before


class TestConfigStrictness:
    @pytest.mark.parametrize(
        "file_patch, overrides, key",
        [
            ({"kk": 1}, None, "kk"),
            ({"paths": {"corpos": "x"}}, None, "paths.corpos"),
            ({"filter": {"min_token": 3}}, None, "filter.min_token"),
            ({"normalizer": {"male_term": ["m"]}}, None, "normalizer.male_term"),
            ({"fusion": {"dd": 8}}, None, "fusion.dd"),
            ({}, {"seeed": 3}, "seeed"),
            ({}, {"paths": {"outdir": "x"}}, "paths.outdir"),
            ({"index_normalize": "false"}, None, "index_normalize"),
            ({"k": "1"}, None, "k"),
            ({"k": True}, None, "k"),
            ({"tau": "0.07"}, None, "tau"),
            ({"filter": {"junk_patterns": "is subnitted"}}, None, "filter.junk_patterns"),
            ({"filter": []}, None, "filter"),
            ({"m_gt": [[60]]}, None, "m_gt"),
            ({"m_gt": [60.5]}, None, "m_gt"),
            ({"seed": -1}, None, "seed"),
            ({}, {"seed": -2}, "seed"),
            ({"fusion": {"si": 0}}, None, "si"),
            ({"fusion": {"sh": -1}}, None, "sh"),
            ({"fusion": {"sn": -1}}, None, "sn"),
        ],
    )
    def test_typo_or_wrong_type_names_the_key(self, tmp_path, file_patch, overrides, key):
        paths = write_pipeline_fixture(tmp_path)
        raw = json.loads(paths["config"].read_text())
        for name, value in file_patch.items():
            if isinstance(value, dict) and isinstance(raw.get(name), dict):
                raw[name].update(value)
            else:
                raw[name] = value
        paths["config"].write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as exc:
            load_config(paths["config"], overrides)
        assert key in str(exc.value)

    def test_every_declared_key_round_trips_through_echo(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        raw = json.loads(paths["config"].read_text())
        raw.update(index_normalize=False, jobs=2)
        raw["normalizer"] = {"illegal_chars": ["/"], "invalid_words": ["history:"],
                             "male_terms": ["man"], "female_terms": ["woman"]}
        paths["config"].write_text(json.dumps(raw))
        cfg = load_config(paths["config"])
        echoed = tmp_path / "echoed.json"
        echoed.write_text(json.dumps(cfg.echo()))
        assert load_config(echoed) == cfg
        assert cfg.index_normalize is False and cfg.jobs == 2

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
        "jobs": 1,
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
        out = tmp_path / "normalized.jsonl"
        args = ("normalize", "--corpus", str(paths["corpus"]), "--out", str(out))
        assert run_cli(*args).returncode == 0
        before = out.read_bytes()
        limit = len(before) // 4

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

        proc = run_cli(*args, preexec_fn=limit_file_size)
        assert proc.returncode == 3, proc.stderr
        assert out.read_bytes() == before
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]



SCORING_FILES = ("generated", "generated_labels", "generated_entities")
MUTATIONS = ("delete-field", "swap-type", "nan", "truncate", "duplicate-id", "invalid-utf8", "bom")
# a JSON value of each type; a swap draws one whose type differs from the value it replaces
JSON_VALUES = (None, 0, 1.5, True, "x", [], {})


def _json_paths(row: dict, with_id: bool) -> list[tuple]:
    """Key paths to the fields of a generated-side JSONL row, nested entity fields included."""
    paths = [(key,) for key in row if with_id or key != "study_id"]
    for i, ent in enumerate(row.get("entities", [])):
        paths += [("entities", i, key) for key in ent]
    return paths


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
    else:
        return _mutate_bytes(line, mutation, data)
    return ",".join(cells).encode()


def _mutate_bytes(line: bytes, mutation: str, data) -> bytes:
    if mutation == "truncate":
        return line[: data.draw(st.integers(1, len(line) - 1))]
    if mutation == "invalid-utf8":
        at = data.draw(st.integers(0, len(line)))
        return line[:at] + b"\xff" + line[at:]
    return b"\xef\xbb\xbf" + line  # a BOM, which only the first line gets


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCORING_FILES), st.sampled_from(MUTATIONS), st.data())
def test_score_names_the_malformed_scoring_file(target, mutation, data):
    """One malformed line in a generated-side file makes ``sei score`` exit 2 (or 3
    on IO), naming the file, and the line for JSONL, and leaving no --out file.
    Every mutation breaks the file's schema, so exit 0 would mean it was read anyway;
    a study_id is deleted or duplicated but never retyped, as ids are coerced to
    strings by design."""
    csv_file = target == "generated_labels"
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_pipeline_fixture(Path(tmp), n=4)
        rows = paths[target].read_bytes().splitlines()
        # the label CSV's header is line 1; a duplicate id needs an earlier row to copy
        first = {"bom": 0, "duplicate-id": 2 if csv_file else 1}.get(mutation, 1 if csv_file else 0)
        i = 0 if mutation == "bom" else data.draw(st.integers(first, len(rows) - 1))
        mutate = _mutate_csv_line if csv_file else _mutate_json_line
        rows[i] = mutate(rows[i], rows, i, mutation, data)
        paths[target].write_bytes(b"\n".join(rows) + b"\n")
        out = Path(tmp) / "score.json"
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main([
                "score", "--gen", str(paths["generated"]), "--ref", str(paths["corpus"]),
                "--labels", str(paths["generated_labels"]), "--entities", str(paths["generated_entities"]),
                "--out", str(out),
            ])
        message = stderr.getvalue()
        assert code in (2, 3), (rows[i], message)
        assert str(paths[target]) in message
        if not csv_file:
            assert f"line {i + 1}:" in message, message
        assert not out.exists()
        assert not [p for p in os.listdir(tmp) if p.endswith(".tmp")]
