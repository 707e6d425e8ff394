"""Corpus model: tokenizer rules, JSONL round trips, filtering."""

import json

import numpy as np
import pytest

from sei.corpus import (
    CorpusFilterConfig,
    EntityAnnotation,
    EntityLabel,
    ReportDocument,
    StudyRecord,
    filter_corpus,
    load_corpus,
    record_from_json,
    record_to_json,
    save_corpus,
    tokenize,
)
from sei.cli import main
from sei.errors import CorpusError, ValidationError
from sei.metrics import micro_f1
from sei.retrieval import load_embeddings

from conftest import VOCAB, make_record, write_pipeline_fixture


class TestTokenize:
    def test_punctuation_splits(self):
        assert tokenize("AICD in place.") == ["aicd", "in", "place", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_decimal_numbers_survive(self):
        # hand application of the rule with the number-aware period exception
        assert tokenize("1.9 x 1.0 cm") == ["1.9", "x", "1.0", "cm"]

    def test_all_split_marks(self):
        assert tokenize("a,b:c;d/e") == ["a", ",", "b", ":", "c", ";", "d", "/", "e"]

    def test_lowercases(self):
        assert tokenize("No Pleural EFFUSION") == ["no", "pleural", "effusion"]

    def test_number_with_trailing_period(self):
        assert tokenize("measures 1.9.") == ["measures", "1.9", "."]

    def test_deterministic_and_pure(self, rng):
        for _ in range(50):
            words = [VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), size=6)]
            text = " ".join(words) + "."
            assert tokenize(text) == tokenize(text)


class TestLoading:
    def _write(self, tmp_path, rows):
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        return path

    def test_three_lines_in_order(self, tmp_path):
        rows = [
            {"study_id": f"s{i}", "findings": "lungs are clear.", "entities": []}
            for i in range(3)
        ]
        records = load_corpus(self._write(tmp_path, rows))
        assert [r.study_id for r in records] == ["s0", "s1", "s2"]

    def test_unknown_label_named(self, tmp_path):
        rows = [
            {
                "study_id": "s0",
                "findings": "lungs are clear.",
                "entities": [{"tokens": "lungs", "label": "OBS-XX", "start_ix": 0, "end_ix": 0}],
            }
        ]
        with pytest.raises(CorpusError, match="OBS-XX"):
            load_corpus(self._write(tmp_path, rows))

    def test_out_of_bounds_span(self, tmp_path):
        rows = [
            {
                "study_id": "s0",
                "findings": "lungs clear.",
                "entities": [{"tokens": "clear", "label": "OBS-DP", "start_ix": 9, "end_ix": 9}],
            }
        ]
        with pytest.raises(CorpusError, match="exceeds"):
            load_corpus(self._write(tmp_path, rows))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"study_id": "s0", "findings": "ok."}\n{broken\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_missing_field(self, tmp_path):
        with pytest.raises(CorpusError, match="findings"):
            load_corpus(self._write(tmp_path, [{"study_id": "s0"}]))

    def test_span_length_mismatch(self):
        with pytest.raises(ValidationError, match="span covers"):
            EntityAnnotation(tokens="two words", label=EntityLabel.OBS_DP, start_ix=0, end_ix=3)

    def test_entity_text_is_counted_by_the_report_tokenizer(self):
        """"/" is a token of its own in the entity text as in the report."""
        report = ReportDocument("Small effusion/atelectasis.")
        assert report.tokens[1:4] == ("effusion", "/", "atelectasis")
        entity = EntityAnnotation("effusion/atelectasis", EntityLabel.OBS_DP, start_ix=1, end_ix=3)
        assert StudyRecord(study_id="s0", report=report, entities=(entity,)).entities == (entity,)
        with pytest.raises(ValidationError, match="span covers 1 tokens but the text has 3"):
            EntityAnnotation("effusion/atelectasis", EntityLabel.OBS_DP, start_ix=1, end_ix=1)

    def test_labels14_validation(self):
        report = ReportDocument("lungs clear.")
        with pytest.raises(ValidationError, match="14"):
            StudyRecord(study_id="s0", report=report, entities=(), labels14=(0, 1))
        with pytest.raises(ValidationError, match="0 or 1"):
            StudyRecord(study_id="s0", report=report, entities=(), labels14=tuple([2] * 14))

    @pytest.mark.parametrize("labels14", [(0, 1), (0,) * 15, (2,) * 14, (0.7,) * 14, (1.9,) * 14, (-1,) * 14])
    def test_labels14_rule_is_the_one_metrics_applies(self, labels14):
        """A StudyRecord and metrics reject the same vectors with the same message, naming each its own input."""
        if len(labels14) != 14:
            reason = f"has {len(labels14)} entries, expected 14"
        else:
            reason = "entries must be 0 or 1"
        report = ReportDocument("lungs clear.")
        with pytest.raises(ValidationError) as from_record:
            StudyRecord(study_id="s0", report=report, entities=(), labels14=labels14)
        with pytest.raises(ValidationError) as from_metrics:
            micro_f1([labels14], [(0,) * 14])
        assert str(from_record.value) == f"study 's0': labels14 {reason}"
        assert str(from_metrics.value) == f"pred row 0 {reason}"

    def test_round_trip(self, tmp_path, rng):
        records = [make_record(rng, study_id=f"s{i}") for i in range(20)]
        path = tmp_path / "corpus.jsonl"
        save_corpus(records, path)
        loaded = load_corpus(path)
        assert loaded == records
        # a second serialize/parse cycle is field-identical too
        again = [record_from_json(record_to_json(r)) for r in loaded]
        assert again == loaded


class TestJsonKinds:
    """A corpus field takes only its JSON kind: no bool, numeric string or fraction
    is read as an integer, and no null as an id.  The error names the line."""

    ROW = {
        "study_id": "s0",
        "findings": "lungs are clear.",
        "entities": [{"tokens": "lungs", "label": "OBS-DP", "start_ix": 0, "end_ix": 0}],
        "labels14": [0] * 14,
    }

    def _write(self, tmp_path, row):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "patch, needle",
        [
            ({"labels14": [True, "1", 1.7] + [0] * 11}, "'labels14'"),
            ({"labels14": [True] + [0] * 13}, "'labels14'"),
            ({"labels14": ["1"] + [0] * 13}, "'labels14'"),
            ({"labels14": [1.7] + [0] * 13}, "'labels14'"),
            ({"labels14": [1.0] + [0] * 13}, "'labels14'"),
            ({"entity": {"start_ix": "0"}}, "'start_ix'"),
            ({"entity": {"end_ix": 0.9}}, "'end_ix'"),
            ({"entity": {"end_ix": False}}, "'end_ix'"),
            ({"study_id": None}, "'study_id'"),
            ({"study_id": True}, "'study_id'"),
            ({"study_id": 7.0}, "'study_id'"),
            ({"study_id": ["s0"]}, "'study_id'"),
            ({"entities": False}, "'entities'"),
            ({"entities": {}}, "'entities'"),
        ],
    )
    def test_wrong_kind_names_line_1(self, tmp_path, patch, needle):
        row = json.loads(json.dumps(self.ROW))
        row["entities"][0].update(patch.pop("entity", {}))
        row.update(patch)
        path = self._write(tmp_path, row)
        with pytest.raises(CorpusError, match=needle) as exc:
            load_corpus(path)
        assert str(exc.value).startswith(f"{path}: line 1: ")

    def test_integer_id_is_its_decimal_string(self, tmp_path):
        (record,) = load_corpus(self._write(tmp_path, {**self.ROW, "study_id": 7}))
        assert record.study_id == "7"
        assert record_from_json({**self.ROW, "study_id": 7}) == record


class TestRepeatedCorpusId:
    """A corpus that lists a study twice is rejected by name, as every id-keyed file is."""

    def _repeat_st000(self, tmp_path):
        paths = write_pipeline_fixture(tmp_path)
        lines = paths["corpus"].read_text(encoding="utf-8").splitlines(keepends=True)
        paths["corpus"].write_text("".join(lines + lines[:1]), encoding="utf-8")
        return paths, len(lines) + 1

    def test_load_corpus(self, tmp_path):
        paths, lineno = self._repeat_st000(tmp_path)
        with pytest.raises(CorpusError, match=f"line {lineno}: duplicate study_id 'st000'"):
            load_corpus(paths["corpus"])

    def test_score_names_the_ref_file(self, tmp_path, capsys):
        """The score stage alone reads its reference corpus back from filtered.jsonl, and names it."""
        paths = write_pipeline_fixture(tmp_path)
        assert main(["run", "--config", str(paths["config"])]) == 0
        filtered, scores = paths["out_dir"] / "filtered.jsonl", paths["out_dir"] / "scores.json"
        lines = filtered.read_text(encoding="utf-8").splitlines(keepends=True)
        filtered.write_text("".join(lines + lines[:1]), encoding="utf-8")
        before = scores.read_bytes()
        capsys.readouterr()
        assert main(["score", "--config", str(paths["config"])]) == 2
        assert f"{filtered}: line {len(lines) + 1}: duplicate study_id 'st000'" in capsys.readouterr().err
        assert scores.read_bytes() == before

    def test_run_fails_at_the_filter_stage(self, tmp_path, capsys):
        paths, lineno = self._repeat_st000(tmp_path)
        assert main(["run", "--config", str(paths["config"])]) == 2
        err = capsys.readouterr().err
        assert f"stage filter: {paths['corpus']}: line {lineno}: duplicate study_id" in err
        manifest = json.loads((paths["out_dir"] / "run_manifest.json").read_text())
        assert manifest["failed_stage"] == "filter"
        assert manifest["stages"] == []
        assert not (paths["out_dir"] / "index.bin").exists()


class TestEmbeddingsFile:
    def test_load_and_dimension_check(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"study_id": "a", "vec": [1.0, 2.0]}\n{"study_id": "b", "vec": [3.0]}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="dimension") as exc:
            load_embeddings(path)
        assert "line 2: vector of length 1 but corpus dimension is 2" in str(exc.value)

    def test_rows_keep_each_json_value_bits(self, tmp_path, rng):
        """Row i, column j of the matrix is float(<JSON value>) to the bit, ids in file
        order, over more rows than the reader first allocates."""
        lines = [
            '{"study_id": "edge", "vec": [-0.0, 5e-324, 1.7976931348623157e308, 3, 0.1]}',
            '{"vec": [1e-7, -2.5E+3, 123456789012345678901234567890, 2.2250738585072014e-308, 0], "study_id": 7}',
        ]
        lines += [
            json.dumps({"study_id": f"s{i}", "vec": [float(v) for v in rng.standard_normal(5) * 10.0 ** (i % 41 - 20)]})
            for i in range(1100)
        ]
        path = tmp_path / "emb.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        embeddings = load_embeddings(path)
        rows = [json.loads(line) for line in lines]
        assert len(embeddings) == len(lines)
        assert embeddings.ids == tuple(str(row["study_id"]) for row in rows)
        assert not embeddings.normalized
        assert embeddings.matrix.dtype == np.float64
        for i, row in enumerate(rows):
            assert [embeddings.matrix[i, j].hex() for j in range(5)] == [float(v).hex() for v in row["vec"]]

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"study_id": "a", "vec": [1.0]}\n{"study_id": "a", "vec": [2.0]}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="duplicate"):
            load_embeddings(path)


class TestFilter:
    def _record(self, text, study_id="s0"):
        return StudyRecord(
            study_id=study_id, report=ReportDocument(text), entities=()
        )

    def test_empty_reason(self):
        kept, dropped = filter_corpus([self._record("   ")], CorpusFilterConfig())
        assert kept == []
        assert dropped[0][1] == "empty"

    def test_junk_pattern(self):
        cfg = CorpusFilterConfig(junk_patterns=("is subnitted",))
        rec = self._record("Portable supine chest radiograph__at 23:16 is subnitted.")
        kept, dropped = filter_corpus([rec], cfg)
        assert kept == []
        assert dropped[0][1].startswith("junk:")

    def test_normal_report_kept(self, rng):
        words = " ".join(VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), size=50))
        kept, dropped = filter_corpus([self._record(words + ".")], CorpusFilterConfig(min_tokens=3))
        assert dropped == []
        assert len(kept) == 1

    def test_min_tokens(self):
        kept, dropped = filter_corpus([self._record("lungs clear")], CorpusFilterConfig(min_tokens=3))
        assert kept == []
        assert dropped[0][1] == "too_short"

    def test_partition_and_order(self, rng):
        records = [make_record(rng, study_id=f"s{i}") for i in range(30)]
        records[4] = self._record("", study_id="s4")
        cfg = CorpusFilterConfig(min_tokens=2, junk_patterns=("pneumothorax",))
        kept, dropped = filter_corpus(records, cfg)
        assert len(kept) + len(dropped) == len(records)
        recovered = sorted(kept + [r for r, _ in dropped], key=lambda r: r.study_id)
        assert recovered == sorted(records, key=lambda r: r.study_id)
        assert [r.study_id for r in kept] == [r.study_id for r in records if r in kept]

    def test_idempotent(self, rng):
        records = [make_record(rng, study_id=f"s{i}") for i in range(40)]
        cfg = CorpusFilterConfig(min_tokens=4, junk_patterns=("tube",))
        kept, _ = filter_corpus(records, cfg)
        kept_again, dropped_again = filter_corpus(kept, cfg)
        assert kept_again == kept
        assert dropped_again == []
