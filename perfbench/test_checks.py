"""The output checks catch a corrupted artifact."""

import json
import math
import os
import shutil

import pytest

import inputs
import worker
from sei import cli


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    inputs.write_pipeline_inputs(root, n=120, d=8, seed=9, k=3)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert cli.main(["run", "--config", "config.json"]) == 0
    finally:
        os.chdir(cwd)
    return root


def check(root, shc):
    return worker.check_shc(shc, root / "out" / "index.bin", root / "emb.jsonl", k=3, seed=9)


def test_clean_shc_passes_with_tie_rows(pipeline_run):
    rows = [json.loads(line) for line in (pipeline_run / "out" / "shc.jsonl").read_text().splitlines()]
    assert worker.tie_rows(rows), "the duplicate embeddings should produce tied scores"
    compared, failures = check(pipeline_run, pipeline_run / "out" / "shc.jsonl")
    assert compared >= len(rows) and failures == []


@pytest.mark.parametrize("corruption", ["score", "order"])
def test_one_corrupted_row_is_flagged(pipeline_run, tmp_path, corruption):
    copy = tmp_path / "shc.jsonl"
    shutil.copy(pipeline_run / "out" / "shc.jsonl", copy)
    lines = copy.read_text().splitlines()
    row = json.loads(lines[7])
    if corruption == "score":
        row["cases"][0]["score"] = math.nextafter(row["cases"][0]["score"], math.inf)
    else:
        row["cases"][0], row["cases"][1] = row["cases"][1], row["cases"][0]
    lines[7] = json.dumps(row, sort_keys=True)
    copy.write_text("\n".join(lines) + "\n")
    compared, failures = check(pipeline_run, copy)
    assert len(failures) == 1 and row["study_id"] in failures[0]
