"""Which artifact bytes survive a change of numpy's SIMD dispatch or of OpenBLAS's kernel or thread count.

Six do (see ``sei.pipeline``, C8), ``shc.jsonl`` among them: its scores are
summed by numpy in a fixed order, so no BLAS setting moves them.  Each
environment also checks ``shc.jsonl`` against ``top_k_naive`` on that run's
``index.bin``, scores by ``float.hex``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import sei

# The artifacts no numeric-environment switch moves.  fusion.json follows
# numpy's dispatch and OpenBLAS's kernel, and run_manifest.json hashes it.
PORTABLE = ("filtered.jsonl", "sequences.jsonl", "normalized.jsonl", "index.bin", "shc.jsonl", "scores.json")
SWITCHES = {
    "numpy-without-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-two-threads": {"OPENBLAS_NUM_THREADS": "2"},
}
RUN = """
import hashlib, json, sys
from pathlib import Path
from conftest import patch_config, write_pipeline_fixture
from sei.pipeline import load_config, run_pipeline
from sei.retrieval import load_embeddings, load_index, top_k_naive
paths = write_pipeline_fixture(Path(sys.argv[1]), n=300, d=64)
patch_config(paths["config"], k=5)
run_pipeline(load_config(paths["config"]))
index, embeddings = load_index(paths["out_dir"] / "index.bin"), load_embeddings(paths["embeddings"])
rows = [json.loads(line) for line in (paths["out_dir"] / "shc.jsonl").read_text().splitlines()]
wrong = []
for row in rows:
    sid = row["study_id"]
    want = top_k_naive(index, embeddings.matrix[embeddings.row_of(sid)], 5, exclude_id=sid).hits
    if [(c["study_id"], float.hex(c["score"])) for c in row["cases"]] != [(i, float.hex(s)) for i, s in want]:
        wrong.append(sid)
hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths["out_dir"].iterdir()}
print(json.dumps({"hashes": hashes, "shc_rows": len(rows), "shc_wrong": wrong}))
"""


def run_in(root: Path, switch: dict[str, str]) -> dict:
    """A ``sei run`` over the n=300, d=64 fixture at k=5 in a child with ``switch`` set.

    BLAS runs on one thread unless ``switch`` sets ``OPENBLAS_NUM_THREADS``.
    Returns the sha256 of each artifact (``hashes``), the number of
    ``shc.jsonl`` rows and the ids of those that differ from ``top_k_naive``.
    """
    env = {name: value for name, value in os.environ.items() if name not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", **switch})
    env["PYTHONPATH"] = os.pathsep.join([str(Path(sei.__file__).parent.parent), str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(root)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"), reason="the CPU lacks AVX-512, so the kernel switches change nothing")
def test_portable_artifacts_keep_their_bytes_under_each_switch(tmp_path):
    """The six portable artifacts match the default run's bytes, and shc.jsonl matches ``top_k_naive``, in every child."""
    runs = {name: run_in(tmp_path / name, switch) for name, switch in {"default": {}, **SWITCHES}.items()}
    default = runs["default"]["hashes"]
    assert set(PORTABLE) < set(default)
    for name, run in runs.items():
        assert run["shc_rows"] > 0 and run["shc_wrong"] == [], name
        assert {a: run["hashes"][a] for a in PORTABLE} == {a: default[a] for a in PORTABLE}, name
