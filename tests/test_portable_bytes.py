"""Which artifact bytes survive a change of numpy's SIMD dispatch or OpenBLAS's kernel (see ``sei.pipeline``, C8)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import sei

# The artifacts no numeric-environment switch moves.  fusion.json follows
# both switches, shc.jsonl follows OpenBLAS, and run_manifest.json hashes them.
PORTABLE = ("filtered.jsonl", "sequences.jsonl", "normalized.jsonl", "index.bin", "scores.json")
SWITCHES = {
    "numpy-without-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}
RUN = """
import hashlib, json, sys
from pathlib import Path
from conftest import write_pipeline_fixture
from sei.pipeline import load_config, run_pipeline
paths = write_pipeline_fixture(Path(sys.argv[1]), n=300, d=64)
run_pipeline(load_config(paths["config"]))
print(json.dumps({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths["out_dir"].iterdir()}))
"""


def artifact_hashes(root: Path, switch: dict[str, str]) -> dict[str, str]:
    """The sha256 of each artifact of a ``sei run`` over the n=300, d=64 fixture, in a child with ``switch`` set."""
    env = {name: value for name, value in os.environ.items() if name not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env.update(switch)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(sei.__file__).parent.parent), str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(root)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"), reason="the CPU lacks AVX-512, so neither switch changes a kernel")
def test_portable_artifacts_keep_their_bytes_under_each_switch(tmp_path):
    default = artifact_hashes(tmp_path / "default", {})
    assert set(PORTABLE) < set(default)
    for name, switch in SWITCHES.items():
        hashes = artifact_hashes(tmp_path / name, switch)
        assert {a: hashes[a] for a in PORTABLE} == {a: default[a] for a in PORTABLE}, name
