"""The benchmark workloads' result files stay byte-identical.

For each workload at the benchmark's default seed, the input is generated
with ``perfbench/workloads.generate`` into a temporary directory, every step
runs through ``cli.main``, and the SHA-256 of each result file is compared
with ``perfbench/golden.json``.  Nothing is written under ``perfbench/``.
"""

import hashlib
import json
from pathlib import Path

import pytest

import spancores.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
SEED = 7  # perfbench/run.py's DEFAULT_SEED, the seed golden.json is recorded at


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_result_files_match_the_golden_digests(workloads, tmp_path, workload):
    instance = workloads.generate(workload, SEED, tmp_path / "input")
    out = tmp_path / "out"
    for step in instance.steps:
        assert cli.main(instance.argv(step, out)) == 0, step.command
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir() if not path.name.endswith(".meta.json")}
    assert digests == GOLDEN[workload]
