"""The benchmark workloads' result files stay byte-identical, and their work
stays the same.

For each workload at the benchmark's default seed, the input is generated
with ``perfbench/workloads.generate`` into a temporary directory, and every
step runs through ``cli.main``.  The SHA-256 of each result file is compared
with ``perfbench/golden.json``, and each step's sidecar counters with
``WORK`` below.  Nothing is written under ``perfbench/``.
"""

import hashlib
import json
from pathlib import Path

import pytest

import spancores.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
SEED = 7  # perfbench/run.py's DEFAULT_SEED, the seed golden.json is recorded at

# The sidecar counters of each step at SEED, by workload and result file.  A
# change that does more work (or less) fails here, not only in a traced
# benchmark run; one that changes the work on purpose updates these and says
# why.
WORK = {
    "churn": {
        "decompose.jsonl": {"dropped_self_loops": 0, "intervals_processed": 429,
                            "peel_vertices": 41_944, "records": 13_743,
                            "temporal_edges": 21_249},
        "maximal.jsonl": {"dropped_self_loops": 0, "peel_vertices": 108, "records": 13,
                          "temporal_edges": 21_249},
    },
    "horizon": {
        "maximal.jsonl": {"dropped_self_loops": 0, "peel_vertices": 828, "records": 106,
                          "temporal_edges": 87_307},
        "tcs.json": {"candidate_ends": 379, "dp_runs": 26_510, "dropped_self_loops": 0,
                     "objective": 94, "peel_vertices": 15_400, "temporal_edges": 87_307},
        "anomalies.tsv": {"dropped_self_loops": 0, "flagged_timestamps": 0,
                          "flagged_vertex_steps": 8_213, "peel_vertices": 828,
                          "temporal_edges": 87_307},
    },
    "embed": {
        "embed.tsv": {"candidate_ends": 3_618, "dp_runs": 21_021, "dropped_self_loops": 0,
                      "peel_vertices": 6_405, "temporal_edges": 4_031},
    },
}


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


@pytest.mark.parametrize("workload", sorted(WORK))
def test_sidecar_counters_match_the_work_goldens(workloads, tmp_path, workload):
    instance = workloads.generate(workload, SEED, tmp_path / "input")
    out = tmp_path / "out"
    counters = {}
    for step in instance.steps:
        assert cli.main(instance.argv(step, out)) == 0, step.command
        meta = json.loads((out / f"{step.output}.meta.json").read_text())
        counters[step.output] = meta["provenance"]["counters"]
    assert counters == WORK[workload]
