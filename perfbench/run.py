"""Benchmark of the spancores CLI on seeded synthetic workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload churn --seed 7 --seconds 30 --trace 0

``--trace 0`` runs the workload's subcommands as separate processes, one at a
time (a closed loop with one client), in rounds until ``--seconds`` have
passed, and reports medians over the rounds.  ``--trace 1`` runs the same
subcommands in-process through ``spancores.cli.main``, alternating an
untraced pass and a pass with every layer wrapped (see ``tracing.py``), and
reports per-layer numbers.  Either way the results are checked against the
oracles in ``checks.py`` outside the timed region.

Every metric is printed by name with its unit after the machine and input
facts; ``perfbench/results/BENCH_<workload>[_trace].json`` keeps the same
numbers with the raw samples; the last line of standard output is the JSON
result.  ``--record-golden`` rewrites ``golden.json`` from a default-seed run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
DEFAULT_SEED = 7

SETUP_SNIPPET = ("import json, sys; import spancores; "
                 "spancores.load_edge_list(sys.argv[1], **json.loads(sys.argv[2]))")
IMPORT_SNIPPET = ("import time; tick = time.perf_counter(); import spancores; "
                  "print(time.perf_counter() - tick)")

UNITS = {"peak_rss_mb": "MB", "failed_frac": "ratio", "maximal_cores.emit_ratio": "ratio",
         "span_cores.output_bytes": "bytes"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_norm"):
        return "ref"
    return "s" if name.endswith("_s") else "count"


def reference_work() -> float:
    """Wall time of a fixed pure-Python loop of dict, set and tuple work.

    The host's speed drifts by a quarter over tens of seconds, and CPU time
    drifts with it.  Timing this loop around every subcommand gives a yardstick
    of the host's current speed, so ``pipeline_norm`` compares across runs.
    The loop stays small in memory: a child's ``ru_maxrss`` starts from the
    peak RSS of the process that spawned it.
    """
    tick = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    for i in range(400_000):
        key = (i * 7919) & 4095
        table[key] = i
        seen.add((key & 255, i & 63))
    return time.perf_counter() - tick


def result_files(out_dir: Path, step) -> list[Path]:
    """The step's result file and its companions, without the provenance sidecar."""
    return sorted(p for p in out_dir.glob(step.output + "*") if not p.name.endswith(".meta.json"))


def digests(out_dir: Path, step) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in result_files(out_dir, step)}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_process(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Wall time, peak RSS (MB) and exit code of one child process."""
    with open(log, "wb") as err:
        tick = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - tick
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def _machine_facts(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "seed": seed}


def _input_facts(instance, g) -> dict:
    return {"lines": instance.lines, "vertices": g.n, "timestamps": g.t_max + 1,
            "temporal_edges": g.temporal_edge_count(), **instance.facts}


class Ledger:
    """Invocation outcomes of one run; a failure is a non-zero exit or a bad result."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems if p not in self.problems)


def _verify(instance, out_dir: Path, golden: bool, checked: dict) -> tuple[dict, object]:
    """Oracle (and golden, when asked) problems of each step's output in ``out_dir``."""
    import checks

    oracle = checks.Oracle(instance)
    problems = {}
    for step in instance.steps:
        if step.command not in checked:
            problems[step.command] = [f"{step.command}: no successful invocation to check"]
            continue
        problems[step.command] = oracle.check(step, out_dir)
        if golden:
            problems[step.command] += checks.golden_problems(
                instance.workload, step, checked[step.command])
    return problems, oracle


def timed_run(instance, seconds: float, work: Path, ledger: Ledger, golden: bool):
    """Process wall time of each subcommand, set-up time and peak RSS, in rounds.

    Nothing here imports ``spancores``: that would raise the runner's own peak
    RSS, which every child's ``ru_maxrss`` starts from.
    """
    env = _child_env()
    out, kept = work / "out", work / "checked"
    out.mkdir()
    kept.mkdir()
    setup_argv = [sys.executable, "-c", SETUP_SNIPPET, str(instance.input_path),
                  json.dumps(instance.load_kwargs)]
    walls: dict[str, list[float]] = {step.command: [] for step in instance.steps}
    scaled: dict[str, list[float]] = {step.command: [] for step in instance.steps}
    # per invocation: the result digests, or why it failed
    outcomes: dict[str, list[dict | str]] = {step.command: [] for step in instance.steps}
    setups, totals, norms, refs, rss = [], [], [], [], []
    checked: dict[str, dict] = {}  # the first good result of each step, kept for the oracle
    start = time.perf_counter()
    while not totals or time.perf_counter() - start < seconds:
        wall, _, code = _run_process(setup_argv, env, work / "setup.log")
        if code != 0:
            raise RuntimeError(f"set-up process failed: {(work / 'setup.log').read_text()}")
        setups.append(wall)
        total, peak = 0.0, 0.0
        before = reference_work()
        refs.append(before)
        for step in instance.steps:
            argv = [sys.executable, "-m", "spancores.cli", *instance.argv(step, out)]
            wall, maxrss, code = _run_process(argv, env, work / f"{step.command}.log")
            after = reference_work()
            scaled[step.command].append(2 * wall / (before + after))
            before = after
            refs.append(after)
            if code != 0:
                log = (work / f"{step.command}.log").read_text(errors="replace").strip()
                found = f"exit {code}: {log[-300:]}"
            else:
                found = digests(out, step)
                if step.command not in checked:
                    checked[step.command] = found
                    for path in result_files(out, step):
                        shutil.copy(path, kept / path.name)
            outcomes[step.command].append(found)
            walls[step.command].append(wall)
            total += wall
            peak = max(peak, maxrss)
        totals.append(total)
        norms.append(sum(scaled[c][-1] for c in scaled))
        rss.append(peak)

    # the floor under every child's peak_rss_mb (see reference_work)
    runner_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, oracle = _verify(instance, kept, golden, checked)
    for step in instance.steps:
        for found in outcomes[step.command]:
            if isinstance(found, str):
                ledger.record([f"{step.command}: {found}"])
            elif found != checked[step.command]:
                ledger.record([f"{step.command}: result differs between rounds"])
            else:
                ledger.record(problems[step.command])
    metrics = {"pipeline_norm": statistics.median(norms),
               "pipeline_s": statistics.median(totals),
               "reference_s": statistics.median(refs),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rss)}
    metrics.update({f"{c}_s": statistics.median(v) for c, v in walls.items()})
    metrics.update({f"{c}_norm": statistics.median(v) for c, v in scaled.items()})
    samples = {"rounds": len(totals), "pipeline_norm": norms, "pipeline_s": totals,
               "reference_s": refs, "setup_s": setups,
               "peak_rss_mb": rss, **{f"{c}_s": v for c, v in walls.items()}}
    details = {"samples": samples, "input": _input_facts(instance, oracle.g), "digests": checked,
               "runner_rss_mb": runner_rss}
    return metrics, details


def _in_process_pass(instance, cli, out: Path, tracer) -> list[dict]:
    """Every step run once through ``cli.main``: exit code, wall time, sidecar,
    result digests and, when traced, per-layer numbers."""
    from tracing import layer_metrics

    out.mkdir(parents=True, exist_ok=True)
    steps = []
    for step in instance.steps:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        tick = time.perf_counter()
        code = cli.main(instance.argv(step, out))
        wall = time.perf_counter() - tick
        result = {"code": code, "wall": wall, "layers": None,
                  "sidecar": {"timings_seconds": {}, "counters": {}}, "digests": None}
        if code == 0:
            sidecar = out / (step.output + ".meta.json")
            result["sidecar"] = json.loads(sidecar.read_text())["provenance"]
            result["digests"] = digests(out, step)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.reset())
        steps.append(result)
    return steps


def _traced_problems(step, traced: dict, reference: dict) -> list[str]:
    """A traced invocation must reproduce the untraced bytes, and its counters
    must equal the CLI's own work counters."""
    if traced["code"] != 0:
        return [f"{step.command}: traced in-process exit {traced['code']}"]
    problems = []
    if traced["digests"] != reference:
        problems.append(f"{step.command}: traced result differs from the untraced one")
    counters, layers = traced["sidecar"]["counters"], traced["layers"]
    for counter, metric in (("peel_vertices", "static_core.peel_vertices"),
                            ("intervals_processed", "span_cores.intervals")):
        if counter in counters and counters[counter] != layers[metric]:
            problems.append(f"{step.command}: traced {metric} {layers[metric]} != "
                            f"sidecar {counter} {counters[counter]}")
    return problems


def _pass_layers(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over the workload's steps."""
    layers: dict[str, float] = {}
    for step in traced:
        for name, value in step["layers"].items():
            if name == "graph.temporal_edges":  # one input, loaded once per step
                layers[name] = max(layers.get(name, 0), value)
            else:
                layers[name] = layers.get(name, 0) + value
    intervals = layers["maximal_cores.intervals"]
    layers["maximal_cores.emit_ratio"] = (layers["maximal_cores.emitted"] / intervals
                                          if intervals else 0.0)
    rows = layers["analytics.embed_rows"]
    embed_s = layers.pop("analytics.embed_s")
    layers["analytics.embed_row_ms"] = 1000 * embed_s / rows if rows else 0.0
    layers["cli.unaccounted_s"] = sum(
        p["wall"] - sum(p["sidecar"]["timings_seconds"].values()) for p in plain)
    layers["tracing_overhead_s"] = sum(t["wall"] for t in traced) - sum(p["wall"] for p in plain)
    return layers


def traced_run(instance, seconds: float, work: Path, ledger: Ledger, golden: bool):
    """Per-layer numbers from alternating untraced and traced in-process passes."""
    import spancores.cli as cli
    from tracing import Tracer

    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain = _in_process_pass(instance, cli, work / "plain", None)
        tracer.install()
        try:
            traced = _in_process_pass(instance, cli, work / "traced", tracer)
        finally:
            tracer.uninstall()
        passes.append((plain, traced))

    imports = []
    for _ in range(5):
        child = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=_child_env(),
                               check=True, capture_output=True, text=True)
        imports.append(float(child.stdout))

    # the oracle reads the last untraced pass, which is what is left on disk
    last = {step.command: r["digests"] for step, r in zip(instance.steps, passes[-1][0])
            if r["code"] == 0}
    problems, oracle = _verify(instance, work / "plain", golden, last)
    per_pass = []
    for plain, traced in passes:
        for step, p, t in zip(instance.steps, plain, traced):
            if p["code"] != 0:
                ledger.record([f"{step.command}: in-process exit {p['code']}"])
            elif p["digests"] != last.get(step.command):
                ledger.record([f"{step.command}: result differs between passes"])
            else:
                ledger.record(problems[step.command])
            ledger.record(_traced_problems(step, t, p["digests"]))
        if any(r["code"] != 0 for r in plain + traced):
            continue
        per_pass.append(_pass_layers(plain, traced))
    if not per_pass:
        raise RuntimeError("no traced pass completed: " + "; ".join(ledger.problems))
    counts = [{k: v for k, v in layers.items() if _unit(k) in ("count", "bytes")}
              for layers in per_pass]
    if any(c != counts[0] for c in counts):
        ledger.record(["traced work counts differ between passes"])
    metrics = {name: statistics.median(layers[name] for layers in per_pass)
               for name in per_pass[0]}
    metrics["cli.import_s"] = statistics.median(imports)
    samples = {"passes": len(passes), "cli.import_s": imports,
               "untraced_s": [sum(p["wall"] for p in plain) for plain, _ in passes],
               "traced_s": [sum(t["wall"] for t in traced) for _, traced in passes]}
    return metrics, {"samples": samples, "input": _input_facts(instance, oracle.g)}


def _record_golden(workload: str, checked: dict) -> None:
    import checks

    table = json.loads(checks.GOLDEN.read_text()) if checks.GOLDEN.exists() else {}
    table[workload] = dict(sorted((name, sha) for found in checked.values()
                                  for name, sha in found.items()))
    checks.GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def _report(args, instance, metrics: dict, details: dict, ledger: Ledger, elapsed: float):
    facts = _machine_facts(args.seed)
    print(f"# spancores benchmark: workload={args.workload} trace={args.trace} "
          f"seconds={args.seconds:g} elapsed={elapsed:.1f}")
    print("# machine: " + " ".join(f"{k}={v!r}" for k, v in facts.items()))
    print("# input: " + " ".join(f"{k}={v!r}" for k, v in details["input"].items()))
    print("# steps: " + " | ".join(" ".join((s.command,) + s.args) for s in instance.steps))
    print("# samples: " + " ".join(f"{k}={v}" for k, v in details["samples"].items()
                                   if isinstance(v, int)))
    if "runner_rss_mb" in details:
        print(f"# runner peak RSS before checks: {details['runner_rss_mb']:.1f} MB")
    for problem in ledger.problems:
        print(f"# FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6f} {_unit(name)}")
    RESULTS.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (RESULTS / f"BENCH_{args.workload}{suffix}.json").write_text(json.dumps(
        {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
         "machine": facts, **details, "attempted": ledger.attempted, "failed": ledger.failed,
         "problems": ledger.problems,
         "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}},
        indent=2) + "\n")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help=f"rewrite golden.json from this run (seed {DEFAULT_SEED}, trace 0)")
    args = parser.parse_args(argv)
    if not (SRC / "spancores" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no spancores package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.record_golden and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--record-golden needs --seed {DEFAULT_SEED} --trace 0")
    sys.path.insert(0, str(SRC))

    ledger = Ledger()
    golden = args.seed == DEFAULT_SEED and not args.record_golden
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tick = time.perf_counter()
    try:
        instance = workloads.generate(args.workload, args.seed, work)
        run = traced_run if args.trace else timed_run
        metrics, details = run(instance, args.seconds, work, ledger, golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record_golden:
        _record_golden(args.workload, details["digests"])
    metrics["failed_frac"] = ledger.failed / ledger.attempted
    _report(args, instance, metrics, details, ledger, time.perf_counter() - tick)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
