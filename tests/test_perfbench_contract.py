"""Smoke test of what perfbench/ uses of cowqkd.

perfbench prints its JSON result as the last line of stdout, and a crash
before that line leaves a run without a result.  This test drives, on a few
ops, every step before that line that reaches into cowqkd: the environment
line, each workload's self-test, one traced pass per workload and the
per-layer metrics built from it.  It runs in a subprocess, because importing
perfbench/run.py pins the math libraries' thread counts for the whole
process.  A binding that perfbench reports as missing is allowed: that is
how perfbench is meant to report a vanished layer.  Every metric must be
finite, because ``json.dumps`` writes NaN and infinity as bare ``NaN`` and
``Infinity``, which strict JSON readers reject.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import sys
sys.path.insert(0, "perfbench")
import run
run.load_source_tree()
import tracing
import workloads

print("environment:", run.environment())
for name, workload in workloads.WORKLOADS.items():
    inputs = workload.make_inputs(1)
    problem = workload.self_test(inputs)
    assert problem is None, problem
    ops = inputs[:min(workload.trace_ops, 8)]
    ledger = run.Ledger()
    tracer = tracing.Tracer()
    with tracer:
        wall, raws, _ = run.run_pass(workload, ops, ledger)
    assert ledger.tracebacks == 0 and all(raw is not None for raw in raws), name
    trials = sum(workload.trials(raw) for raw in raws) if name == "verify" else 0.0
    metrics = tracing.pass_metrics(tracer, wall, trials)
    metrics.update(tracing.optimizer_metrics(tracer))
    if name == "verify":
        metrics["event_fraction"] = sum(c.estimate for raw in raws for c in raw.cases[0].checks)
    metrics.update(tracing.sample_bytes_per_trial())
    json.dumps(metrics, allow_nan=False)
    print(name, len(metrics), "metrics; missing:", tracing.missing_bindings())
print("contract ok")
"""


def test_perfbench_runs_against_this_tree():
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "contract ok", done.stdout


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _assert_run_ends_in_a_strict_json_result(workload, trace, seconds="0.2"):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", seconds, "--trace", trace], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, result
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), (name, metric)
    return done.stdout


def test_traced_scan_run_ends_in_a_strict_json_result():
    # Long enough for two traced passes, so the per-layer medians are taken
    # over passes, as in a full-length run, not copied from a single one.
    out = _assert_run_ends_in_a_strict_json_result("scan", "1", seconds="1")
    notes = [line for line in out.splitlines() if "traced and" in line]
    assert len(notes) == 1, out
    assert int(notes[0].split()[0]) >= 2, notes[0]


def test_verify_run_ends_in_a_strict_json_result():
    # verify's correct flag rests on the oracle's 4-sigma gate
    _assert_run_ends_in_a_strict_json_result("verify", "0")
