"""cowqkd benchmark: one workload end to end, or per layer with ``--trace 1``.

    python3 perfbench/run.py --workload scan|point|verify --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; it imports cowqkd from that checkout's
src/ and from nowhere else.  ``all`` runs every workload untraced and then
traced, each in its own process.  Every metric is printed by name with its
unit; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  perfbench/README.md says what
each workload and metric is for.
"""

from __future__ import annotations

import os

# Pin the math libraries to one thread before numpy loads one of them.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({name: "1" for name in THREAD_PINS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3   # timed fresh interpreters per run, after one discarded
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120
MAX_TRACEBACKS = 3
# The tail is taken per window of this many consecutive ops and the median
# over windows is reported.  Over a whole point run (~1e5 ops) the highest
# percentile with ten samples beyond it is p99.99, which is set by a handful
# of scheduler preemptions and moved by half its value from run to run.
TAIL_WINDOW = 1000


def load_source_tree() -> None:
    """Put the checkout's src/ first on sys.path, or exit without a result."""
    if not (SRC / "cowqkd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cowqkd source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import cowqkd

    if Path(cowqkd.__file__).resolve().parent != SRC / "cowqkd":
        sys.exit(f"perfbench: cowqkd was imported from {cowqkd.__file__}, not from {SRC}")


def environment() -> str:
    versions = " ".join(f"{name} {sys.modules[name].__version__}" for name in ("numpy", "scipy"))
    pins = " ".join(f"{name}={os.environ[name]}" for name in THREAD_PINS)
    return (f"python {platform.python_version()} {versions} "
            f"nproc {len(os.sched_getaffinity(0))} {pins}")


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# fresh-interpreter probes
# ---------------------------------------------------------------------------

def _probe_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_seconds(workload: str, seed: int) -> float:
    """Spawn to "ready": interpreter start, import cowqkd, build the inputs."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), "setup", workload, str(seed)],
                          stdout=subprocess.PIPE, text=True, env=_probe_env(), cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {child.returncode})")
    return elapsed


def import_seconds(module: str) -> float:
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), "import", module],
                          capture_output=True, text=True, env=_probe_env(), cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip())


def median_setup(workload: str, seed: int) -> float:
    setup_seconds(workload, seed)  # discarded: fills the OS file cache
    return statistics.median(setup_seconds(workload, seed) for _ in range(SETUP_PROBES))


# ---------------------------------------------------------------------------
# timed ops
# ---------------------------------------------------------------------------

class Ledger:
    """Ops attempted and failed, latencies and work done over a run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.work = 0.0
        self.tracebacks = 0

    def call(self, workload, inp):
        """Run one op; (raw result, or None when it raised, and latency in seconds)."""
        start = time.perf_counter()
        try:
            raw = workload.run(inp)
        except Exception:  # a failed op is counted by settle, and the run goes on
            raw = None
            self._report()
        return raw, time.perf_counter() - start

    def settle(self, workload, inp, raw) -> None:
        """Check one op's result and count it."""
        if raw is None:
            self._count(workload.failure(inp))
            return
        try:
            outcome = workload.check(inp, raw)
        except Exception:  # a malformed output is a failed op
            self._report()
            outcome = workload.failure(inp)
        self._count(outcome)

    def _count(self, outcome) -> None:
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.work += outcome.work

    def _report(self) -> None:
        self.tracebacks += 1
        if self.tracebacks <= MAX_TRACEBACKS:
            traceback.print_exc(file=sys.stderr)


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def windowed_tail(latencies: list[float]) -> tuple[float, float, int, int]:
    """(median tail, its percentile, ops per window, windows) over TAIL_WINDOW-op windows."""
    windows = [latencies[i:i + TAIL_WINDOW]
               for i in range(0, len(latencies) - TAIL_WINDOW + 1, TAIL_WINDOW)] or [latencies]
    tails = [tail_latency(w) for w in windows]
    return statistics.median(v for v, _ in tails), tails[0][1], len(windows[0]), len(windows)


def run_untraced(workload, inputs, seconds: float, ledger: Ledger) -> None:
    """Whole cycles of ops, closed loop, until ``seconds`` have passed."""
    Ledger().call(workload, inputs[0])  # warm-up op, discarded
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        inp = inputs[i % len(inputs)]
        raw, latency = ledger.call(workload, inp)
        ledger.settle(workload, inp, raw)
        ledger.latencies.append(latency)
        i += 1
        if i % workload.cycle == 0 and time.perf_counter() >= deadline:
            return


def end_to_end(workload, inputs, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, list[str]]:
    setup = median_setup(workload.name, seed)
    run_untraced(workload, inputs, seconds, ledger)
    lat = ledger.latencies
    tail, percentile, per_window, windows = windowed_tail(lat)
    metrics = {
        "setup_s": setup,
        "work_per_s": ledger.work / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    notes = [
        f"setup_s: median of {SETUP_PROBES} fresh interpreters after one discarded",
        f"work_per_s: {workload.unit_label} that passed their check per second of op time",
        f"latency_tail_ms: p{percentile:.2f} of {per_window} timed ops "
        f"({10 if per_window > 10 else 0} beyond it), median over {windows} window(s); "
        f"{len(lat)} ops timed",
        f"error_rate: {ledger.failed / ledger.attempted} "
        f"({ledger.failed} of {ledger.attempted} ops failed)",
    ]
    return metrics, notes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def run_pass(workload, ops, ledger: Ledger):
    """One timed pass over ``ops``: (wall seconds, raw results, op latencies).

    The caller checks the results after the pass, outside its wall time and
    outside any tracer.
    """
    start = time.perf_counter()
    calls = [ledger.call(workload, inp) for inp in ops]
    wall = time.perf_counter() - start
    return wall, [raw for raw, _ in calls], [latency for _, latency in calls]


def per_layer(workload, inputs, seconds: float, ledger: Ledger) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes over a fixed op list until ``seconds`` pass."""
    import tracing
    from workloads import CASE_LABELS, VerifyWorkload

    ops = inputs[:workload.trace_ops]
    Ledger().call(workload, ops[0])  # warm-up op, discarded
    untraced_walls, traced_walls, pass_metrics = [], [], []
    case_ms = {label: [] for label in CASE_LABELS}
    first_raws = None
    deadline = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < deadline:
        wall, raws, latencies = run_pass(workload, ops, ledger)
        untraced_walls.append(wall)
        for inp, raw in zip(ops, raws):
            ledger.settle(workload, inp, raw)
        if workload.name == "verify":
            for inp, latency in zip(ops, latencies):
                case_ms[inp.label].append(latency * 1e3)
        tracer = tracing.Tracer()
        with tracer:
            wall, raws, _ = run_pass(workload, ops, ledger)
        traced_walls.append(wall)
        for inp, raw in zip(ops, raws):
            ledger.settle(workload, inp, raw)
        trials = sum(VerifyWorkload.trials(r) for r in raws if r is not None) \
            if workload.name == "verify" else 0.0
        one_pass = tracing.pass_metrics(tracer, wall, trials)
        one_pass.update(tracing.optimizer_metrics(tracer))
        pass_metrics.append(one_pass)
        if first_raws is None:
            first_raws = raws

    metrics = {name: statistics.median(p[name] for p in pass_metrics) for name in pass_metrics[0]}
    metrics["trace.overhead_rel"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    metrics.update(tracing.sample_bytes_per_trial())
    texts = [raw[1] for raw in first_raws if raw is not None] if workload.name == "scan" else []
    metrics["cli.csv_bytes"] = statistics.fmean(len(t.encode()) for t in texts) if texts else 0.0
    reports = {inp.label: raw for inp, raw in zip(ops, first_raws)} if workload.name == "verify" else {}
    for label in CASE_LABELS:
        metrics[f"oracle.case_ms.{label}"] = statistics.median(case_ms[label]) if case_ms[label] else 0.0
        report = reports.get(label)
        checks = report.cases[0].checks if report is not None else ()
        metrics[f"oracle.event_fraction.{label}"] = \
            sum(c.estimate for c in checks) / (len(checks) / 2) if checks else 0.0
    metrics["setup.import_numpy_s"] = statistics.median(
        import_seconds("numpy") for _ in range(IMPORT_PROBES))
    metrics["setup.import_scipy_stats_s"] = statistics.median(
        import_seconds("scipy.stats") for _ in range(IMPORT_PROBES))
    notes = [f"{len(traced_walls)} traced and {len(untraced_walls)} untraced passes of "
             f"{len(ops)} ops; per-layer times are per call, medians over traced passes"]
    missing = tracing.missing_bindings()
    if missing:
        notes.append("missing layers (binding gone, metric not reported): " + ", ".join(missing))
    return metrics, notes


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_source_tree()
    from workloads import WORKLOADS

    e2e_units, layer_units = declared_units()
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    try:
        problem = workload.self_test(inputs)
    except Exception as exc:  # the program failed on the self-test's clean op
        problem = f"{name} self-test raised {exc!r}"
    ledger = Ledger()
    if trace:
        metrics, notes = per_layer(workload, inputs, seconds, ledger)
        units = layer_units
    else:
        metrics, notes = end_to_end(workload, inputs, seed, seconds, ledger)
        units = e2e_units
    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"environment: {environment()}")
    print(f"self-test: {problem or 'a corrupted op is counted as failed'}")
    for name_ in sorted(units):
        if name_ in metrics:
            print(f"  {name_:40s} {metrics[name_]:.6g} {units[name_]}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": problem is None and ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units) if k in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    worst = 0
    for name in ("scan", "point", "verify"):
        for trace in (0, 1):
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                   "--seed", str(seed), "--seconds", f"{seconds:g}",
                                   "--trace", str(trace)], cwd=ROOT, check=False)
            worst = max(worst, done.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "point", "verify", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
