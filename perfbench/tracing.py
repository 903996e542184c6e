"""Spans around calls into each cowqkd module, recorded from outside ``src/``.

A span wraps a public name at the binding its caller looks it up in (for
example ``cowqkd.optimize.full_gain_set``, which ``evaluate_point`` calls)
and is removed again after the traced pass.  Self time is a span's duration
minus the time of the spans it encloses.  A binding that no longer exists is
reported as missing by name, never as a zero.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import cowqkd.optimize

# (span, module, attribute): the attribute is looked up on the module at call
# time by the caller named in the comment.
SPANS = (
    ("cli.main", "cowqkd.cli", "main"),                                   # the scan workload
    ("cli.scan", "cowqkd.cli", "scan"),                                   # cli._cmd_scan
    ("optimize.optimize_point", "cowqkd.optimize", "optimize_point"),     # optimize.scan
    ("optimize.evaluate_point", "cowqkd.optimize", "evaluate_point"),     # optimize_point, point workload
    ("gains.full_gain_set", "cowqkd.optimize", "full_gain_set"),          # evaluate_point
    ("security.bit_error_z", "cowqkd.optimize", "bit_error_z"),
    ("security.gain_bounds", "cowqkd.optimize", "gain_bounds"),
    ("security.phase_error_upper", "cowqkd.optimize", "phase_error_upper"),
    ("security.bit_error_x", "cowqkd.optimize", "bit_error_x"),
    ("security.key_rate", "cowqkd.optimize", "key_rate_cow"),
    ("security.key_rate", "cowqkd.optimize", "key_rate_nonclassical"),
    ("params.construct", "cowqkd.params", "SystemParams.__init__"),       # every construction
    ("oracle.run_verification", "cowqkd.oracle", "run_verification"),     # the verify workload
    ("oracle.estimate", "cowqkd.oracle", "estimate_data_gains"),          # run_verification
    ("oracle.estimate", "cowqkd.oracle", "estimate_monitoring_gains"),
    ("oracle.sample_clicks", "cowqkd.oracle", "sample_clicks"),           # estimate_*
)
# Spans whose arguments and results the derived ratios need.
RECORDED = {"optimize.optimize_point", "optimize.evaluate_point", "security.phase_error_upper"}
# Public name called after a pass to tell a trivial phase-error bound.
RAW_PHASE_ERROR = ("cowqkd.security", "phase_error_upper_raw")


def resolve(module: str, attribute: str):
    """(owner, leaf name, value) of module.attribute, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None) if isinstance(owner, type) else owner.__dict__.get(leaf)
    return None if value is None else (owner, leaf, value)


def _grid_only_config():
    """ScanConfig when it still has the refine_iters field the grid probe sets."""
    found = resolve("cowqkd.optimize", "ScanConfig")
    if found and "refine_iters" in {f.name for f in dataclasses.fields(found[2])}:
        return found[2]
    return None


def missing_bindings() -> list[str]:
    """Every wrapped or probed binding that cannot be found, as module.attribute."""
    gone = [f"{m}.{a}" for _, m, a in SPANS if resolve(m, a) is None]
    if resolve(*RAW_PHASE_ERROR) is None:
        gone.append(".".join(RAW_PHASE_ERROR))
    if _grid_only_config() is None:
        gone.append("cowqkd.optimize.ScanConfig.refine_iters")
    return gone


class Tracer:
    """Install spans with ``with tracer:``; statistics accumulate per span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.records: dict[str, list] = defaultdict(list)
        self.covered = 0.0  # time inside outermost spans
        self.present: set[str] = set()
        self._stack: list[float] = []
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for span, module, attribute in SPANS:
            found = resolve(module, attribute)
            if found is None:
                continue
            owner, leaf, original = found
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(span, original))
            self.present.add(span)
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def _wrap(self, span: str, fn):
        record = span in RECORDED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                self.calls[span] += 1
                self.total[span] += elapsed
                self.self_time[span] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed
                else:
                    self.covered += elapsed
            if record:
                self.records[span].append((args, kwargs, result))
            return result

        return wrapper

    def mean(self, span: str, scale: float, self_only: bool = False) -> float:
        """Mean duration per call times scale; 0.0 when the span never ran."""
        calls = self.calls[span]
        times = self.self_time if self_only else self.total
        return times[span] / calls * scale if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric: (span, scale to the metric's unit, the child span whose time a
# self-time metric leaves out, or None for the inclusive mean per call)
DURATIONS = {
    "optimize.evaluate_point_us": ("optimize.evaluate_point", 1e6, None),
    "gains.full_gain_set_us": ("gains.full_gain_set", 1e6, None),
    "security.bit_error_z_us": ("security.bit_error_z", 1e6, None),
    "security.gain_bounds_us": ("security.gain_bounds", 1e6, None),
    "security.phase_error_upper_us": ("security.phase_error_upper", 1e6, None),
    "security.bit_error_x_us": ("security.bit_error_x", 1e6, None),
    "security.key_rate_us": ("security.key_rate", 1e6, None),
    "params.construct_us": ("params.construct", 1e6, None),
    "oracle.sample_clicks_ms": ("oracle.sample_clicks", 1e3, None),
    "oracle.estimate.self_ms": ("oracle.estimate", 1e3, "oracle.sample_clicks"),
    "oracle.verify.self_ms": ("oracle.run_verification", 1e3, "oracle.estimate"),
    "cli.main.self_ms": ("cli.main", 1e3, "cli.scan"),
}
COUNTED = ("optimize.optimize_point", "optimize.evaluate_point", "gains.full_gain_set",
           "params.construct", "oracle.sample_clicks")


def pass_metrics(tracer: Tracer, wall: float, trials: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds."""
    m: dict[str, float] = {}
    for name, (span, scale, child) in DURATIONS.items():
        if span in tracer.present and (child is None or child in tracer.present):
            m[name] = tracer.mean(span, scale, self_only=child is not None)
    for span in COUNTED:
        if span in tracer.present:
            m[f"{span}.calls"] = tracer.calls[span]
    if "oracle.sample_clicks" in tracer.present:
        m["oracle.sample_ns_per_trial"] = _ratio(tracer.total["oracle.sample_clicks"] * 1e9, trials)
    if "optimize.evaluate_point" in tracer.present:
        points = [result for _, _, result in tracer.records["optimize.evaluate_point"]]
        m["security.zero_rate_fraction"] = _ratio(sum(p.R == 0.0 for p in points), len(points))
    m["trace.uncovered_fraction"] = _ratio(wall - tracer.covered, wall)

    found = resolve(*RAW_PHASE_ERROR)
    if found is not None and "security.phase_error_upper" in tracer.present:
        records = tracer.records["security.phase_error_upper"]
        m["security.trivial_bound_fraction"] = _ratio(
            sum(found[2](*args, **kwargs) > 0.5 for args, kwargs, _ in records), len(records))
    return m


def optimizer_metrics(tracer: Tracer) -> dict[str, float]:
    """Grid cost, refinement cost and usefulness of one traced pass's optimize_point calls.

    Re-runs each recorded call with ``refine_iters=0`` under a fresh tracer:
    its self time is the grid surface, and the rest of the full call's self
    time is the golden-section refinement.
    """
    needed = ("cli.main", "optimize.optimize_point", "optimize.evaluate_point")
    if not all(s in tracer.present for s in needed) or _grid_only_config() is None:
        return {}
    full = tracer.records["optimize.optimize_point"]
    if not full:
        return {name: 0.0 for name in (
            "optimize.grid_ms", "optimize.refine_ms", "optimize.refine_share",
            "optimize.refined_fraction", "optimize.refine_gain_rel", "optimize.box_edge_fraction")}
    grid_tracer = Tracer()
    with grid_tracer:
        grid = [cowqkd.optimize.optimize_point(args[0], dataclasses.replace(args[1], refine_iters=0))
                for args, _, _ in full]
    grid_ms = grid_tracer.mean("optimize.optimize_point", 1e3, self_only=True)

    refined, gains, edges = 0, [], 0
    for (args, _, best), coarse in zip(full, grid):
        config = args[1]
        cow = config.protocol is cowqkd.optimize.Protocol.COW
        rate_grid = coarse.R if cow else coarse.R_tilde
        rate_best = best.R if cow else best.R_tilde
        if rate_grid > 0.0:
            refined += 1
            gains.append(rate_best / rate_grid - 1.0)
            edges += (coarse.mu_opt in (config.mu_min, config.mu_max)
                      or coarse.tB_opt in (config.tb_min, config.tb_max))
    refine_ms = tracer.mean("optimize.optimize_point", 1e3, self_only=True) - grid_ms
    return {
        "optimize.grid_ms": grid_ms,
        "optimize.refine_ms": refine_ms,
        "optimize.refine_share": _ratio(refine_ms * len(full), tracer.total["cli.main"] * 1e3),
        "optimize.refined_fraction": refined / len(full),
        "optimize.refine_gain_rel": statistics.fmean(gains) if gains else 0.0,
        "optimize.box_edge_fraction": _ratio(edges, refined),
    }


def sample_bytes_per_trial() -> dict[str, float]:
    """Peak bytes numpy allocates inside sample_clicks per trial (two detectors).

    Computed from tracemalloc on one probe call outside every timed span, so
    it follows the implementation rather than a hand count.
    """
    found = resolve("cowqkd.oracle", "sample_clicks")
    if found is None:
        return {}
    n = 200_000
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        found[2](0.1, 1e-6, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"oracle.bytes_per_trial_computed": 2.0 * peak / n}
