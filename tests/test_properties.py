"""Property tests: the array path equals the scalar chain bit for bit.

The scan's grid, refinement and rows evaluate the chain on arrays, and
``evaluate_point`` and the ``point`` report on one point's floats.  The
reference is the public step API, one call at a time (``stepwise_point``).
Hypothesis draws operating points over the validated parameter space (p_d and
e_a include 0, mu spans 1e-5 to 30, L spans 0 to 300 km, both variants and
both protocols) and requires identical floats on every path, and identical
active scans from the tb_max column grid and from the full grid with a scalar
golden-section mu pass.  The oracle's event-counted sequences give the
counts of its mask-counted ones, on drawn event multisets and on whole seeded
sequences.  Runs are derandomized, so a failure reproduces.
"""

from __future__ import annotations

import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest

import cowqkd.oracle as oracle
from cowqkd import Protocol, ScanConfig, SystemParams, evaluate_point, scan
from cowqkd.cli import main
from cowqkd.optimize import _objective_surface
from cowqkd.params import total_transmittance
from conftest import stepwise_point
from test_optimize import reference_scan

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _log_uniform(lo: float, hi: float):
    return st.floats(np.log(lo), np.log(hi)).map(lambda x: float(np.exp(x)))


_links = st.fixed_dictionaries({
    "L_km": st.floats(0.0, 300.0),
    "p_d": st.one_of(st.just(0.0), _log_uniform(1e-10, 1e-4)),
    "eta_d": st.floats(0.05, 1.0),
    "e_a": st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
    "f_ec": st.floats(1.0, 1.5),
    "variant": st.sampled_from(["passive", "active"]),
})
_settings = st.tuples(_log_uniform(1e-5, 30.0), st.floats(0.001, 0.999))


def _valid_point(params: SystemParams):
    """stepwise_point at params, or None where it rejects them (e.g. Q_aa_M0 > 1)."""
    try:
        return stepwise_point(params)
    except ValueError:
        return None


@PROPERTY_SETTINGS
@given(link=_links, points=st.lists(_settings, min_size=1, max_size=4))
def test_objective_surface_equals_evaluate_point(link, points):
    sites = [SystemParams(mu=mu, t_B=t_b, **link) for mu, t_b in points]
    results = [_valid_point(site) for site in sites]
    assume(any(r is not None for r in results))
    mu = np.array([p.mu for p in sites])
    t_b = np.array([p.t_B for p in sites])
    eta = total_transmittance(sites[0])
    with np.errstate(all="ignore"):  # rejected points may overflow on the grid
        r = _objective_surface(sites[0], eta, mu, t_b, Protocol.COW)
        r_tilde = _objective_surface(sites[0], eta, mu, t_b, Protocol.NONCLASSICAL)
    for k, point in enumerate(results):
        if point is not None:
            assert (point.R, point.R_tilde) == (r[k], r_tilde[k]), sites[k]


@PROPERTY_SETTINGS
@given(link=_links, setting=_settings, protocol=st.sampled_from(list(Protocol)))
def test_point_report_equals_evaluate_point(link, setting, protocol):
    params = SystemParams(mu=setting[0], t_B=setting[1], **link)
    argv = ["point", "--L", repr(params.L_km), "--pd", repr(params.p_d),
            "--eta-d", repr(params.eta_d), "--ea", repr(params.e_a), "--f", repr(params.f_ec),
            "--mu", repr(params.mu), "--tb", repr(params.t_B),
            "--variant", params.variant.value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    try:
        point = stepwise_point(params, protocol)
    except ValueError as exc:
        assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {exc}\n")
        return
    assert code == 0
    report = dict(line.split("=", 1) for line in out.getvalue().splitlines())
    assert (report["Ep_u"], report["Ex"], report["R"], report["R_tilde"]) == (
        repr(point.E_p_u), repr(point.E_x), repr(point.R), repr(point.R_tilde))


def _outcome(run):
    """run()'s result, or the type and message of the ValueError it raises."""
    try:
        return run()
    except ValueError as exc:
        return type(exc), str(exc)


@PROPERTY_SETTINGS
@given(link=_links, setting=_settings, protocol=st.sampled_from(list(Protocol)))
def test_evaluate_point_equals_stepwise_point(link, setting, protocol):
    # the same RatePoint, or the same error type and message
    params = SystemParams(mu=setting[0], t_B=setting[1], **link)
    with np.errstate(all="ignore"):
        assert _outcome(lambda: evaluate_point(params, protocol)) == _outcome(
            lambda: stepwise_point(params, protocol))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(link=_links, distances=st.lists(st.floats(0.0, 150.0), min_size=1, max_size=3),
       mu_box=st.tuples(_log_uniform(1e-5, 0.1), _log_uniform(1.5, 1e7)),
       tb_box=st.tuples(st.floats(0.001, 0.5), st.floats(0.5, 0.999)),
       n_tb=st.integers(2, 9), refine_iters=st.integers(0, 5),
       mu_fixed=st.one_of(st.none(), st.none(), _log_uniform(1e-5, 1e4),
                          st.sampled_from([800.0, 1e4])),
       protocol=st.sampled_from(list(Protocol)))
def test_active_scan_equals_reference_scan(link, distances, mu_box, tb_box, n_tb, refine_iters,
                                           mu_fixed, protocol):
    # mu_max reaches 1e6 and mu_fixed 1e4, where exp(mu) overflows: NaN grid
    # cells, and rows that raise
    assume(tb_box[0] < tb_box[1])
    base = SystemParams(mu=0.1, t_B=0.5, **dict(link, variant="active"))
    config = ScanConfig(L_values=tuple(distances), mu_min=mu_box[0],
                        mu_max=mu_box[0] * mu_box[1], n_mu=12, tb_min=tb_box[0],
                        tb_max=tb_box[1], n_tb=n_tb, refine_iters=refine_iters,
                        protocol=protocol, mu_fixed=mu_fixed)
    with np.errstate(all="ignore"):
        assert _outcome(lambda: scan(base, config)) == _outcome(
            lambda: reference_scan(base, config))


@st.composite
def _click_events(draw):
    """(n, [(dark, photons)] for two detectors): dark trials distinct, photon trials repeating."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, 300)))
    trial = st.integers(0, n - 1)
    events = []
    for _ in range(2):
        dark = draw(st.lists(trial, unique=True, max_size=n))
        photons = draw(st.lists(trial, max_size=2 * n))
        events.append((np.array(dark, dtype=np.int64), np.array(photons, dtype=np.int64)))
    return n, events


@PROPERTY_SETTINGS
@given(sequence=_click_events())
def test_event_counts_equal_mask_counts(sequence):
    n, events = sequence
    masks = []
    for dark, photons in events:
        clicks = np.zeros(n, dtype=bool)
        clicks[dark] = True
        clicks[photons] = True
        masks.append(clicks)
    a, b = masks
    expected = (np.count_nonzero(a), np.count_nonzero(b), np.count_nonzero(a & b))
    trials = [oracle._distinct_trials(dark, photons) for dark, photons in events]
    assert oracle._event_counts(*trials) == expected


@PROPERTY_SETTINGS
@given(lambdas=st.tuples(*[st.one_of(st.just(0.0), _log_uniform(1e-4, 3.0))] * 2),
       p_d=st.one_of(st.just(0.0), _log_uniform(1e-6, 1.0)), n=st.integers(0, 3000),
       seed=st.integers(0, 2 ** 64 - 1))
def test_both_counting_routes_give_the_same_sequence_counts(lambdas, p_d, n, seed):
    # each route forced in turn, on the same substream
    counts = []
    for route_max in (math.inf, 0.0):
        rng = oracle._substream(seed, 0)
        with mock.patch.object(oracle, "_EVENT_ROUTE_MAX", route_max):
            counts.append(oracle._squashed_sequence(*lambdas, p_d, n, rng))
    assert counts[0] == counts[1]
