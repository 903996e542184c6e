"""Property tests: the array path equals the scalar chain bit for bit.

The scan's grid, refinement and rows evaluate the chain on arrays, and
``evaluate_point`` and the ``point`` report on one point's floats.  The
reference is the public step API, one call at a time (``stepwise_point``).
Hypothesis draws operating points over the validated parameter space (p_d and
e_a include 0, mu spans 1e-5 to 30, L spans 0 to 300 km, both variants and
both protocols) and requires identical floats on every path, and the full
grid's incumbents from the active scan's tb_max column grid.  The complex step
through the chain equals a real difference of R, and the phase-error bracket
obeys the parallelogram inequality.  The oracle's event-counted sequences give
the counts of its mask-counted ones, on drawn event multisets and on whole
seeded sequences.  Runs are derandomized, so a failure reproduces.
"""

from __future__ import annotations

import contextlib
import io
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import cowqkd.oracle as oracle
from cowqkd import (Protocol, ScanConfig, SystemParams, evaluate_point, full_gain_set,
                    gain_bounds, scan)
from cowqkd.cli import main
from cowqkd.optimize import _objective_surface
from cowqkd.params import total_transmittance
from cowqkd.security import _accepted, _rate_chain
from conftest import stepwise_point
from test_optimize import reference_grid

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
def test_active_scan_refines_the_full_grid_incumbent(link, distances, mu_box, tb_box, n_tb,
                                                     refine_iters, mu_fixed, protocol):
    # The tb_max column grid finds the full grid's incumbent: with
    # refine_iters=0 the rows are the full grid's, errors included.  The Newton
    # step then moves mu alone and never loses to the incumbent.  mu_max reaches
    # 1e6 and mu_fixed 1e4, where exp(mu) overflows: NaN grid cells, and rows
    # that raise.
    assume(tb_box[0] < tb_box[1])
    base = SystemParams(mu=0.1, t_B=0.5, **dict(link, variant="active"))
    config = ScanConfig(L_values=tuple(distances), mu_min=mu_box[0],
                        mu_max=mu_box[0] * mu_box[1], n_mu=12, tb_min=tb_box[0],
                        tb_max=tb_box[1], n_tb=n_tb, refine_iters=refine_iters,
                        protocol=protocol, mu_fixed=mu_fixed)
    grid = replace(config, refine_iters=0)

    def full_grid_rows():
        rate, mu, t_b, _, _ = reference_grid(base, config)
        return [stepwise_point(replace(base, L_km=L, mu=float(m), t_B=float(t)), protocol)
                for L, m, t in zip(distances, mu, t_b)]

    with np.errstate(all="ignore"):
        expected = _outcome(full_grid_rows)
        assert _outcome(lambda: scan(base, grid)) == expected
        refined = _outcome(lambda: scan(base, config))
    if isinstance(expected, tuple) or isinstance(refined, tuple):
        return  # a row that raises; a refined row may raise where its grid cell did not
    for point, start in zip(refined, expected):
        assert point.tB_opt == start.tB_opt
        assert (point.R, point.R_tilde)[protocol is Protocol.NONCLASSICAL] >= (
            start.R, start.R_tilde)[protocol is Protocol.NONCLASSICAL]
        if start.flag or mu_fixed is not None:
            assert point == start


# Links and settings where most rates are positive and no clamp is active.
_rate_links = st.fixed_dictionaries({
    "L_km": st.floats(0.0, 100.0),
    "p_d": _log_uniform(1e-10, 1e-5),
    "eta_d": st.floats(0.2, 1.0),
    "e_a": st.floats(0.001, 0.05),
    "f_ec": st.floats(1.0, 1.5),
    "variant": st.sampled_from(["passive", "active"]),
})
_interior = st.one_of(
    st.tuples(_log_uniform(1e-4, 0.05), st.floats(0.01, 0.99), st.just(Protocol.COW)),
    st.tuples(_log_uniform(1e-3, 1.0), st.floats(0.01, 0.99), st.just(Protocol.NONCLASSICAL)))


def _richardson(f, x, h):
    """Central difference of f at x, Richardson-extrapolated from steps h and h / 2."""
    def central(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


@PROPERTY_SETTINGS
@given(link=_rate_links, setting=_interior)
def test_complex_step_equals_richardson_difference(link, setting):
    # The chain takes complex mu and t_B without a warning, and where no clamp
    # is active, Im R(x + ih) / h equals a real central difference of R in
    # log mu and in t_B, extrapolated to h^4, to 1e-7 relative (of the larger
    # of the derivative and R).  The difference's own error sets the
    # tolerance: its truncation is about 1e-13 relative, and R's rounding, a
    # few eps Q_z away from the reach, over the step (1e-3 in log mu, 1e-4 in
    # t_B) stays near 1e-8 of R where R >= 1e-3 Q_z.
    mu, t_b, protocol = setting
    site = SystemParams(mu=mu, t_B=t_b, **link)
    eta = total_transmittance(site)
    cow = protocol is Protocol.COW
    chain = _rate_chain(site, eta, mu, t_b)
    rate = chain.R if cow else chain.R_tilde
    error = chain.E_p_u_raw if cow else chain.E_x_raw
    assume(bool(_accepted(chain)) and rate > 1e-3 * chain.Q_z and 0.0 < error < 0.5)
    assume(0.0 < chain.E_b and chain.Q_0x_M0_lower > 0.0 and chain.Q_0x_M1_upper < 1.0)
    h = 1e-30
    mu_c, t_c = np.array([mu, mu * complex(1.0, h)]), np.array([t_b + complex(0.0, h), t_b])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d_tb, d_log_mu = _objective_surface(site, eta, mu_c, t_c, protocol).imag / h
    expected_mu = _richardson(
        lambda x: _objective_surface(site, eta, math.exp(x), t_b, protocol), math.log(mu), 1e-3)
    expected_tb = _richardson(
        lambda x: _objective_surface(site, eta, mu, x, protocol), t_b, 1e-4)
    for got, want in ((d_log_mu, expected_mu), (d_tb, expected_tb)):
        assert abs(got - want) <= 1e-7 * max(abs(want), rate), (got, want, rate)


@PROPERTY_SETTINGS
@given(link=st.fixed_dictionaries({
    "L_km": st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
    "p_d": st.one_of(st.just(0.0), _log_uniform(1e-12, 0.5)),
    "eta_d": st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    "e_a": st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True)),
    "f_ec": st.just(1.1),
    "variant": st.sampled_from(["passive", "active"]),
}), setting=st.tuples(_log_uniform(1e-300, 700.0), st.floats(1e-6, 1.0 - 1e-6)))
def test_phase_error_bracket_obeys_the_parallelogram_inequality(link, setting):
    # N+ Q_0x_M0 <= 2 (Q_0z_M0 + Q_1z_M0), the parallelogram law for the even
    # superposition, and the Cauchy lower bound is below Q_0x_M0: so the
    # bracket 2 (Q_0z_M0 + Q_1z_M0) - N+ Q_0x_M0_lower is >= 0, inside and
    # outside the search box, up to 8 ulps of its first term.  Where the bound
    # is tight, rounding does make it negative (see
    # test_phase_error_floor_is_reached_where_the_bound_is_tight), so
    # _phase_error_kernel keeps its floor at 0.
    params = SystemParams(mu=setting[0], t_B=setting[1], **link)
    try:
        with np.errstate(all="ignore"):
            gains = full_gain_set(params)
            bounds = gain_bounds(gains.Q_aa_M0, gains.Q_aa_M1, gains.Q_00_M0, gains.Q_00_M1,
                                 params.mu)
    except ValueError:
        assume(False)
    total = 2.0 * (gains.Q_0z_M0 + gains.Q_1z_M0)
    n_plus = 2.0 * (1.0 + math.exp(-params.mu))
    assert total - n_plus * bounds.Q_0x_M0_lower >= -8.0 * np.finfo(float).eps * total


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
