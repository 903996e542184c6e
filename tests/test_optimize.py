import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cowqkd.optimize as optimize
from cowqkd import ParameterError, Protocol, ScanConfig, evaluate_point, optimize_point, scan
from cowqkd.optimize import _LOOKAHEAD, FLAG_NO_POSITIVE_RATE, _golden_max, _objective_surface
from cowqkd.params import Variant, total_transmittance
from conftest import make_params, stepwise_point


def reference_config(**overrides):
    values = dict(L_values=(50.0,))
    values.update(overrides)
    return ScanConfig(**values)


def test_optimized_rate_dominates_every_grid_point():
    base = make_params()
    config = reference_config()
    point = optimize_point(base, config)
    mu_mesh, tb_mesh = np.meshgrid(config.mu_grid(), config.tb_grid(), indexing="ij")
    surface = _objective_surface(base, total_transmittance(base), mu_mesh, tb_mesh,
                                 config.protocol)
    assert point.R >= float(surface.max())


def test_vector_and_scalar_paths_agree_exactly():
    base = make_params()
    config = reference_config()
    mu_grid, tb_grid = config.mu_grid(), config.tb_grid()
    mu_mesh, tb_mesh = np.meshgrid(mu_grid, tb_grid, indexing="ij")
    surface = _objective_surface(base, total_transmittance(base), mu_mesh, tb_mesh,
                                 config.protocol)
    for i, j in ((0, 0), (30, 20), (45, 48), (59, 10)):
        point = stepwise_point(replace(base, mu=float(mu_grid[i]), t_B=float(tb_grid[j])))
        assert point.R == float(surface[i, j])

    # 2e4 seeded random points, with mu below 0.03 where most COW rates are
    # positive: a last-ulp difference between the array and the scalar
    # evaluation shows up at roughly one point in 1000.
    rng = np.random.default_rng(5)
    mismatches = []
    for variant in ("passive", "active"):
        for L in (0.0, 20.0, 40.0, 60.0, 80.0):
            site = make_params(L_km=L, variant=variant, e_a=0.01)
            mu = np.exp(rng.uniform(math.log(1e-4), math.log(0.03), 2000))
            t_b = rng.uniform(0.01, 0.99, 2000)
            eta = total_transmittance(site)
            r = _objective_surface(site, eta, mu, t_b, Protocol.COW)
            r_tilde = _objective_surface(site, eta, mu, t_b, Protocol.NONCLASSICAL)
            for k in range(mu.size):
                point = stepwise_point(replace(site, mu=float(mu[k]), t_B=float(t_b[k])))
                if (point.R, point.R_tilde) != (r[k], r_tilde[k]):
                    mismatches.append((variant, L, float(mu[k]), float(t_b[k])))
    assert mismatches == []


def test_optimize_point_deterministic():
    base = make_params()
    config = reference_config()
    assert optimize_point(base, config) == optimize_point(base, config)


def test_rate_monotone_nonincreasing_in_distance():
    base = make_params()
    config = reference_config(L_values=tuple(float(L) for L in range(0, 141, 20)))
    points = scan(base, config)
    rates = [p.R for p in points]
    assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))
    assert [p.L_km for p in points] == sorted(p.L_km for p in points)
    # the capacity reference caps the achievable rate everywhere
    assert all(p.R < p.R_plob for p in points)


def test_no_positive_rate_flagged_far_beyond_cutoff():
    point = optimize_point(make_params(L_km=300.0), reference_config())
    # grid tie-break winner: smallest mu, then smallest t_B
    assert point.R == 0.0
    assert point.flag == FLAG_NO_POSITIVE_RATE
    assert point.mu_opt == pytest.approx(1e-4)
    assert point.tB_opt == pytest.approx(0.01)


def test_zero_length_error_free_point():
    base = make_params(p_d=0.0, e_a=0.0)
    points = scan(base, reference_config(L_values=(0.0,)))
    assert len(points) == 1
    assert points[0].E_b == 0.0
    assert points[0].R > 0.0


def test_scan_never_aborts_on_zero_rate_points():
    base = make_params()
    points = scan(base, reference_config(L_values=(50.0, 300.0, 0.0)))
    assert [p.L_km for p in points] == [50.0, 300.0, 0.0]
    assert points[1].flag == FLAG_NO_POSITIVE_RATE
    assert points[0].flag == "" and points[2].flag == ""


def test_fixed_parameters_respected():
    base = make_params()
    point = optimize_point(base, reference_config(mu_fixed=0.004))
    assert point.mu_opt == 0.004
    point = optimize_point(base, reference_config(tb_fixed=0.37))
    assert point.tB_opt == 0.37


def test_misalignment_degrades_optimized_rate():
    base_clean = make_params(e_a=0.0)
    base_misaligned = make_params(e_a=0.05)
    config = reference_config()
    assert optimize_point(base_misaligned, config).R <= optimize_point(base_clean, config).R


def test_nonclassical_objective_selects_different_regime():
    base = make_params(e_a=0.02)
    cow = optimize_point(base, reference_config(protocol=Protocol.COW))
    nonclassical = optimize_point(
        base, reference_config(protocol=Protocol.NONCLASSICAL))
    assert nonclassical.R_tilde >= cow.R_tilde
    assert nonclassical.flag == ""
    # the nonclassical optimum runs at a much brighter pulse
    assert nonclassical.mu_opt > 10 * cow.mu_opt


def test_refinement_improves_or_preserves_grid_value():
    base = make_params()
    coarse = optimize_point(base, reference_config(refine_iters=0))
    refined = optimize_point(base, reference_config(refine_iters=3))
    assert refined.R >= coarse.R


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_grid_cells_never_win_the_incumbent():
    # above mu ~ 750, exp(mu) overflows and the bound gives NaN on part of the grid
    base = make_params()
    config = reference_config(mu_max=1000.0)
    assert np.isnan(_objective_surface(
        base, total_transmittance(base), config.mu_grid()[:, None], config.tb_grid()[None, :],
        config.protocol)).any()
    [point] = scan(base, config)
    assert point.L_km == 50.0 and point.flag == ""
    assert math.isfinite(point.R) and point.R > 0.0
    assert point.mu_opt < 1.0


def test_scan_config_validation():
    with pytest.raises(ParameterError):
        ScanConfig(L_values=())
    with pytest.raises(ParameterError):
        ScanConfig(L_values=(10.0,), mu_min=0.5, mu_max=0.1)
    with pytest.raises(ParameterError):
        ScanConfig(L_values=(10.0,), n_mu=1)
    with pytest.raises(ParameterError):
        ScanConfig(L_values=(10.0,), tb_min=0.0)
    with pytest.raises(ParameterError):
        ScanConfig(L_values=(-5.0,))
    with pytest.raises(ParameterError):
        ScanConfig(L_values=(10.0,), mu_fixed=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            ScanConfig(L_values=(10.0, bad))
        with pytest.raises(ParameterError, match="finite"):
            ScanConfig(L_values=(10.0,), mu_fixed=bad)
    with pytest.raises(ParameterError, match="finite"):
        ScanConfig(L_values=(10.0,), mu_max=math.inf)


def test_rate_point_fields_populated():
    point = optimize_point(make_params(), reference_config())
    assert point.eta_ch == pytest.approx(0.1, rel=1e-12)
    assert point.eta_tot == pytest.approx(0.08, rel=1e-12)
    assert 0.0 < point.E_p_u <= 0.5
    assert point.R_plob > point.R
    assert point.R_tilde >= point.R


INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max_scalar(f, lo, hi, iters=48):
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def reference_scan(base, config):
    """One distance at a time: full grid, then scalar coordinate-wise golden-section passes.

    The active variant gets no t_B pass: its rate is t_B times a t_B-free
    bracket, so the pass only ever probes below its incumbent tb_max (see
    test_active_rows_keep_tb_max for the rounding it would chase).
    """
    mu_grid, tb_grid = config.mu_grid(), config.tb_grid()
    mu_mesh, tb_mesh = np.meshgrid(mu_grid, tb_grid, indexing="ij")
    points = []
    for L in config.L_values:
        site = replace(base, L_km=float(L))
        eta = total_transmittance(site)

        def rate(mu, t_b):
            return float(_objective_surface(site, eta, mu, t_b, config.protocol))

        surface = _objective_surface(site, eta, mu_mesh, tb_mesh, config.protocol)
        surface = np.fmax(surface, -np.inf)  # a NaN cell never wins
        i_mu, i_tb = np.unravel_index(int(np.argmax(surface)), surface.shape)
        best_rate = float(surface[i_mu, i_tb])
        best_mu, best_tb = float(mu_grid[i_mu]), float(tb_grid[i_tb])
        if best_rate > 0.0:
            mu_lo = float(mu_grid[max(i_mu - 1, 0)])
            mu_hi = float(mu_grid[min(i_mu + 1, len(mu_grid) - 1)])
            tb_lo = float(tb_grid[max(i_tb - 1, 0)])
            tb_hi = float(tb_grid[min(i_tb + 1, len(tb_grid) - 1)])
            for _ in range(config.refine_iters):
                if config.mu_fixed is None:
                    log_mu, r = _golden_max_scalar(lambda x: rate(math.exp(x), best_tb),
                                                   math.log(mu_lo), math.log(mu_hi))
                    if r > best_rate:
                        best_rate, best_mu = r, math.exp(log_mu)
                if config.tb_fixed is None and site.variant is Variant.PASSIVE:
                    t_b, r = _golden_max_scalar(lambda x: rate(best_mu, x), tb_lo, tb_hi)
                    if r > best_rate:
                        best_rate, best_tb = r, t_b
        points.append(stepwise_point(replace(site, mu=best_mu, t_B=best_tb), config.protocol))
    return points


def test_active_rows_keep_tb_max():
    # A row near the nonclassical reach (bracket R_tilde / Q_z about 5e-5).  In
    # the active variant, E_b does not depend on t_B, but its rounding does, and
    # a scalar t_B pass, which probes to within 2e-12 of tb_max, finds a rate
    # higher by that rounding alone.  The scan keeps tb_max; the rate it leaves
    # is below Q_z * 1e-15.
    base = make_params(L_km=152.6, p_d=1.773396295930934e-09, eta_d=0.4653810423139731,
                       e_a=0.05957046180094523, f_ec=1.185609361163892, variant="active")
    config = reference_config(L_values=(152.6,), mu_min=2.8258717866809313e-06,
                              mu_max=9.415708715389714e-05, n_mu=23, refine_iters=5,
                              protocol=Protocol.NONCLASSICAL)
    [point] = scan(base, config)
    assert point.tB_opt == config.tb_max and point.R_tilde > 0.0
    assert point == stepwise_point(replace(base, mu=point.mu_opt, t_B=point.tB_opt),
                                   config.protocol)
    eta = total_transmittance(base)
    t_b, r = _golden_max_scalar(
        lambda x: float(_objective_surface(base, eta, point.mu_opt, x, config.protocol)),
        float(config.tb_grid()[-2]), config.tb_max)
    assert t_b < config.tb_max and 0.0 < r - point.R_tilde < 1e-15 * point.Q_z


def test_lockstep_scan_matches_scalar_reference_exactly():
    # unsorted, with a duplicate and with zero-rate distances: 1000 km always,
    # 300 km and 120 km for most settings
    distances = (50.0, 300.0, 0.0, 120.0, 50.0, 1000.0, 20.0)
    settings = [({}, {}), ({}, {"mu_fixed": 0.004}), ({}, {"tb_fixed": 0.37}),
                ({}, {"refine_iters": 0}), ({}, {"refine_iters": 1}),
                ({}, {"refine_iters": 5}), ({}, {"n_mu": 7, "n_tb": 3}),
                ({"atten_db_per_km": 0.0}, {})]
    for variant in ("passive", "active"):
        for protocol in Protocol:
            for params, overrides in settings:
                base = make_params(variant=variant, e_a=0.01, **params)
                config = reference_config(L_values=distances, protocol=protocol, **overrides)
                points = scan(base, config)
                assert points == reference_scan(base, config), (variant, protocol, overrides)
                if params or overrides:
                    continue
                assert (points[0].flag, points[5].flag) == ("", FLAG_NO_POSITIVE_RATE)
                # a row does not depend on the other distances of its scan
                for L, point in zip(distances, points):
                    assert scan(base, replace(config, L_values=(L,))) == [point]


def test_scan_memory_is_per_distance():
    # passive: one 60 x 49 surface and its temporaries at a time, never one per
    # distance; active: one tb_max column of 49 distances x 60 mu at a time, where
    # a column of all 3001 distances would take about 29 MB.  These run to
    # 1500 km, so few rows are refined, and the rows (3001 RatePoints, about
    # 1.4 MB) and their one array pass take most of the active scan's 2.8 MB.
    for variant, n_distances in (("passive", 301), ("active", 3001)):
        base = make_params(variant=variant)
        config = reference_config(L_values=tuple(0.5 * k for k in range(n_distances)))
        scan(base, reference_config())  # warm-up outside the traced region
        tracemalloc.start()
        try:
            scan(base, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6, variant


def _recorded(f):
    """f, plus the list of the arguments it was called with."""
    calls = []

    def wrapped(x):
        calls.append(np.array(x))
        return f(x)
    return wrapped, calls


def test_lookahead_probes_match_scalar_search():
    rng = np.random.default_rng(8)
    n = 24
    lo = rng.uniform(-2.0, 1.0, n)
    hi = lo + rng.uniform(1e-3, 3.0, n)
    centre = rng.uniform(-2.5, 4.5, n)
    step = rng.uniform(-1.5, 3.0, n)
    objectives = {
        "smooth": lambda x, c, s: -(x - c) * (x - c),
        "constant": lambda x, c, s: np.zeros_like(x),
        "step": lambda x, c, s: np.where(x > s, 1.0, 0.0),
        "nan": lambda x, c, s: np.where(x > s, np.nan, -(x - c) * (x - c)),
    }
    for name, g in objectives.items():
        for iters in (0, 1, 2, 3, 4, 5, 7, 48):
            f, calls = _recorded(lambda x: g(x, centre, step))
            x_best, f_best = _golden_max(f, lo, hi, iters)
            # the first two probes, then one call per block of up to _LOOKAHEAD
            # steps, on every node of the block's decision tree
            depths = [min(_LOOKAHEAD, iters - s) for s in range(0, iters, _LOOKAHEAD)]
            assert [call.shape for call in calls] == [(2, n)] + [(2 ** d - 1, n) for d in depths]
            for k in range(n):
                f_k, scalar_calls = _recorded(lambda x: g(x, centre[k], step[k]))
                x_k, f_k_best = _golden_max_scalar(f_k, float(lo[k]), float(hi[k]), iters)
                probes = [float(x) for x in scalar_calls]
                assert len(probes) == 2 + iters
                # the steps of each block probe points of that block's call
                blocks = [probes[:2]] + [probes[2 + _LOOKAHEAD * b:2 + _LOOKAHEAD * (b + 1)]
                                         for b in range(len(calls) - 1)]
                for block, call in zip(blocks, calls):
                    assert set(block) <= set(call[:, k].tolist()), (name, iters, k)
                assert x_best[k] == x_k, (name, iters, k)
                assert f_best[k] == f_k_best or (np.isnan(f_best[k]) and np.isnan(f_k_best))


def test_scan_objective_call_budget(monkeypatch):
    calls = []
    surface = optimize._objective_surface

    def counted(*args):
        calls.append(None)
        return surface(*args)
    monkeypatch.setattr(optimize, "_objective_surface", counted)
    distances = tuple(float(L) for L in range(0, 151, 5))
    n_l = len(distances)
    # objective calls per 48-step golden-section pass: the first two probes,
    # then one call per four steps (one call per step would be 49)
    passes = 13
    # (variant, overrides, grid calls, refinement passes): the passive grid is
    # one call per distance; the active grid is the tb_max column of up to
    # n_tb distances per call, and the active variant has no t_B pass
    cases = [("passive", {}, n_l, 6), ("active", {}, math.ceil(n_l / 49), 1),
             ("active", {"n_tb": 5}, math.ceil(n_l / 5), 1),
             ("passive", {"mu_fixed": 0.004, "refine_iters": 5}, n_l, 1),
             ("active", {"mu_fixed": 0.004, "refine_iters": 5}, math.ceil(n_l / 49), 0)]
    for variant in ("passive", "active"):
        cases.append((variant, {"tb_fixed": 0.37, "refine_iters": 5}, n_l, 1))
    for variant, overrides, grid_calls, n_passes in cases:
        for protocol in Protocol:
            calls.clear()
            scan(make_params(variant=variant),
                 reference_config(L_values=distances, protocol=protocol, **overrides))
            # the rows come from one array pass, not from objective calls
            assert len(calls) <= grid_calls + n_passes * passes, (variant, overrides)


def _error(run):
    """(type, message) of the ValueError that run() raises, or None."""
    try:
        run()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scan_raises_what_a_per_row_evaluate_point_loop_raises():
    # Each failing row is a zero-rate row at the grid's first cell.  The first
    # case fails on the unmixed Q_aa_M0 > 1 (the mixed one is below 1), the
    # next two on gains that overflow at mu = 1e4, the last on a second row
    # without data-line clicks (no dark counts, transmittance 0 at 1e5 km).
    cases = [(make_params(e_a=0.05), {"mu_fixed": 5.0, "tb_fixed": 0.016}, (10.0, 20.0),
              "Q_aa_M0 must be a probability"),
             (make_params(), {"mu_fixed": 1e4}, (0.0, 50.0), "mu=10000.0 is too large"),
             (make_params(variant="active"), {"mu_fixed": 1e4}, (0.0, 50.0),
              "mu=10000.0 is too large"),
             (make_params(p_d=0.0, variant="active"), {}, (50.0, 1e5),
              "all data-line gains are zero")]
    for base, overrides, distances, expected in cases:
        for protocol in Protocol:
            config = reference_config(L_values=distances, protocol=protocol, **overrides)
            mu, t_b = float(config.mu_grid()[0]), float(config.tb_grid()[0])
            per_row = _error(lambda: [
                evaluate_point(replace(base, L_km=L, mu=mu, t_B=t_b), protocol)
                for L in distances])
            assert per_row is not None and expected in per_row[1], per_row
            assert _error(lambda: scan(base, config)) == per_row, (overrides, protocol)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_point_raises_what_the_public_steps_raise():
    # one point per check, in the order of the public steps: the unmixed
    # Q_aa_M0 > 1, the Cauchy bound and the gains overflowing, no data-line
    # clicks, and no monitoring clicks ((1 - t_B) mu eta / 2 underflows to 0)
    cases = [(make_params(L_km=20.0, mu=5.0, t_B=0.016, e_a=0.05), "Q_aa_M0 must be a probability"),
             (make_params(mu=800.0), "overflows the Cauchy bound"),
             (make_params(mu=1e4, t_B=0.01), "overflows the gain Q_0x_M0"),
             (make_params(L_km=1e5, p_d=0.0, variant="active"), "all data-line gains are zero"),
             (make_params(L_km=0.0, eta_d=1.0, p_d=0.0, mu=1e-308, t_B=1.0 - 2.0 ** -53),
              "all logic-sequence monitoring gains are zero")]
    for params, expected in cases:
        for protocol in Protocol:
            raised = _error(lambda: evaluate_point(params, protocol))
            assert raised is not None and expected in raised[1], raised
            assert raised == _error(lambda: stepwise_point(params, protocol)), (params, protocol)
