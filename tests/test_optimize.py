import itertools
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cowqkd.optimize as optimize
from cowqkd import (NoMonitoringDetectionError, ParameterError, Protocol, ScanConfig,
                    evaluate_point, optimize_point, scan)
from cowqkd.optimize import FLAG_NO_POSITIVE_RATE, _objective_surface
from cowqkd.params import Variant, total_transmittance
from cowqkd.security import _rate_chain
from conftest import (make_params, reference_grid, scan_incumbents, searched_config,
                      stepwise_point)

ROOT = Path(__file__).resolve().parent.parent


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


def test_scan_config_grid_sizes_are_integers():
    # a float or a bool size used to pass, and scan then died deep in numpy
    for name in ("n_mu", "n_tb", "refine_iters"):
        for bad in (2.5, 5.0, True, "7"):
            with pytest.raises(ParameterError, match=name):
                ScanConfig(L_values=(0.0, 10.0), **{name: bad})
    config = ScanConfig(L_values=(0.0,), n_mu=np.int64(7), n_tb=3, refine_iters=np.int32(0))
    assert len(scan(make_params(), config)) == 1


def test_scan_config_distances_are_a_tuple_of_floats():
    for values in (np.array([0.0, 12.5]), [0, 12.5], range(0, 25, 25), (np.float32(12.5),)):
        config = ScanConfig(L_values=values)
        assert type(config.L_values) is tuple and config.L_values
        assert all(type(L) is float for L in config.L_values)
        assert hash(config) == hash(replace(config))
    assert ScanConfig(L_values=np.array([0.0, 12.5])) == ScanConfig(L_values=(0.0, 12.5))
    for bad in (10.0, ["ten"], None):
        with pytest.raises(ParameterError, match="L_values"):
            ScanConfig(L_values=bad)


def test_rate_point_fields_populated():
    point = optimize_point(make_params(), reference_config())
    assert point.eta_ch == pytest.approx(0.1, rel=1e-12)
    assert point.eta_tot == pytest.approx(0.08, rel=1e-12)
    assert 0.0 < point.E_p_u <= 0.5
    assert point.R_plob > point.R
    assert point.R_tilde >= point.R


# ---------------------------------------------------------------------------
# references: the coordinate-wise golden-section search (conftest has the full grid)
# ---------------------------------------------------------------------------

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo, hi, iters=48):
    """Golden-section maximizer of f on [lo[k], hi[k]], elementwise over arrays.

    Element k takes the probes and comparisons of a scalar search on its
    bracket; the lockstep only saves calls of f.
    """
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - INV_PHI * (b - a), a + INV_PHI * (b - a))
        fx = f(x)
        c, fc, d, fd = (np.where(left, x, d), np.where(left, fx, fd),
                        np.where(left, c, x), np.where(left, fc, fx))
    keep_c = fc >= fd
    return np.where(keep_c, c, d), np.where(keep_c, fc, fd)


def reference_rates(base, config, rounds):
    """{r: each distance's objective after r rounds of golden-section search} for r in rounds.

    From the grid incumbent, each round is a log-mu pass and, for the passive
    variant, a t_B pass, each bracketed by the incumbent's grid neighbours and
    kept where it beats the incumbent.  Three rounds are the search that gave
    the scan rows before the Newton step.  An active round after the first
    would rerun an unchanged pass, which cannot win, so it is skipped.
    """
    mu_grid, tb_grid = config.mu_grid(), config.tb_grid()
    rate, mu, t_b, i_mu, i_tb = reference_grid(base, config)
    live = rate > 0.0
    eta = np.array([total_transmittance(replace(base, L_km=float(L)))
                    for L in config.L_values])[live]
    rate, mu, t_b, i_mu, i_tb = rate[live], mu[live], t_b[live], i_mu[live], i_tb[live]
    log_mu_lo = np.log(mu_grid[np.maximum(i_mu - 1, 0)])
    log_mu_hi = np.log(mu_grid[np.minimum(i_mu + 1, len(mu_grid) - 1)])
    tb_lo = tb_grid[np.maximum(i_tb - 1, 0)]
    tb_hi = tb_grid[np.minimum(i_tb + 1, len(tb_grid) - 1)]
    passive = base.variant is Variant.PASSIVE
    results = {}
    for done in range(1, max(rounds) + 1):
        if passive or done == 1:
            log_mu, new = _golden_section(
                lambda x: _objective_surface(base, eta, np.exp(x), t_b, config.protocol),
                log_mu_lo, log_mu_hi)
            better = new > rate
            rate, mu = np.where(better, new, rate), np.where(better, np.exp(log_mu), mu)
        if passive:
            new_tb, new = _golden_section(
                lambda x: _objective_surface(base, eta, mu, x, config.protocol), tb_lo, tb_hi)
            better = new > rate
            rate, t_b = np.where(better, new, rate), np.where(better, new_tb, t_b)
        if done in rounds:
            results[done] = np.zeros(len(config.L_values))
            results[done][live] = rate
    return results


def _perfbench_scans():
    """(base, config) of the first command cycle of perfbench's scan inputs, seeds 1-3."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for seed in (1, 2, 3):
        for inp in workloads.ScanWorkload().make_inputs(seed)[:len(workloads.SCAN_CYCLE)]:
            base = make_params(p_d=inp.p_d, eta_d=inp.eta_d, e_a=inp.e_a, f_ec=workloads.F_EC,
                               variant=inp.variant)
            yield base, reference_config(L_values=inp.distance_list(), protocol=inp.protocol)


def reference_links():
    """(base, config) of the six reference CSVs of test_cli and of perfbench's scans."""
    default = tuple(float(L) for L in range(0, 151, 5))
    for variant in ("passive", "active"):
        for protocol in Protocol:
            yield make_params(variant=variant), reference_config(L_values=default,
                                                                 protocol=protocol)
    yield make_params(e_a=0.02), reference_config(L_values=(0.0, 20.0, 40.0, 60.0, 80.0, 100.0))
    yield (make_params(p_d=1e-7, eta_d=0.99, e_a=0.01, variant="active"),
           reference_config(L_values=tuple(float(L) for L in range(0, 121))))
    yield from _perfbench_scans()


def _gradient(site, mu, t_b, protocol):
    """Complex-step (dR/dlog mu, dR/dt_B) at (mu, t_B) arrays."""
    h = 1e-30
    eta = total_transmittance(site)
    return (_objective_surface(site, eta, mu * complex(1.0, h), t_b, protocol).imag / h,
            _objective_surface(site, eta, mu, t_b + complex(0.0, h), protocol).imag / h)


def _hessian(site, mu, t_b, protocol, delta=1e-5):
    """Central difference of _gradient: an array of (2, 2) matrices, symmetrized."""
    columns = []
    for d_log_mu, d_tb in ((delta, 0.0), (0.0, delta)):
        up = _gradient(site, mu * math.exp(d_log_mu), t_b + d_tb, protocol)
        down = _gradient(site, mu * math.exp(-d_log_mu), t_b - d_tb, protocol)
        columns.append([(u - v) / (2.0 * delta) for u, v in zip(up, down)])
    hess = np.moveaxis(np.array(columns), (0, 1), (-1, -2))
    return (hess + np.swapaxes(hess, -1, -2)) / 2.0


def test_scan_rows_are_converged_optima():
    # On every positive row of the reference links: at an interior coordinate
    # |dR/dx| / R <= 1e-9 (x = log mu, t_B), and the Hessian of the free
    # coordinates is negative semidefinite; a coordinate on a box edge has a
    # gradient that points out of the box.  The active variant's t_B is
    # pinned at tb_max, where its rate t_B * bracket rises.
    for base, config in reference_links():
        rows = scan(base, config)
        cow = config.protocol is Protocol.COW
        for point in rows:
            if point.flag:
                continue
            site = replace(base, L_km=point.L_km)
            rate = point.R if cow else point.R_tilde
            mu, t_b = np.array([point.mu_opt]), np.array([point.tB_opt])
            grad = [float(g[0]) for g in _gradient(site, mu, t_b, config.protocol)]
            hess = _hessian(site, mu, t_b, config.protocol)[0]
            edges = ((point.mu_opt, config.mu_min, config.mu_max),
                     (point.tB_opt, config.tb_min, config.tb_max))
            free = []
            for k, (x, lo, hi) in enumerate(edges):
                if x == lo:
                    assert grad[k] <= 0.0, (point, k)
                elif x == hi:
                    assert grad[k] >= 0.0, (point, k)
                else:
                    assert abs(grad[k]) <= 1e-9 * rate, (point, k, grad[k] / rate)
                    free.append(k)
            assert base.variant is Variant.PASSIVE or point.tB_opt == config.tb_max
            if free:
                curvature = np.linalg.eigvalsh(hess[np.ix_(free, free)])
                assert curvature.max() <= 1e-6 * np.abs(hess).max(), (point, curvature)


def test_scan_rows_reach_the_golden_section_references():
    # Every row's objective is at least the golden-section search's at
    # refine_iters=30 (converged to rounding), and at refine_iters=3 (the
    # search this step replaced), less 1e-12 Q_z.  R is Q_z times a bracket that
    # is a difference of entropies; near the reach R << Q_z, and R's rounding is
    # up to about 2e-13 Q_z there, which the golden-section searches maximize over.
    for base, config in reference_links():
        rows = scan(base, config)
        rates = np.array([p.R if config.protocol is Protocol.COW else p.R_tilde for p in rows])
        q_z = np.array([p.Q_z for p in rows])
        for refine_iters, reference in reference_rates(base, config, (3, 30)).items():
            shortfall = (reference - rates) / q_z
            assert shortfall.max() <= 1e-12, (base, config.protocol, refine_iters,
                                              config.L_values[int(np.argmax(shortfall))])


def test_active_rows_keep_tb_max():
    # The active rate is t_B times a t_B-free bracket, so the scan keeps tb_max and
    # refines mu alone: on every row of the active reference scans, zero-rate rows
    # included, and on a row near the nonclassical reach (bracket R_tilde / Q_z
    # about 5e-5).
    for base, config in itertools.islice(reference_links(), 6):  # the reference CSVs' links
        if base.variant is Variant.ACTIVE:
            assert {point.tB_opt for point in scan(base, config)} == {config.tb_max}, config
    base = make_params(L_km=152.6, p_d=1.773396295930934e-09, eta_d=0.4653810423139731,
                       e_a=0.05957046180094523, f_ec=1.185609361163892, variant="active")
    config = reference_config(L_values=(152.6,), mu_min=2.8258717866809313e-06,
                              mu_max=9.415708715389714e-05, n_mu=23, refine_iters=5,
                              protocol=Protocol.NONCLASSICAL)
    [point] = scan(base, config)
    assert point.tB_opt == config.tb_max and point.R_tilde > 0.0
    assert point == stepwise_point(replace(base, mu=point.mu_opt, t_B=point.tB_opt),
                                   config.protocol)


def test_lockstep_scan_equals_one_distance_scans():
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
                grid_rate, grid_mu, grid_tb = scan_incumbents(base, config)
                for L, point, rate, mu, t_b in zip(distances, points, grid_rate, grid_mu, grid_tb):
                    # a row does not depend on the other distances of its scan
                    assert scan(base, replace(config, L_values=(L,))) == [point]
                    assert point == stepwise_point(
                        replace(base, L_km=L, mu=point.mu_opt, t_B=point.tB_opt), protocol)
                    # the search starts at the full grid's incumbent, or at a zero rate
                    # the searched grid's (an active scan's tb_max column), and never
                    # loses to it
                    objective = point.R if protocol is Protocol.COW else point.R_tilde
                    if config.refine_iters == 0 or rate <= 0.0:
                        assert (point.mu_opt, point.tB_opt, objective) == (mu, t_b, rate)
                    else:
                        assert objective >= rate, (variant, protocol, overrides, L)
                if not (params or overrides):
                    assert (points[0].flag, points[5].flag) == ("", FLAG_NO_POSITIVE_RATE)


def test_scan_memory_is_per_distance():
    # passive: one 60 x 49 surface and its temporaries at a time, never one per
    # distance; active: one tb_max column of 49 distances x 60 mu at a time, where
    # a column of all 3001 distances would take about 29 MB.  The 0.5 km scans
    # run to 1500 km, so few rows are refined, and the rows (3001 RatePoints,
    # about 1.4 MB) and their one array pass take most of the active scan's
    # 2.8 MB.  The 0.05 km scan refines 2332 rows, in blocks of 196 distances x
    # 15 probes; refined all at once, they peaked at 9.8 MB.
    for variant, n_distances, step in (("passive", 301, 0.5), ("active", 3001, 0.5),
                                       ("active", 3001, 0.05)):
        base = make_params(variant=variant)
        config = reference_config(L_values=tuple(step * k for k in range(n_distances)))
        scan(base, reference_config())  # warm-up outside the traced region
        tracemalloc.start()
        try:
            scan(base, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6, (variant, step)



def _pruned_grid_calls(base, config):
    """(distances, cells) of each grid call of a scan, from full-grid chains.

    Distances are visited by decreasing eta, in blocks of as many distances as
    fit one n_mu x n_tb grid of the searched grid's cells.  A block grids the
    mu rows that hold a cell live after the previous block; a COW cell dies
    where its phase-error bound is clamped at 1/2 (p_d > 0 and mu below 700 on
    every case here), and a block with no live cell makes no call.
    """
    mu_grid, tb_grid = config.mu_grid(), config.tb_grid()
    per_call = max(1, config.n_mu * config.n_tb // (len(mu_grid) * len(tb_grid)))
    eta = [total_transmittance(replace(base, L_km=L)) for L in config.L_values]
    order = sorted(range(len(eta)), key=lambda k: -eta[k])
    live = np.ones((len(mu_grid), len(tb_grid)), dtype=bool)
    calls = []
    for start in range(0, len(order), per_call):
        block = order[start:start + per_call]
        if live.any():
            calls.append((len(block), int(live.any(axis=1).sum()) * len(tb_grid)))
        if config.protocol is Protocol.COW:
            chain = _rate_chain(base, eta[block[-1]], mu_grid[:, None], tb_grid[None, :],
                                nonclassical=False)
            live &= ~(chain.E_p_u_raw >= 0.5)
    return calls


def test_scan_objective_call_budget(monkeypatch):
    calls = []
    chain = optimize._rate_chain

    def counted(base, eta, mu, t_b, cow=True, nonclassical=True):
        record = chain(base, eta, mu, t_b, cow, nonclassical)
        calls.append(record.R if cow else record.R_tilde)
        return record
    monkeypatch.setattr(optimize, "_rate_chain", counted)
    distances = tuple(float(L) for L in range(0, 151, 5))
    # (variant, overrides, free coordinates of the Newton step): the active step moves
    # mu alone
    cases = [("passive", {}, 2), ("active", {}, 1), ("active", {"n_tb": 5}, 1),
             ("passive", {"n_mu": 7, "n_tb": 3}, 2),
             ("passive", {"mu_fixed": 0.004, "refine_iters": 5}, 1),
             ("active", {"mu_fixed": 0.004, "refine_iters": 5}, 0)]
    for variant in ("passive", "active"):
        cases.append((variant, {"tb_fixed": 0.37, "refine_iters": 5}, 1))
    for variant, overrides, free in cases:
        for protocol in Protocol:
            config = reference_config(L_values=distances, protocol=protocol, **overrides)
            base = make_params(variant=variant)
            expected = _pruned_grid_calls(base, searched_config(base, config))
            calls.clear()
            rows = scan(base, config)
            # the grid's calls, then the Newton step's (complex), then the rows' one
            # array pass over every distance
            grid = [(len(v), v[0].size) for v in calls if not np.iscomplexobj(v)][:-1]
            assert grid == expected, (variant, overrides, protocol)
            assert calls[-1].shape == (len(distances),)
            if protocol is Protocol.NONCLASSICAL:  # every distance, on the first call's cells
                assert sum(d for d, _ in grid) == len(distances)
                assert {cells for _, cells in grid} == {grid[0][1]}
            # no call holds more bytes than one n_mu x n_tb grid of floats: a Newton
            # call holds free + free (free + 1) complex points per distance
            assert max(v.nbytes for v in calls[:-1]) <= 8 * config.n_mu * config.n_tb, (
                variant, overrides)
            per_block = config.n_mu * config.n_tb // (2 * (free + free * (free + 1))) if free else 0
            live = sum(row.flag == "" for row in rows)
            blocks = math.ceil(live / per_block) if free else 0
            # each block's Newton step makes one call per iteration, and converges in
            # at most eight on these links
            newton_calls = sum(np.iscomplexobj(v) for v in calls)
            assert newton_calls <= (config.refine_iters + 1) * blocks, (variant, overrides)
            assert newton_calls <= 8 * blocks, (variant, overrides, newton_calls)
    # the passive COW scan grids half of its cells, and no distance past 135 km
    config = reference_config(L_values=distances)
    grid = _pruned_grid_calls(make_params(), config)
    assert len(grid) < len(distances)
    assert sum(cells for _, cells in grid) < 0.55 * len(distances) * 60 * 49


def _first_return_from_zero(base, mu, t_b, objective, distances):
    """(L1, L2, the chain at both): consecutive distances where the objective at
    (mu, t_B) is 0.0 at L1 and positive at the longer L2."""
    distances = np.asarray(distances)
    eta = np.array([total_transmittance(replace(base, L_km=float(L))) for L in distances])
    values = getattr(_rate_chain(base, eta, mu, t_b), objective)
    [k, *_] = np.flatnonzero((values[:-1] == 0.0) & (values[1:] > 0.0))
    pair = (float(distances[k]), float(distances[k + 1]))
    return (*pair, _rate_chain(base, eta[[k, k + 1]], mu, t_b))


def _second_row_is_its_own(base, config):
    """The last row of a scan whose first two distances fill the first active block."""
    rows = scan(base, config)
    [alone] = scan(base, replace(config, L_values=config.L_values[-1:]))
    assert rows[-1] == alone
    return alone


def test_cow_rate_returns_from_zero_near_the_clamp():
    # Just short of the COW reach at p_d ~ 0 and e_a = 0, E_p_u is within 1e-8 of 1/2
    # and h(E_p_u) rounds to 1 or to 1 - 2^-53, so R at one cell returns from 0.0 to
    # about 1e-16 Q_z at a longer distance.  The pruned grid therefore does not drop
    # a cell where R is 0.0: only a clamped bound (E_p_u_raw >= 1/2, where h is
    # exactly 1 and R exactly 0) drops it.
    base = make_params(p_d=1e-30, eta_d=1.0, e_a=0.0, variant="active")
    mu, t_b = 1e-4, 0.99

    def positive(L):
        site = replace(base, L_km=L)
        return _rate_chain(site, total_transmittance(site), mu, t_b).R > 0.0
    lo, hi = 0.0, 400.0  # the reach at this cell, about 176.8 km
    for _ in range(60):
        lo, hi = ((lo + hi) / 2, hi) if positive((lo + hi) / 2) else (lo, (lo + hi) / 2)
    L1, L2, chain = _first_return_from_zero(base, mu, t_b, "R",
                                            lo + 1e-9 * np.arange(-3000, 1000))
    assert chain.R[0] == 0.0 < chain.R[1] < 1e-15 * chain.Q_z[1]
    assert (chain.E_p_u_raw < 0.5).all() and (chain.E_b < 1e-20).all()
    row = _second_row_is_its_own(base, reference_config(
        L_values=(L1, L1, L2), mu_fixed=mu, n_tb=2, refine_iters=0))
    assert row.R > 0.0 and row.tB_opt == t_b


def test_nonclassical_rate_returns_from_zero_so_its_grid_keeps_every_cell():
    # At p_d = e_a = 0 and mu = 50, E_x tends to 1/2 as eta falls, and h(E_x) rounds
    # to 1 or to 1 - 2^-53: R_tilde at one cell is 0.0 at one distance and about
    # 1e-16 Q_z at a longer one, over a range of eta, not at one rounding step.  No
    # nonclassical cell is ever dropped.
    base = make_params(p_d=0.0, eta_d=1.0, e_a=0.0, variant="active")
    mu, t_b = 50.0, 0.99
    L1, L2, chain = _first_return_from_zero(base, mu, t_b, "R_tilde", np.arange(8.0, 40.0, 0.5))
    assert chain.R_tilde[0] == 0.0 < chain.R_tilde[1] < 1e-15 * chain.Q_z[1]
    row = _second_row_is_its_own(base, reference_config(
        L_values=(L1, L1, L2), mu_fixed=mu, n_tb=2, refine_iters=0,
        protocol=Protocol.NONCLASSICAL))
    assert row.R_tilde > 0.0 and row.tB_opt == t_b


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
def test_cells_whose_rate_can_turn_nan_never_die():
    # A clamped bound makes R exactly 0.0 only where the chain is finite at the
    # longer distance.  At mu = 900, exp(mu) overflows, and cells clamped at 4 km
    # are NaN at 8 km.  At p_d = 0 and 16050 km, eta is subnormal: the gains of
    # the small-mu cells underflow to 0, and their R is NaN, while larger-mu cells
    # still click; at 300 km every bound is clamped.  Dropping those cells would
    # make the longer distance's row start at the first cell.
    base = make_params(p_d=8.344237397853495e-08, eta_d=1.0, e_a=0.37500205129617176,
                       f_ec=1.4951999085990377)
    config = reference_config(L_values=(4.0, 8.0), mu_fixed=900.0, refine_iters=0)
    eta = np.array([[total_transmittance(replace(base, L_km=L))] for L in config.L_values])
    chain = _rate_chain(base, eta, 900.0, config.tb_grid())
    assert ((chain.E_p_u_raw[0] >= 0.5) & np.isnan(chain.R[1])).any()
    cases = [(base, config),
             (make_params(p_d=0.0, eta_d=1.0), reference_config(L_values=(300.0, 16050.0),
                                                               refine_iters=0))]
    for base, config in cases:
        _, mu, t_b, _, _ = reference_grid(base, config)

        def full_grid_rows():
            return [stepwise_point(replace(base, L_km=L, mu=float(m), t_B=float(t)))
                    for L, m, t in zip(config.L_values, mu, t_b)]
        assert _error(lambda: scan(base, config)) == _error(full_grid_rows), config
        if _error(full_grid_rows) is None:
            assert scan(base, config) == full_grid_rows()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_active_scan_at_subnormal_transmittance_reports_its_tb_max_cell():
    # At p_d = 0 and 15900-16150 km, eta is subnormal, and the active rate, t_B
    # times a bracket, underflows at small t_B but not at tb_max.  The scan grids
    # and reports the tb_max column: a zero-rate row at 15900 and 15950 km, and
    # further on the missing monitoring clicks that the full grid's rows raise.
    base = make_params(p_d=0.0, eta_d=0.8, e_a=0.0, variant="active")
    for L in (15900.0, 15950.0):
        config = reference_config(L_values=(L,))
        [row] = scan(base, config)
        assert (row.flag, row.tB_opt) == (FLAG_NO_POSITIVE_RATE, config.tb_max)
        assert row == stepwise_point(replace(base, L_km=L, mu=row.mu_opt, t_B=row.tB_opt))
    for L in (16000.0, 16050.0, 16100.0, 16150.0):
        config = reference_config(L_values=(L,))
        _, [mu], [t_b], _, _ = reference_grid(base, config)
        full_grid = _error(lambda: stepwise_point(replace(base, L_km=L, mu=mu, t_B=t_b)))
        assert full_grid is not None and full_grid[0] is NoMonitoringDetectionError, full_grid
        assert _error(lambda: scan(base, config)) == full_grid, L


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_point_raises_what_the_public_steps_raise():
    # one point per check, in the order of the public steps: the unmixed
    # Q_aa_M0 > 1, the Cauchy bound and the gains overflowing, no data-line
    # clicks, and no monitoring clicks ((1 - t_B) mu eta / 2 underflows to 0);
    # then a point with two faults, Q_aa_M0 = 1.319 and Q_0x_M1 = inf, where
    # the unmixed checks' order decides which error is raised
    cases = [(make_params(L_km=20.0, mu=5.0, t_B=0.016, e_a=0.05), "Q_aa_M0 must be a probability"),
             (make_params(mu=800.0), "overflows the Cauchy bound"),
             (make_params(mu=1e4, t_B=0.01), "overflows the gain Q_0x_M0"),
             (make_params(L_km=1e5, p_d=0.0, variant="active"), "all data-line gains are zero"),
             (make_params(L_km=0.0, eta_d=1.0, p_d=0.0, mu=1e-308, t_B=1.0 - 2.0 ** -53),
              "all logic-sequence monitoring gains are zero"),
             (make_params(L_km=50.0, mu=800.0, t_B=0.001), "Q_aa_M0 must be a probability")]
    for params, expected in cases:
        for protocol in Protocol:
            raised = _error(lambda: evaluate_point(params, protocol))
            assert raised is not None and expected in raised[1], raised
            assert raised == _error(lambda: stepwise_point(params, protocol)), (params, protocol)
