import itertools
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cowqkd import (
    data_line_gains,
    estimate_data_gains,
    estimate_monitoring_gains,
    run_verification,
    sample_click,
    sample_clicks,
    total_transmittance,
)
from cowqkd.gains import two_detector_squash
from cowqkd.oracle import (
    _TAIL_4SIGMA,
    OracleEstimate,
    _four_sigma_check,
    _squash_counts,
    model_monitoring_gains,
)
from conftest import make_params


def rng_for_tests(seed=7):
    return np.random.Generator(np.random.Philox(key=seed))


def within_sigma(estimate, expected, n, k=4.0):
    sigma = math.sqrt(max(expected * (1 - expected), 1e-300) / n)
    return abs(estimate - expected) <= k * sigma


# ---------------------------------------------------------------------------
# click sampling
# ---------------------------------------------------------------------------

def test_sample_click_never_fires_without_light_or_darks():
    rng = rng_for_tests()
    assert not any(sample_click(0.0, 0.0, rng) for _ in range(1000))
    assert not sample_clicks(0.0, 0.0, 10_000, rng).any()


def test_sample_click_rejects_negative_intensity():
    with pytest.raises(ValueError):
        sample_click(-0.1, 0.0, rng_for_tests())
    with pytest.raises(ValueError):
        sample_click(float("nan"), 0.0, rng_for_tests())


def test_click_frequency_poisson_light():
    # at lambda = 5 there are more photons than trials, so indices repeat
    n = 1_000_000
    for lam in (1.0, 5.0):
        clicks = sample_clicks(lam, 0.0, n, rng_for_tests())
        assert within_sigma(clicks.mean(), 1 - math.exp(-lam), n), lam


def test_click_frequency_dark_counts_only():
    n = 1_000_000
    clicks = sample_clicks(0.0, 0.25, n, rng_for_tests())
    assert within_sigma(clicks.mean(), 0.25, n)


def test_click_frequency_combined_sources():
    n = 1_000_000
    lam, p_d = 0.05, 0.01
    clicks = sample_clicks(lam, p_d, n, rng_for_tests())
    assert within_sigma(clicks.mean(), 1 - (1 - p_d) * math.exp(-lam), n)


def test_certain_dark_counts_click_every_trial():
    assert sample_clicks(0.0, 1.0, 10_000, rng_for_tests()).all()
    assert sample_clicks(0.3, 1.0, 10_000, rng_for_tests()).all()


def test_sample_click_single_trial_frequency():
    rng = rng_for_tests()
    assert sample_click(0.0, 1.0, rng)
    trials = 4000
    hits = sum(sample_click(1.0, 0.0, rng) for _ in range(trials))
    assert within_sigma(hits / trials, 1 - math.exp(-1.0), trials)


def test_sampler_memory_per_trial():
    # the mask plus one index per photon or dark count, not dense per-trial
    # Poisson and uniform arrays
    n = 200_000
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        sample_clicks(0.1, 1e-6, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n, peak / n


@pytest.mark.parametrize("double_clicks", [True, False])
def test_squash_counts_conserve_clicks(double_clicks):
    n = 100_000
    rng = rng_for_tests()
    if double_clicks:
        clicks_a = sample_clicks(2.0, 1e-3, n, rng)
        clicks_b = sample_clicks(1.5, 1e-3, n, rng)
    else:
        clicks_a = np.arange(n) % 2 == 0
        clicks_b = np.arange(n) % 4 == 1
    only_a = int(np.count_nonzero(clicks_a & ~clicks_b))
    only_b = int(np.count_nonzero(clicks_b & ~clicks_a))
    n_both = int(np.count_nonzero(clicks_a & clicks_b))
    assert n_both > 10_000 if double_clicks else n_both == 0
    n_a, n_b = _squash_counts(clicks_a, clicks_b, rng)
    assert n_a + n_b == only_a + only_b + n_both
    assert n_a >= only_a and n_b >= only_b
    assert abs((n_a - only_a) - n_both / 2) <= 4 * math.sqrt(n_both / 4)


# ---------------------------------------------------------------------------
# data-line estimates
# ---------------------------------------------------------------------------

def test_data_estimates_exact_zero_without_error_sources():
    params = make_params(p_d=0.0, e_a=0.0)
    estimates = estimate_data_gains(params, 20_000, seed=3)
    assert estimates["Q_0z_T1"].estimate == 0.0
    assert estimates["Q_1z_T0"].estimate == 0.0


def test_data_estimates_match_analytic_model():
    # reference operating point: mu=0.2, t_B=0.8, eta_tot=0.08, dark counts on
    params = make_params(mu=0.2, t_B=0.8, L_km=50.0, eta_d=0.8, p_d=1e-8, e_a=0.02)
    n = 1_000_000
    estimates = estimate_data_gains(params, n, seed=11)
    expected = dict(zip(("Q_0z_T0", "Q_0z_T1", "Q_1z_T0", "Q_1z_T1"),
                        data_line_gains(params)))
    for name, est in estimates.items():
        assert within_sigma(est.estimate, expected[name], n), name


def test_data_estimates_deterministic_for_fixed_seed():
    params = make_params(mu=0.2, t_B=0.8, p_d=1e-8, e_a=0.02)
    a = estimate_data_gains(params, 50_000, seed=42)
    b = estimate_data_gains(params, 50_000, seed=42)
    assert a == b
    c = estimate_data_gains(params, 50_000, seed=43)
    assert any(a[k].estimate != c[k].estimate for k in a)


def test_std_err_quarter_samples_scaling():
    params = make_params(mu=0.2, t_B=0.8, p_d=1e-8, e_a=0.02)
    small = estimate_data_gains(params, 250_000, seed=5)["Q_0z_T0"]
    large = estimate_data_gains(params, 1_000_000, seed=5)["Q_0z_T0"]
    assert small.std_err / large.std_err == pytest.approx(2.0, rel=0.1)


def test_minimum_sample_count_enforced():
    with pytest.raises(ValueError):
        estimate_data_gains(make_params(), 100, seed=1)
    with pytest.raises(ValueError):
        estimate_monitoring_gains(make_params(), 9_999, seed=1)


# ---------------------------------------------------------------------------
# monitoring-line estimates
# ---------------------------------------------------------------------------

def test_monitoring_dark_port_exactly_silent():
    params = make_params(p_d=0.0, e_a=0.0)
    estimates = estimate_monitoring_gains(params, 20_000, seed=3)
    assert estimates["Q_aa_M1"].estimate == 0.0
    assert estimates["Q_00_M0"].estimate == 0.0
    assert estimates["Q_00_M1"].estimate == 0.0


def test_monitoring_full_mixing_symmetrizes_ports():
    params = make_params(p_d=0.0, e_a=0.499999999, mu=0.5, t_B=0.3, L_km=0.0)
    n = 400_000
    estimates = estimate_monitoring_gains(params, n, seed=9)
    m0 = estimates["Q_aa_M0"].estimate
    m1 = estimates["Q_aa_M1"].estimate
    sigma = math.sqrt(2 * m0 * (1 - m0) / n)
    assert abs(m0 - m1) <= 5 * sigma


def test_vacuum_sequence_statistics_match_enumerated_squash():
    # brute-force enumeration of the 2-detector click table at p_d = 1e-3
    p_d = 1e-3
    expected_m0 = 0.0
    for click_a, click_b in itertools.product((False, True), repeat=2):
        prob = (p_d if click_a else 1 - p_d) * (p_d if click_b else 1 - p_d)
        if click_a and click_b:
            expected_m0 += prob / 2
        elif click_a:
            expected_m0 += prob
    assert expected_m0 == pytest.approx(p_d * (1 - p_d) + p_d ** 2 / 2, rel=1e-12)
    params = make_params(p_d=p_d)
    n = 1_000_000
    estimates = estimate_monitoring_gains(params, n, seed=13)
    assert within_sigma(estimates["Q_00_M0"].estimate, expected_m0, n)
    assert within_sigma(estimates["Q_00_M1"].estimate, expected_m0, n)


def test_monitoring_estimates_match_squash_model():
    params = make_params(mu=0.3, t_B=0.4, L_km=10.0, p_d=1e-4, e_a=0.03)
    n = 1_000_000
    estimates = estimate_monitoring_gains(params, n, seed=21)
    model = model_monitoring_gains(params)
    for name, est in estimates.items():
        assert within_sigma(est.estimate, model[name], n), name


def test_active_estimates_sample_the_routed_model():
    # bright enough that the routed and the split models lie tens of sigma
    # apart: the data line sees the whole pulse on a fraction t_B of trials,
    # and the monitoring line the whole pulse on every sampled trial
    params = make_params(variant="active", mu=0.5, t_B=0.3, L_km=0.0, p_d=1e-4, e_a=0.03)
    n = 1_000_000
    data = estimate_data_gains(params, n, seed=17)
    expected = dict(zip(("Q_0z_T0", "Q_0z_T1", "Q_1z_T0", "Q_1z_T1"),
                        data_line_gains(params)))
    for name, est in data.items():
        assert within_sigma(est.estimate, expected[name], n), name
    monitoring = estimate_monitoring_gains(params, n, seed=17)
    model = model_monitoring_gains(params)
    for name, est in monitoring.items():
        assert within_sigma(est.estimate, model[name], n), name
    half_pulse = params.mu * total_transmittance(params) / 2
    q_logic, _ = two_detector_squash(half_pulse, half_pulse, params.p_d)
    assert model["Q_0z_M0"] == pytest.approx(float(q_logic), rel=1e-14)


def test_oracle_estimate_validation():
    with pytest.raises(ValueError):
        OracleEstimate(gain_name="x", estimate=1.5, n_samples=10, std_err=0.0)
    with pytest.raises(ValueError):
        OracleEstimate(gain_name="x", estimate=0.5, n_samples=10, std_err=-1.0)


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

def test_verification_passes_on_builtin_grid():
    report = run_verification(50_000, seed=1)
    assert report.passed, report.failures()
    assert len(report.cases) >= 5
    # at least the stated twenty data-line comparisons, plus monitoring ones
    n_checks = sum(len(case.checks) for case in report.cases)
    assert n_checks >= 20
    for case in report.cases:
        assert len(case.ratios) == 8


def test_verification_detects_tampered_analytic_model():
    def tampered(params):
        t0, t1, t2, t3 = data_line_gains(params)
        return min(1.0, 1.5 * t0), t1, t2, min(1.0, 1.5 * t3)

    report = run_verification(100_000, seed=1, data_model=tampered)
    assert not report.passed
    failing = {check.name for _, check in report.failures()}
    assert "Q_0z_T0" in failing or "Q_1z_T1" in failing


def test_verification_ratio_report_tracks_spectator_factors():
    # the sampled squash model carries none of the spectator conditioning
    # factors of the literal closed forms, so each ratio should land near
    # squash-model / closed-form (up to sampling noise).  At 5e6 samples the
    # sparsest entry (reference-point's Q_aa_M1, about 600 expected counts)
    # is about 5 standard errors inside the 20% band.
    report = run_verification(5_000_000, seed=2)
    for case in report.cases:
        model = model_monitoring_gains(case.params)
        for entry in case.ratios:
            if entry.closed_form > 1e-4:
                expected = model[entry.name] / entry.closed_form
                assert entry.ratio == pytest.approx(expected, rel=0.2), (case.label, entry)


def test_gate_z_scores_are_standard_normal_across_seeds():
    # a biased or approximate sampler can pass one seed yet shift or squeeze
    # the pooled z-scores of the large-count checks
    n = 200_000
    z = [check.z_score
         for seed in range(100)
         for case in run_verification(n, seed=seed).cases
         for check in case.checks
         if n * check.expected * (1.0 - check.expected) >= 25.0]
    assert len(z) > 3000
    assert abs(np.mean(z)) <= 0.08
    assert 0.94 <= np.std(z) <= 1.06


# ---------------------------------------------------------------------------
# the small-count 4-sigma gate and its deferred scipy.stats import
# ---------------------------------------------------------------------------

def test_gate_tail_mass_is_scipys_normal_tail():
    from scipy.stats import norm

    assert _TAIL_4SIGMA == float(norm.cdf(-4.0))


def test_small_count_gate_matches_scipy_poisson_quantiles():
    from scipy.stats import poisson

    n = 1_000_000
    for target in np.geomspace(0.01, 24.0, 80):
        expected = target / n
        mean = n * expected
        assert mean * (1.0 - expected) < 25.0
        lo = poisson.ppf(_TAIL_4SIGMA, mean)
        hi = poisson.ppf(1.0 - _TAIL_4SIGMA, mean)
        for count in {max(int(lo) - 1, 0), int(lo), int(hi), int(hi) + 1}:
            check = _four_sigma_check("Q", count, n, expected)
            assert check.passed == (lo <= count <= hi), (mean, count, lo, hi)


COLD_START = """
import contextlib
import io
import sys

sys.path.insert(0, sys.argv[1])
import cowqkd
from cowqkd import cli

with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["point", "--L", "50", "--mu", "0.1", "--tb", "0.5"],
                 ["optimize", "--L", "50"],
                 ["scan", "--L", "0:20:10"]):
        assert cli.main(argv) == 0, argv
print("scipy" in sys.modules, "scipy.stats" in sys.modules)
cowqkd.run_verification(cowqkd.oracle.MIN_SAMPLES, seed=1)
print("scipy.stats" in sys.modules)
"""


def test_scipy_stats_loads_only_for_the_oracle_gate():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", COLD_START, str(src)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # scipy itself stays loaded: perfbench's environment line reads its version
    assert done.stdout.splitlines() == ["True False", "True"]
