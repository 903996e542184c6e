import itertools
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cowqkd import (
    data_line_gains,
    estimate_data_gains,
    estimate_monitoring_gains,
    run_verification,
    sample_clicks,
    total_transmittance,
)
from cowqkd.gains import two_detector_squash
from cowqkd.oracle import (
    _TAIL_4SIGMA,
    MIN_SAMPLES,
    OracleEstimate,
    _four_sigma_check,
    _poisson_quantile,
    _squash_counts,
    default_verification_cases,
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
    assert not any(sample_clicks(0.0, 0.0, 1, rng)[0] for _ in range(1000))
    assert not sample_clicks(0.0, 0.0, 10_000, rng).any()


def test_sample_click_rejects_negative_intensity():
    with pytest.raises(ValueError):
        sample_clicks(-0.1, 0.0, 1, rng_for_tests())
    with pytest.raises(ValueError):
        sample_clicks(float("nan"), 0.0, 1, rng_for_tests())


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
    assert sample_clicks(0.0, 1.0, 1, rng)[0]
    trials = 4000
    hits = sum(sample_clicks(1.0, 0.0, 1, rng)[0] for _ in range(trials))
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


# Squashed counts, round(estimate * n), of every gain of the default cases,
# recorded before the sparse sequences were counted from their events.  They
# come from Philox draws and integer counting, so they hold on every SIMD
# dispatch level, and they pin the order of the draws.
_GAIN_ORDER = ("Q_0z_T0", "Q_0z_T1", "Q_1z_T1", "Q_1z_T0", "Q_0z_M0", "Q_0z_M1",
               "Q_1z_M0", "Q_1z_M1", "Q_aa_M0", "Q_aa_M1", "Q_00_M0", "Q_00_M1")
_RECORDED_COUNTS = {
    ('bright-darkfree', 20000, 1): (9244, 0, 9412, 0, 58, 68, 66, 46, 271, 0, 0, 0),
    ('bright-darkfree', 20000, 97): (9238, 0, 9200, 0, 58, 60, 57, 70, 235, 0, 0, 0),
    ('bright-darkfree', 500000, 1): (231656, 0, 233089, 0, 1552, 1573, 1584, 1651, 6369, 0, 0, 0),
    ('bright-darkfree', 500000, 97): (232042, 0, 231828, 0, 1547, 1554, 1539, 1602, 6180, 0, 0, 0),
    ('reference-point', 20000, 1): (270, 4, 257, 5, 29, 27, 34, 25, 130, 1, 0, 0),
    ('reference-point', 20000, 97): (266, 3, 283, 6, 30, 29, 35, 33, 143, 0, 0, 0),
    ('reference-point', 500000, 1): (6331, 129, 6275, 115, 787, 816, 806, 803, 3148, 56, 0, 0),
    ('reference-point', 500000, 97): (6320, 117, 6405, 114, 790, 819, 815, 761, 3217, 65, 0, 0),
    ('low-dark-passive', 20000, 1): (272, 0, 259, 0, 122, 121, 128, 137, 511, 0, 0, 0),
    ('low-dark-passive', 20000, 97): (268, 0, 285, 0, 118, 125, 132, 115, 537, 0, 0, 0),
    ('low-dark-passive', 500000, 1): (6384, 0, 6329, 0, 3124, 3210, 3154, 3128, 12552, 0, 0, 0),
    ('low-dark-passive', 500000, 97): (6373, 2, 6459, 0, 3124, 3127, 3169, 3104, 12667, 0, 0, 0),
    ('high-dark-passive', 20000, 1): (2632, 152, 2757, 135, 2966, 2916, 2941, 2953,
                                      9685, 556, 24, 14),
    ('high-dark-passive', 20000, 97): (2671, 176, 2724, 152, 2973, 2928, 2961, 2995,
                                       9524, 531, 22, 20),
    ('high-dark-passive', 500000, 1): (66258, 4037, 66364, 3972, 73904, 74073, 74672, 74051,
                                       238876, 13280, 468, 454),
    ('high-dark-passive', 500000, 97): (66268, 3959, 66414, 3938, 73969, 74153, 74535, 74490,
                                        238744, 13390, 457, 474),
    ('active-switch', 20000, 1): (53, 1, 63, 1, 46, 51, 51, 59, 202, 3, 0, 0),
    ('active-switch', 20000, 97): (62, 2, 71, 0, 47, 40, 53, 58, 218, 1, 0, 0),
    ('active-switch', 500000, 1): (1380, 20, 1519, 9, 1222, 1215, 1176, 1307, 4898, 49, 1, 1),
    ('active-switch', 500000, 97): (1511, 12, 1450, 8, 1226, 1242, 1253, 1210, 4982, 57, 1, 1),
}


def test_default_case_counts_equal_the_recorded_draws():
    # bright-darkfree and high-dark-passive mix mask-counted and event-counted
    # sequences; the other three cases are event-counted throughout
    cases = dict(default_verification_cases())
    for (label, n, seed), recorded in _RECORDED_COUNTS.items():
        params = cases[label]
        est = {**estimate_data_gains(params, n, seed), **estimate_monitoring_gains(params, n, seed)}
        counts = {name: round(est[name].estimate * n) for name in _GAIN_ORDER}
        assert counts == dict(zip(_GAIN_ORDER, recorded)), (label, n, seed)


def test_sparse_sequence_memory_follows_its_events():
    # reference-point's monitoring line has about 0.2-0.6% click events per
    # trial; its sequences are counted from event indices (tens of kB), never
    # from n-length masks (2 MB each at this size)
    n = 2_000_000
    params = dict(default_verification_cases())["reference-point"]
    estimate_monitoring_gains(params, MIN_SAMPLES, seed=1)  # warm-up outside the traced region
    tracemalloc.start()
    try:
        estimate_monitoring_gains(params, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n / 4, peak


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
# the small-count 4-sigma gate and its exact Poisson quantiles
# ---------------------------------------------------------------------------

def test_gate_tail_mass_is_scipys_normal_tail():
    stats = pytest.importorskip("scipy.stats")

    assert _TAIL_4SIGMA == float(stats.norm.cdf(-4.0))


def test_small_count_gate_matches_scipy_poisson_quantiles():
    poisson = pytest.importorskip("scipy.stats").poisson

    n = 1_000_000
    for target in np.geomspace(0.01, 24.0, 400):
        expected = target / n
        mean = n * expected
        assert mean * (1.0 - expected) < 25.0
        lo = poisson.ppf(_TAIL_4SIGMA, mean)
        hi = poisson.ppf(1.0 - _TAIL_4SIGMA, mean)
        for count in {max(int(lo) - 1, 0), int(lo), int(hi), int(hi) + 1}:
            check = _four_sigma_check("Q", count, n, expected)
            assert check.passed == (lo <= count <= hi), (mean, count, lo, hi)


def test_poisson_quantile_equals_scipys_at_both_tail_masses():
    # a plain k log(mean) - mean - lgamma(k + 1) sum passes at small means
    # but misses by one at mean = 1e6, where the lgamma terms cancel
    poisson = pytest.importorskip("scipy.stats").poisson

    means = np.concatenate([np.geomspace(1e-6, 1e4, 20_000),
                            10.0 ** np.random.default_rng(15).uniform(4.0, 7.0, 40),
                            [1e6, 1e7]])
    for q in (_TAIL_4SIGMA, 1.0 - _TAIL_4SIGMA):
        reference = poisson.ppf(q, means)
        got = np.array([_poisson_quantile(q, float(mean)) for mean in means])
        mismatched = np.flatnonzero(got != reference)
        assert mismatched.size == 0, (q, means[mismatched], got[mismatched])


def test_poisson_quantile_at_large_means_is_exact_and_quick():
    assert (_poisson_quantile(_TAIL_4SIGMA, 1e6),
            _poisson_quantile(1.0 - _TAIL_4SIGMA, 1e6)) == (996003, 1004002)
    start = time.perf_counter()
    _poisson_quantile(1.0 - _TAIL_4SIGMA, 1e7)
    assert time.perf_counter() - start < 0.5


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
report = cowqkd.run_verification(cowqkd.oracle.MIN_SAMPLES, seed=1)
small = sum(0.0 < c.expected and c.n_samples * c.expected * (1.0 - c.expected) < 25.0
            for case in report.cases for c in case.checks)
print("scipy" in sys.modules, "scipy.stats" in sys.modules, small)
"""


def test_no_code_path_loads_scipy_stats():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", COLD_START, str(src)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # scipy itself stays loaded: perfbench's environment line reads its version;
    # the count shows the small-count branch of the gate ran
    has_scipy, has_stats, small = done.stdout.split()
    assert (has_scipy, has_stats) == ("True", "False")
    assert int(small) > 0
