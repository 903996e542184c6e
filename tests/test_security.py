import math

import pytest

from cowqkd import (
    BoundPair,
    NoDetectionError,
    NoMonitoringDetectionError,
    azuma_deviation,
    binary_entropy,
    bit_error_x,
    bit_error_z,
    full_gain_set,
    gain_bounds,
    key_rate_cow,
    key_rate_nonclassical,
    phase_error_upper,
    phase_error_upper_raw,
    plob_bound,
)
from cowqkd.gains import GainSet
from conftest import make_params


def gain_set(t0=0.1, t1=0.0, t2=0.0, t3=0.1, mon=0.01, q0x=(0.0, 0.0),
             aa=(0.01, 0.0), vac=(0.0, 0.0)):
    return GainSet(
        Q_0z_T0=t0, Q_0z_T1=t1, Q_1z_T0=t2, Q_1z_T1=t3,
        Q_0z_M0=mon, Q_0z_M1=mon, Q_1z_M0=mon, Q_1z_M1=mon,
        Q_aa_M0=aa[0], Q_aa_M1=aa[1], Q_00_M0=vac[0], Q_00_M1=vac[1],
        Q_0x_M0=q0x[0], Q_0x_M1=q0x[1],
    )


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------

def test_entropy_limits_and_maximum():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_entropy_reference_value():
    # frozen from a 30-digit independent evaluation
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)


def test_entropy_symmetry_and_monotonicity():
    probes = [0.01, 0.1, 0.2, 0.3, 0.49]
    for a in probes:
        assert binary_entropy(a) == pytest.approx(binary_entropy(1.0 - a), rel=1e-14)
    values = [binary_entropy(a) for a in probes]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_entropy_concavity_probe():
    for a, b in ((0.05, 0.4), (0.1, 0.2), (0.25, 0.5)):
        mid = binary_entropy((a + b) / 2)
        assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2


def test_entropy_rejects_out_of_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    with pytest.raises(ValueError):
        binary_entropy(math.nan)


# ---------------------------------------------------------------------------
# Z-basis error rate and gain
# ---------------------------------------------------------------------------

def test_bit_error_z_no_cross_terms():
    e_z, q_z = bit_error_z(gain_set(t0=0.2, t1=0.0, t2=0.0, t3=0.2))
    assert e_z == 0.0
    assert q_z == pytest.approx(0.2, rel=1e-15)


def test_bit_error_z_symmetric_gains():
    e_z, _ = bit_error_z(gain_set(t0=0.05, t1=0.05, t2=0.05, t3=0.05))
    assert e_z == pytest.approx(0.5, rel=1e-15)


def test_bit_error_z_reference_ratio():
    e_z, q_z = bit_error_z(gain_set(t0=0.09, t1=0.01, t2=0.01, t3=0.09))
    assert e_z == pytest.approx(0.1, rel=1e-14)
    assert q_z == pytest.approx(0.1, rel=1e-14)


def test_bit_error_z_no_detection_signal():
    with pytest.raises(NoDetectionError):
        bit_error_z(gain_set(t0=0.0, t1=0.0, t2=0.0, t3=0.0))


# ---------------------------------------------------------------------------
# gain bounds
# ---------------------------------------------------------------------------

def test_gain_bounds_dark_free_upper_reference():
    # Q_aa_M1 = Q_00_M1 = 0 leaves only the residual term of the upper bound;
    # frozen from a 30-digit evaluation at mu = 0.1
    bounds = gain_bounds(0.1, 0.0, 0.0, 0.0, mu=0.1)
    assert bounds.Q_0x_M1_upper == pytest.approx(0.0026270840799438402, rel=1e-12)


def _cauchy_bounds_mp(q_aa_m0, q_aa_m1, q_00_m0, q_00_m1, mu):
    """(upper, lower) from the README's derivation, in 40-digit mpmath.

    With A = e^{mu/2} sqrt(Q_aa) + e^{-mu/2} sqrt(Q_00) and ||Gamma|| = e^mu - 1:
    N+ Q_0x_M1 <= (A_1 + e^{-mu/2} ||Gamma||)^2 and
    N+ Q_0x_M0 >= (e^{mu/2} sqrt(Q_aa_M0) - e^{-mu/2} sqrt(Q_00_M0))^2
    - 2 e^{-mu/2} ||Gamma|| A_0.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q_aa_m0, q_aa_m1, q_00_m0, q_00_m1, mu = map(mpmath.mpf, (q_aa_m0, q_aa_m1, q_00_m0,
                                                                 q_00_m1, mu))
        half, inv_half = mpmath.exp(mu / 2), mpmath.exp(-mu / 2)
        gamma = mpmath.exp(mu) - 1
        n_plus = 2 * (1 + mpmath.exp(-mu))
        a_1 = half * mpmath.sqrt(q_aa_m1) + inv_half * mpmath.sqrt(q_00_m1)
        a_0 = half * mpmath.sqrt(q_aa_m0) + inv_half * mpmath.sqrt(q_00_m0)
        b_0 = half * mpmath.sqrt(q_aa_m0) - inv_half * mpmath.sqrt(q_00_m0)
        return (float((a_1 + inv_half * gamma) ** 2 / n_plus),
                float((b_0 ** 2 - 2 * inv_half * gamma * a_0) / n_plus))


@pytest.mark.parametrize("q_aa_m0, q_aa_m1, q_00_m0, q_00_m1, mu", [
    (0.95, 0.02, 1e-4, 1e-3, 0.5),
    (0.98, 0.05, 1e-4, 0.01, 0.6),
    (0.6, 0.1, 1e-3, 0.02, 0.3),
    (0.3, 1e-3, 1e-4, 1e-5, 0.1),
    (0.05, 2e-4, 3e-6, 1e-7, 0.02),
])
def test_gain_bounds_match_the_cauchy_derivation(q_aa_m0, q_aa_m1, q_00_m0, q_00_m1, mu):
    # every decoy gain positive, so each cross term counts, and neither bound clamped
    upper, lower = _cauchy_bounds_mp(q_aa_m0, q_aa_m1, q_00_m0, q_00_m1, mu)
    assert 0.0 < lower and upper < 1.0
    bounds = gain_bounds(q_aa_m0, q_aa_m1, q_00_m0, q_00_m1, mu)
    assert bounds.Q_0x_M1_upper == pytest.approx(upper, rel=1e-13, abs=0.0)
    assert bounds.Q_0x_M0_lower == pytest.approx(lower, rel=1e-13, abs=0.0)


def test_gain_bounds_lower_clamped_at_zero():
    # equal decoy and vacuum gains: the squared difference nearly vanishes
    # while the subtracted residual stays finite, driving the raw bound negative
    bounds = gain_bounds(0.25, 0.0, 0.25, 0.0, mu=0.1)
    assert bounds.Q_0x_M0_lower == 0.0


def test_gain_bounds_upper_clamped_at_one():
    bounds = gain_bounds(0.9, 0.9, 0.9, 0.9, mu=1.0)
    assert bounds.Q_0x_M1_upper == 1.0


def test_gain_bounds_bracket_true_gains_at_reference_point():
    params = make_params(mu=0.2, L_km=50.0)
    gains = full_gain_set(params)
    bounds = gain_bounds(gains.Q_aa_M0, gains.Q_aa_M1, gains.Q_00_M0,
                         gains.Q_00_M1, params.mu)
    assert bounds.Q_0x_M1_upper >= gains.Q_0x_M1
    assert bounds.Q_0x_M0_lower <= gains.Q_0x_M0


def test_gain_bounds_input_validation():
    with pytest.raises(ValueError):
        gain_bounds(-0.1, 0.0, 0.0, 0.0, mu=0.1)
    with pytest.raises(ValueError):
        gain_bounds(0.1, 0.0, 0.0, 0.0, mu=0.0)


def test_bound_pair_validation():
    with pytest.raises(ValueError):
        BoundPair(Q_0x_M1_upper=1.5, Q_0x_M0_lower=0.0)
    with pytest.raises(ValueError):
        BoundPair(Q_0x_M1_upper=0.5, Q_0x_M0_lower=-0.1)


# ---------------------------------------------------------------------------
# phase-error upper bound and X-basis error
# ---------------------------------------------------------------------------

def test_phase_error_equals_x_error_when_bounds_are_tight():
    params = make_params(mu=0.0037, t_B=0.48)
    gains = full_gain_set(params)
    bounds = BoundPair(Q_0x_M1_upper=gains.Q_0x_M1, Q_0x_M0_lower=gains.Q_0x_M0)
    assert phase_error_upper(gains, bounds, params.mu) == bit_error_x(gains, params.mu)


def test_phase_error_zero_when_both_terms_vanish():
    gains = gain_set(mon=0.01)
    bounds = BoundPair(Q_0x_M1_upper=0.0, Q_0x_M0_lower=0.5)
    assert phase_error_upper(gains, bounds, mu=0.1) == 0.0


def test_phase_error_floor_is_reached_where_the_bound_is_tight():
    # Without dark counts, loss in the detector or misalignment, the lower bound
    # on Q_0x_M0 is tight as mu -> 0, and the parallelogram bracket
    # 2(Q_0z_M0 + Q_1z_M0) - N+ Q_0x_M0_lower tends to 0 from above.  Here (a
    # hypothesis counterexample) its rounding makes it negative; the floor
    # keeps the raw phase error at N+ Q_0x_M1_upper / denominator, >= 0.
    params = make_params(L_km=381.0, p_d=0.0, eta_d=1.0, e_a=0.0,
                         mu=1.6859311079208818e-86, t_B=0.5, variant="active")
    gains = full_gain_set(params)
    bounds = gain_bounds(gains.Q_aa_M0, gains.Q_aa_M1, gains.Q_00_M0, gains.Q_00_M1, params.mu)
    n_plus = 2.0 * (1.0 + math.exp(-params.mu))
    assert 2.0 * (gains.Q_0z_M0 + gains.Q_1z_M0) - n_plus * bounds.Q_0x_M0_lower < 0.0
    denom = 2.0 * (gains.Q_0z_M0 + gains.Q_0z_M1 + gains.Q_1z_M0 + gains.Q_1z_M1)
    raw = phase_error_upper_raw(gains, bounds, params.mu)
    assert raw == n_plus * bounds.Q_0x_M1_upper / denom and raw > 0.0


def test_phase_error_clamped_at_half_with_raw_preserved():
    gains = gain_set(mon=0.001)
    bounds = BoundPair(Q_0x_M1_upper=1.0, Q_0x_M0_lower=0.0)
    raw = phase_error_upper_raw(gains, bounds, mu=0.1)
    assert raw > 0.5
    assert phase_error_upper(gains, bounds, mu=0.1) == 0.5


def test_phase_error_no_monitoring_signal():
    gains = gain_set(mon=0.0)
    with pytest.raises(NoMonitoringDetectionError):
        phase_error_upper(gains, BoundPair(0.1, 0.0), mu=0.1)


def test_bit_error_x_balanced_construction_is_zero():
    mu = 0.1
    n_plus = 2 * (1 + math.exp(-mu))
    mon = 0.1
    gains = gain_set(mon=mon, q0x=(4 * mon / n_plus, 0.0))
    assert bit_error_x(gains, mu) == pytest.approx(0.0, abs=1e-15)


def test_bit_error_x_direct_plug_in():
    mu = 0.1
    n_plus = 2 * (1 + math.exp(-mu))
    mon = 0.05
    q0x_m1 = 0.01
    gains = gain_set(mon=mon, q0x=(0.0, q0x_m1))
    expected = (n_plus * q0x_m1 + 4 * mon) / (8 * mon)
    assert bit_error_x(gains, mu) == pytest.approx(expected, rel=1e-14)


def test_phase_error_dominates_x_error_on_honest_channel():
    params = make_params(mu=0.0037, t_B=0.48, e_a=0.02)
    gains = full_gain_set(params)
    bounds = gain_bounds(gains.Q_aa_M0, gains.Q_aa_M1, gains.Q_00_M0,
                         gains.Q_00_M1, params.mu)
    assert bit_error_x(gains, params.mu) < phase_error_upper(gains, bounds, params.mu)


def test_bound_ordering_and_error_dominance_on_grid():
    # honest-channel ordering of the analytic bounds against the true gains;
    # zero violations tolerated anywhere on the grid, for both variants (the
    # loop keeps this test's id; a parametrised test would take a new one)
    for variant in ("passive", "active"):
        for mu in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
            for L in (0.0, 10.0, 25.0, 50.0, 75.0, 100.0):
                for p_d in (0.0, 1e-8, 1e-7):
                    for t_b in (0.3, 0.5, 0.8):
                        for eta_d in (0.8, 1.0):
                            params = make_params(mu=mu, L_km=L, p_d=p_d, t_B=t_b,
                                                 eta_d=eta_d, e_a=0.0, variant=variant)
                            cell = (variant, mu, L, p_d, t_b, eta_d)
                            gains = full_gain_set(params)
                            bounds = gain_bounds(gains.Q_aa_M0, gains.Q_aa_M1,
                                                 gains.Q_00_M0, gains.Q_00_M1, mu)
                            assert bounds.Q_0x_M1_upper >= gains.Q_0x_M1, cell
                            assert bounds.Q_0x_M0_lower <= gains.Q_0x_M0, cell
                            e_p = phase_error_upper(gains, bounds, mu)
                            e_x = bit_error_x(gains, mu)
                            assert e_p >= min(e_x, 0.5) - 1e-15, cell


# ---------------------------------------------------------------------------
# key rates
# ---------------------------------------------------------------------------

def test_key_rate_error_free_limit():
    assert key_rate_cow(0.25, 0.0, 0.0, 1.0) == 0.25
    assert key_rate_nonclassical(0.25, 0.0, 0.0, 1.0) == 0.25


def test_key_rate_saturated_phase_error():
    assert key_rate_cow(0.25, 0.5, 0.0, 1.0) == 0.0


def test_key_rate_reference_value():
    # frozen from a 30-digit evaluation of 0.01 * (1 - h(0.05) - 1.1 h(0.01))
    assert key_rate_cow(0.01, 0.05, 0.01, 1.1) == pytest.approx(
        0.0062473059339854158, rel=1e-12)


def test_key_rate_formula_identity():
    assert key_rate_nonclassical(0.01, 0.05, 0.01, 1.1) == key_rate_cow(0.01, 0.05, 0.01, 1.1)


def test_key_rate_never_negative():
    assert key_rate_cow(0.1, 0.45, 0.3, 2.0) == 0.0


def test_nonclassical_rate_dominates_cow_rate_on_honest_channel():
    for L in (0.0, 25.0, 50.0, 75.0):
        for mu in (0.002, 0.005, 0.02):
            params = make_params(L_km=L, mu=mu, t_B=0.48)
            gains = full_gain_set(params)
            e_z, q_z = bit_error_z(gains)
            bounds = gain_bounds(gains.Q_aa_M0, gains.Q_aa_M1, gains.Q_00_M0,
                                 gains.Q_00_M1, mu)
            r = key_rate_cow(q_z, phase_error_upper(gains, bounds, mu), e_z, params.f_ec)
            r_tilde = key_rate_nonclassical(q_z, bit_error_x(gains, mu), e_z, params.f_ec)
            assert r_tilde >= r


# ---------------------------------------------------------------------------
# reference bounds
# ---------------------------------------------------------------------------

def test_plob_values():
    assert plob_bound(0.0) == 0.0
    assert plob_bound(0.5) == 1.0
    assert plob_bound(0.9) == pytest.approx(3.3219280948873623, abs=1e-12)


@pytest.mark.parametrize("eta_ch", [1e-8, 1e-12, 1e-20])
def test_plob_keeps_its_relative_accuracy_at_small_transmittance(eta_ch):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        exact = float(-mpmath.log(1 - mpmath.mpf(eta_ch), 2))
    assert plob_bound(eta_ch) == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_plob_of_a_lossless_channel_is_positive_zero():
    assert math.copysign(1.0, plob_bound(0.0)) == 1.0


def test_plob_rejects_divergent_input():
    with pytest.raises(ValueError):
        plob_bound(1.0)
    with pytest.raises(ValueError):
        plob_bound(-0.1)


def test_azuma_inversion_identity():
    assert azuma_deviation(1, 2 * math.exp(-0.5)) == pytest.approx(1.0, abs=1e-15)


def test_azuma_reference_value():
    assert azuma_deviation(1e10, 1e-10) == pytest.approx(6.8875246802462207e-05, rel=1e-12)


def test_azuma_scaling_law():
    for K in (1e4, 1e8):
        assert azuma_deviation(4 * K, 1e-9) == pytest.approx(
            azuma_deviation(K, 1e-9) / 2, rel=1e-14)


def test_azuma_monotonicity():
    assert azuma_deviation(1e6, 1e-9) > azuma_deviation(1e8, 1e-9)
    assert azuma_deviation(1e6, 1e-12) > azuma_deviation(1e6, 1e-9)


def test_azuma_input_validation():
    with pytest.raises(ValueError):
        azuma_deviation(0, 1e-9)
    with pytest.raises(ValueError):
        azuma_deviation(math.inf, 1e-9)
    with pytest.raises(ValueError):
        azuma_deviation(1e6, 0.0)
    with pytest.raises(ValueError):
        azuma_deviation(1e6, 2.0)
