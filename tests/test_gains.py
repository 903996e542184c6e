"""Closed-form gain checks, including an independent transcription of every
monitoring formula (different algebraic arrangement) compared at 1e-12
relative tolerance."""

import math
from dataclasses import replace

import pytest

from cowqkd import (
    ParameterError,
    data_line_gains,
    full_gain_set,
    nonclassical_gains_ideal,
    total_transmittance,
)
from cowqkd.gains import (
    GainSet,
    _decoy_monitoring_gains,
    _logic_monitoring_gain,
    _routed,
    two_detector_squash,
)
from conftest import make_params

MONITORING_PAIRS = (("Q_0z_M0", "Q_0z_M1"), ("Q_1z_M0", "Q_1z_M1"), ("Q_aa_M0", "Q_aa_M1"),
                    ("Q_00_M0", "Q_00_M1"), ("Q_0x_M0", "Q_0x_M1"))


def unmixed(params):
    """The GainSet at zero misalignment, whose monitoring gains are the closed forms."""
    return full_gain_set(replace(params, e_a=0.0))


# ---------------------------------------------------------------------------
# independent re-implementation used as the transcription oracle
# (cosh/expm1-based arrangement, no shared code with the package kernels)
# ---------------------------------------------------------------------------

def ref_no_click(x, p_d):
    # 1 - (1 - p_d) e^{-x}, grouped the other way around
    return p_d * math.exp(-x) - math.expm1(-x)


def ref_monitoring(mu, t_b, eta, p_d, active):
    c1 = (1 - p_d) * math.exp(-(1 - t_b) * mu * eta / 2)
    gone = ref_no_click((1 - t_b) * mu * eta / 2, p_d)  # = 1 - c1
    if active:
        # the switch routes the whole pulse, so each port sees x = mu eta / 2
        # and the bright decoy 4x; t_B does not enter the conditional gains
        x = mu * eta / 2
        q_logic = (1 - p_d) * (p_d * math.exp(-2 * x) - math.exp(-x) * math.expm1(-x))
        q_aa_m0 = (1 - p_d) * ref_no_click(4 * x, p_d)
        q_aa_m1 = (1 - p_d) * p_d * math.exp(-4 * x)
        q_00 = (1 - p_d) * p_d
    else:
        q_logic = (1 - p_d) ** 2 * math.exp(-t_b * mu * eta) * c1 * gone
        c5 = math.exp(-2 * t_b * mu * eta) + 2 * math.exp(-t_b * mu * (1 + eta)) \
            - 2 * math.exp(-2 * t_b * mu)
        q_aa_m0 = (1 - p_d) ** 3 * ref_no_click(2 * mu * (1 - t_b) * eta, p_d) * c5
        q_aa_m1 = p_d * (1 - p_d) ** 3 * math.exp(-2 * mu * (1 - t_b) * eta) * c5
        q_00 = p_d * (1 - p_d) ** 3
    return q_logic, q_aa_m0, q_aa_m1, q_00


def ref_nonclassical(mu, t_b, eta, p_d, active=False):
    n_plus = 2 * (1 + math.exp(-mu))
    if active:
        # the switch routes the whole pulse: each port sees x = mu eta / 2,
        # there is no data-line leak (c3) and no data-detector spectator
        x, b = mu * eta / 2, mu / 2
        c2 = 2 * math.cosh(b * (1 - eta))
        c4_minus_c2 = 4 * math.sinh(b * (2 - eta) / 2) * math.sinh(b * eta / 2)
        q_m0 = 2 * (1 - p_d) * ref_no_click(x, p_d) * math.exp(-mu / 2) * c2 / n_plus
        q_m1 = 2 * (1 - p_d) * math.exp(-x - mu / 2) * (c4_minus_c2 + p_d * c2) / n_plus
        return q_m0, q_m1
    c1 = (1 - p_d) * math.exp(-(1 - t_b) * mu * eta / 2)
    gone = ref_no_click((1 - t_b) * mu * eta / 2, p_d)  # = 1 - c1
    b = (1 - t_b) * mu / 2
    c2 = 2 * math.cosh(b * (1 - eta))
    # c3 = e^{-tb mu eta} - e^{-tb mu}, via the other stable grouping
    c3 = -math.exp(-t_b * mu * eta) * math.expm1(-t_b * mu * (1 - eta))
    # c4 - c2 through the product-of-sinh identity
    c4_minus_c2 = 4 * math.sinh(b * (2 - eta) / 2) * math.sinh(b * eta / 2)
    q_m0 = (2 / n_plus) * (1 - p_d) ** 3 * gone * (
        math.exp(-(1 + t_b) * mu / 2) * c2 + math.exp(-(1 - t_b) * mu * eta / 2) * c3)
    q_m1 = (2 / n_plus) * (1 - p_d) ** 2 * c1 * (
        math.exp(-(1 + t_b) * mu / 2) * (c4_minus_c2 + p_d * c2) + c3 * gone)
    return q_m0, q_m1


GRID = [
    dict(mu=mu, t_B=t_b, L_km=L, p_d=p_d)
    for mu in (1e-4, 0.01, 0.1, 0.5, 1.0)
    for t_b in (0.01, 0.3, 0.8, 0.99)
    for L in (0.0, 50.0, 150.0)
    for p_d in (0.0, 1e-8, 1e-7)
]


@pytest.mark.parametrize("variant", ["passive", "active"])
def test_monitoring_transcription_matches_reference(variant):
    for point in GRID:
        params = make_params(variant=variant, **point)
        eta = total_transmittance(params)
        mon = unmixed(params)
        q_logic, q_aa_m0, q_aa_m1, q_00 = ref_monitoring(
            params.mu, params.t_B, eta, params.p_d, variant == "active")
        assert mon.Q_0z_M0 == pytest.approx(q_logic, rel=1e-12, abs=1e-300)
        assert mon.Q_aa_M0 == pytest.approx(q_aa_m0, rel=1e-12, abs=1e-300)
        assert mon.Q_aa_M1 == pytest.approx(q_aa_m1, rel=1e-12, abs=1e-300)
        assert mon.Q_00_M0 == pytest.approx(q_00, rel=1e-12, abs=1e-300)


def test_nonclassical_transcription_matches_reference():
    for variant in ("passive", "active"):
        for point in GRID:
            params = make_params(variant=variant, **point)
            eta = total_transmittance(params)
            got = nonclassical_gains_ideal(params)
            want = ref_nonclassical(params.mu, params.t_B, eta, params.p_d,
                                    variant == "active")
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-300), (variant, point)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-300), (variant, point)


def test_active_data_line_routes_whole_pulse():
    # the data line sees mu * eta on the fraction t_B of trials routed to it
    for t_b in (0.01, 0.3, 0.8, 0.99):
        params = make_params(variant="active", t_B=t_b, p_d=1e-7, e_a=0.02)
        lam = params.mu * total_transmittance(params)
        q_correct, q_wrong = two_detector_squash(lam * 0.98, lam * 0.02, 1e-7)
        t0, t1, t2, t3 = data_line_gains(params)
        assert t0 == t3 == pytest.approx(t_b * q_correct, rel=1e-14)
        assert t1 == t2 == pytest.approx(t_b * q_wrong, rel=1e-14)


def test_no_light_no_dark_counts_gives_zero_gains():
    # exact zero at the formula level for mu = 0
    for active in (False, True):
        assert float(_routed(_logic_monitoring_gain, 0.0, 0.5, 0.08, 0.0, active)) == 0.0
        q_aa_m0, q_aa_m1, q_00 = _routed(_decoy_monitoring_gains, 0.0, 0.5, 0.08, 0.0, active)
        assert float(q_aa_m0) == 0.0 and float(q_aa_m1) == 0.0 and float(q_00) == 0.0
    # and vanishingly small through the public surface as mu -> 0
    for variant in ("passive", "active"):
        mon = unmixed(make_params(mu=1e-300, p_d=0.0, variant=variant))
        assert mon.Q_0z_M0 < 1e-299
        assert mon.Q_aa_M0 < 1e-299
        assert mon.Q_aa_M1 == 0.0
        assert mon.Q_00_M0 == 0.0


def test_vacuum_sequence_gain_is_dark_count_formula():
    params = make_params(p_d=1e-8)
    mon = unmixed(params)
    assert mon.Q_00_M0 == 1e-8 * (1 - 1e-8) ** 3
    assert mon.Q_00_M1 == mon.Q_00_M0
    active = unmixed(make_params(p_d=1e-8, variant="active"))
    assert active.Q_00_M0 == 1e-8 * (1 - 1e-8)


def test_vacuum_sequence_independent_of_geometry():
    reference = unmixed(make_params(p_d=1e-7)).Q_00_M0
    for point in (dict(L_km=0.0), dict(L_km=200.0), dict(mu=1.0),
                  dict(mu=1e-4), dict(t_B=0.01), dict(t_B=0.99)):
        assert unmixed(make_params(p_d=1e-7, **point)).Q_00_M0 == reference


def test_logic_sequence_port_symmetry_exact():
    for point in GRID[::7]:
        for variant in ("passive", "active"):
            mon = unmixed(make_params(variant=variant, **point))
            assert mon.Q_0z_M0 == mon.Q_0z_M1 == mon.Q_1z_M0 == mon.Q_1z_M1


def test_nonclassical_reference_point_frozen_values():
    # mu=0.1, t_B=0.5, eta_tot=0.08, p_d=1e-8; expected values computed with a
    # 30-digit independent evaluation of the same expressions
    params = make_params(L_km=50.0, eta_d=0.8, mu=0.1, t_B=0.5, p_d=1e-8)
    q_m0, q_m1 = nonclassical_gains_ideal(params)
    assert q_m0 == pytest.approx(1.9936367028731924e-3, rel=1e-10)
    assert q_m1 == pytest.approx(9.3552243069067183e-5, rel=1e-10)
    assert 0.0 < q_m1 < q_m0 < 1.0


def test_nonclassical_vanishes_when_all_light_routed_to_data():
    # eta = 1 makes c3 = 0 exactly; t_B -> 1 sends both gains to zero
    near = make_params(L_km=0.0, eta_d=1.0, p_d=0.0, t_B=1.0 - 1e-9)
    far = make_params(L_km=0.0, eta_d=1.0, p_d=0.0, t_B=1.0 - 1e-6)
    q_near = nonclassical_gains_ideal(near)
    q_far = nonclassical_gains_ideal(far)
    assert q_near[0] < q_far[0] and q_near[1] < q_far[1]
    assert q_near[0] < 1e-9 and q_near[1] < 1e-9


def test_nonclassical_in_unit_interval_on_grid():
    for point in GRID:
        q_m0, q_m1 = nonclassical_gains_ideal(make_params(**point))
        assert 0.0 <= q_m0 <= 1.0
        assert 0.0 <= q_m1 <= 1.0


def test_misalignment_identity_at_zero():
    # at e_a = 0 the monitoring gains are the unmixed closed forms, exactly
    for variant in ("passive", "active"):
        params = make_params(p_d=1e-8, e_a=0.0, variant=variant)
        eta = total_transmittance(params)
        gains = full_gain_set(params)
        link = (params.mu, params.t_B, eta, params.p_d, variant == "active")
        q_logic = _routed(_logic_monitoring_gain, *link)
        q_aa_m0, q_aa_m1, q_00 = _routed(_decoy_monitoring_gains, *link)
        assert gains.Q_0z_M0 == gains.Q_0z_M1 == gains.Q_1z_M0 == gains.Q_1z_M1 == q_logic
        assert (gains.Q_aa_M0, gains.Q_aa_M1) == (q_aa_m0, q_aa_m1)
        assert gains.Q_00_M0 == gains.Q_00_M1 == q_00
        assert (gains.Q_0x_M0, gains.Q_0x_M1) == nonclassical_gains_ideal(params)


def test_misalignment_conserves_pair_sums():
    params = make_params(p_d=1e-7, e_a=0.0)
    mon = unmixed(params)
    for e_a in (0.01, 0.05, 0.3, 0.49):
        mixed = full_gain_set(replace(params, e_a=e_a))
        for m0, m1 in MONITORING_PAIRS:
            before = getattr(mon, m0) + getattr(mon, m1)
            after = getattr(mixed, m0) + getattr(mixed, m1)
            assert after == pytest.approx(before, rel=1e-14)


def test_misalignment_fixes_equal_pairs():
    params = make_params(p_d=1e-8)
    mon = unmixed(params)
    for e_a in (0.02, 0.2, 0.45):
        mixed = full_gain_set(replace(params, e_a=e_a))
        assert mixed.Q_0z_M0 == pytest.approx(mon.Q_0z_M0, rel=1e-15)
        assert mixed.Q_0z_M1 == pytest.approx(mon.Q_0z_M1, rel=1e-15)
        assert mixed.Q_00_M0 == pytest.approx(mon.Q_00_M0, rel=1e-15)


def test_misalignment_mixes_nonclassical_pair_when_present():
    # the Q_0x pair is always present and mixed like the others
    params = make_params(p_d=1e-8)
    q_m0, q_m1 = nonclassical_gains_ideal(params)
    mixed = full_gain_set(replace(params, e_a=0.1))
    assert mixed.Q_0x_M0 == pytest.approx(0.9 * q_m0 + 0.1 * q_m1, rel=1e-14)
    assert mixed.Q_0x_M1 == pytest.approx(0.9 * q_m1 + 0.1 * q_m0, rel=1e-14)


def test_misalignment_rejects_out_of_range():
    # e_a enters the gains only through SystemParams, which holds it in [0, 0.5)
    with pytest.raises(ParameterError, match="e_a"):
        make_params(e_a=0.5)
    with pytest.raises(ParameterError, match="e_a"):
        make_params(e_a=-0.01)


def test_data_line_no_error_sources_means_no_wrong_clicks():
    t0, t1, t2, t3 = data_line_gains(make_params(p_d=0.0, e_a=0.0))
    assert t1 == 0.0 and t2 == 0.0
    assert t0 > 0.0 and t3 == t0


def test_data_line_half_click_point():
    # t_B * mu * eta = ln 2 gives a correct-slot click probability of 1/2
    mu = math.log(2.0) / 0.9
    params = make_params(L_km=0.0, eta_d=1.0, p_d=0.0, e_a=0.0, mu=mu, t_B=0.9)
    t0, _, _, _ = data_line_gains(params)
    assert t0 == pytest.approx(0.5, rel=1e-14)


def test_data_line_correct_slot_convention():
    params = make_params(p_d=1e-8, e_a=0.02)
    t0, t1, t2, t3 = data_line_gains(params)
    assert t0 == t3  # correct-slot gains of the two sequences
    assert t1 == t2  # wrong-slot gains
    assert t0 > t1


def test_data_line_correct_gain_increases_with_transmittance():
    values = []
    for L in (120.0, 80.0, 40.0, 10.0, 0.0):
        params = make_params(L_km=L, p_d=0.0, e_a=0.01)
        values.append(data_line_gains(params)[0])
    assert all(a < b for a, b in zip(values, values[1:]))


def test_two_detector_squash_matches_enumeration():
    # brute-force over the four click patterns with the uniform tie-break
    import itertools
    i_a, i_b, p_d = 0.3, 0.05, 0.01
    p_a = 1 - (1 - p_d) * math.exp(-i_a)
    p_b = 1 - (1 - p_d) * math.exp(-i_b)
    q_a = q_b = 0.0
    for click_a, click_b in itertools.product((False, True), repeat=2):
        prob = (p_a if click_a else 1 - p_a) * (p_b if click_b else 1 - p_b)
        if click_a and click_b:
            q_a += prob / 2
            q_b += prob / 2
        elif click_a:
            q_a += prob
        elif click_b:
            q_b += prob
    got_a, got_b = two_detector_squash(i_a, i_b, p_d)
    assert got_a == pytest.approx(q_a, rel=1e-14)
    assert got_b == pytest.approx(q_b, rel=1e-14)


def test_all_gains_within_unit_interval_on_parameter_grid():
    for mu in (1e-4, 0.01, 0.3, 1.0):
        for t_b in (0.01, 0.5, 0.99):
            for L in (0.0, 100.0, 200.0):
                for p_d in (0.0, 1e-8, 1e-7):
                    for e_a in (0.0, 0.05, 0.1):
                        for variant in ("passive", "active"):
                            gains = full_gain_set(make_params(
                                mu=mu, t_B=t_b, L_km=L, p_d=p_d, e_a=e_a,
                                variant=variant))
                            for name in ("Q_0z_T0", "Q_0z_T1", "Q_1z_T0",
                                         "Q_1z_T1", "Q_0z_M0", "Q_0z_M1",
                                         "Q_1z_M0", "Q_1z_M1", "Q_aa_M0",
                                         "Q_aa_M1", "Q_00_M0", "Q_00_M1",
                                         "Q_0x_M0", "Q_0x_M1"):
                                value = getattr(gains, name)
                                assert 0.0 <= value <= 1.0, (name, mu, t_b, L, p_d, e_a)


def test_gain_set_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        GainSet(Q_0z_T0=1.2, Q_0z_T1=0.0, Q_1z_T0=0.0, Q_1z_T1=0.1,
                Q_0z_M0=0.1, Q_0z_M1=0.1, Q_1z_M0=0.1, Q_1z_M1=0.1,
                Q_aa_M0=0.1, Q_aa_M1=0.1, Q_00_M0=0.1, Q_00_M1=0.1,
                Q_0x_M0=0.1, Q_0x_M1=0.1)
    with pytest.raises(TypeError):  # the Q_0x pair is required
        GainSet(**dict.fromkeys(("Q_0z_T0", "Q_0z_T1", "Q_1z_T0", "Q_1z_T1", "Q_0z_M0",
                                 "Q_0z_M1", "Q_1z_M0", "Q_1z_M1", "Q_aa_M0", "Q_aa_M1",
                                 "Q_00_M0", "Q_00_M1"), 0.1))
