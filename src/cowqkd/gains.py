"""Closed-form click probabilities (gains) for every prepared two-pulse sequence.

The monitoring-line expressions are transcribed literally from the threshold
detector model of the interferometric measurement, including the eta-free
exponents inside the ``c5`` factor; no "corrected" physics is substituted.
The routing of each pulse, the data-line model and the misalignment
extension are documented here:

* routing: the passive beam splitter sends the fraction t_B of every pulse
  to the data line and 1 - t_B to the monitoring line.  The active switch
  sends the whole pulse down one line, the data line with probability t_B.
  Bob sets the switch and knows its setting, so the active monitoring gains
  are conditional on the monitoring route: they are the passive forms at
  t_B = 0, less the spectator factors of the data detector, which is not
  in that route;
* data line: the non-empty pulse arrives with mean photon number
  lambda = t_B * mu * eta_tot (passive) or lambda = mu * eta_tot (active),
  split as lambda*(1 - e_a) into the correct time slot and lambda*e_a into
  the wrong one, with independent dark counts and uniform random assignment
  of double clicks (squashing).  The active data detector is read only on
  the trials routed to it, so its gains carry the factor t_B;
* misalignment on the monitoring line: uniform port cross-talk mixing of
  every (M0, M1) pair, which is exact at e_a = 0 and conserves pair sums.

All kernels accept scalars or numpy arrays and evaluate elementwise, so the
optimizer's grid path and the scalar API produce bit-identical numbers.
Scalars in give scalars out, never a 0-d array, whose per-call cost in numpy
would dominate a single point; arrays broadcast.  Q_00 depends on p_d alone,
so it stays a scalar on a (mu, t_B) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterError, SystemParams, Variant, total_transmittance

__all__ = [
    "GainSet",
    "MonitoringGains",
    "monitoring_gains_ideal",
    "nonclassical_gains_ideal",
    "apply_misalignment",
    "data_line_gains",
    "full_gain_set",
    "two_detector_squash",
]


# ---------------------------------------------------------------------------
# elementwise kernels (scalar or ndarray inputs)
# ---------------------------------------------------------------------------

def _click_probability(x, p_d):
    """1 - (1 - p_d) * exp(-x); the expm1 form stays exact for tiny x."""
    return -np.expm1(-x) + p_d * np.exp(-x)


def _logic_monitoring_gain(mu, t_b, eta, p_d):
    """Gain of a logic sequence (single non-empty pulse) on either monitoring port."""
    half_pulse = (1.0 - t_b) * mu * eta / 2.0
    c1 = (1.0 - p_d) * np.exp(-half_pulse)
    one_minus_c1 = _click_probability(half_pulse, p_d)
    return (1.0 - p_d) ** 2 * np.exp(-t_b * mu * eta) * c1 * one_minus_c1


def _decoy_monitoring_gains(mu, t_b, eta, p_d):
    """Monitoring gains (Q_aa_M0, Q_aa_M1, Q_00) of the two decoy sequences."""
    nu = 2.0 * mu * (1.0 - t_b) * eta
    bright_click = _click_probability(nu, p_d)  # 1 - (1 - p_d) e^{-nu}
    bright = np.exp(-nu)
    c5 = (
        -2.0 * np.exp(-2.0 * t_b * mu)
        + 2.0 * np.exp(-t_b * mu - t_b * mu * eta)
        + np.exp(-2.0 * t_b * mu * eta)
    )
    q_aa_m0 = (1.0 - p_d) ** 3 * bright_click * c5
    q_aa_m1 = p_d * (1.0 - p_d) ** 3 * bright * c5
    q_00 = p_d * (1.0 - p_d) ** 3  # constant in mu, t_B and eta: broadcasts on a grid
    return q_aa_m0, q_aa_m1, q_00


def _nonclassical_monitoring_gains(mu, t_b, eta, p_d):
    """Monitoring gains (Q_0x_M0, Q_0x_M1) of the even superposition mode.

    The differences c3 = e^{-tb mu eta} - e^{-tb mu} and c4 - c2 are evaluated
    through expm1 products, which are exact where the naive subtractions
    cancel catastrophically.
    """
    half_pulse = (1.0 - t_b) * mu * eta / 2.0
    e_half_pulse = np.exp(-half_pulse)
    c1 = (1.0 - p_d) * e_half_pulse
    one_minus_c1 = _click_probability(half_pulse, p_d)
    b = (1.0 - t_b) * mu / 2.0
    c2 = np.exp(b * (1.0 - eta)) + np.exp(-b * (1.0 - eta))
    c3 = np.exp(-t_b * mu) * np.expm1(t_b * mu * (1.0 - eta))
    c4_minus_c2 = np.expm1(b * eta) * np.exp(-b) * np.expm1(b * (2.0 - eta))
    weight = 2.0 / (2.0 * (1.0 + np.exp(-mu)))  # 2 / N+
    e_mean = np.exp(-(1.0 + t_b) * mu / 2.0)
    q_m0 = weight * (1.0 - p_d) ** 3 * one_minus_c1 * (e_mean * c2 + e_half_pulse * c3)
    q_m1 = weight * (1.0 - p_d) ** 2 * c1 * (e_mean * (c4_minus_c2 + p_d * c2) + c3 * one_minus_c1)
    return q_m0, q_m1


def _routed(kernel, mu, t_b, eta, p_d, active):
    """Evaluate a monitoring-gain kernel under the receiver's routing.

    The kernels are the passive splitter's forms.  The active switch sends the
    whole pulse to the monitoring line on the trials it routes there, and its
    monitoring gains are conditional on that route: the passive form at
    t_B = 0, without the data detector's two (1 - p_d) spectator factors.
    """
    if not active:
        return kernel(mu, t_b, eta, p_d)
    gains = kernel(mu, 0.0, eta, p_d)
    spectators = (1.0 - p_d) ** 2
    if isinstance(gains, tuple):
        return tuple(q / spectators for q in gains)
    return gains / spectators


def _routed_floats(kernel, params: SystemParams, eta: float):
    """A monitoring kernel's unmixed, routed gains at params (total transmittance
    eta), as Python floats."""
    gains = _routed(kernel, params.mu, params.t_B, eta, params.p_d,
                    params.variant is Variant.ACTIVE)
    return tuple(map(float, gains)) if isinstance(gains, tuple) else float(gains)


def two_detector_squash(intensity_a, intensity_b, p_d):
    """Click probabilities of a two-detector stage with random double-click assignment.

    Each detector is a threshold detector seeing Poisson light of the given
    mean photon number plus an independent dark count; a double click is
    assigned to either outcome with probability 1/2.
    """
    p_a = _click_probability(intensity_a, p_d)
    p_b = _click_probability(intensity_b, p_d)
    q_a = p_a * (1.0 - p_b) + 0.5 * p_a * p_b
    q_b = p_b * (1.0 - p_a) + 0.5 * p_a * p_b
    return q_a, q_b


def _data_line_pair(mu, t_b, eta, p_d, e_a, active):
    """(Q_correct, Q_wrong) of the arrival-time measurement for one logic sequence.

    The passive splitter sends lambda = t_B * mu * eta to the data line on
    every trial.  The active switch sends the whole pulse, lambda = mu * eta,
    on the fraction t_B of trials it routes to the data line, and the data
    detector is read only then, so both gains carry the factor t_B.
    """
    if active:
        lam = mu * eta
        q_correct, q_wrong = two_detector_squash(lam * (1.0 - e_a), lam * e_a, p_d)
        return t_b * q_correct, t_b * q_wrong
    lam = t_b * mu * eta
    return two_detector_squash(lam * (1.0 - e_a), lam * e_a, p_d)


def _mix_pair(m0, m1, e_a):
    """Uniform port cross-talk: each outcome leaks into the other with weight e_a."""
    return (1.0 - e_a) * m0 + e_a * m1, (1.0 - e_a) * m1 + e_a * m0


# ---------------------------------------------------------------------------
# public containers and operations
# ---------------------------------------------------------------------------

def _check_probability(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):  # also false for NaN and +-inf
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


def _check_gain_fields(gains) -> None:
    """Each field, in declaration order, must be a probability; the Q_0x pair may be None."""
    for name, value in vars(gains).items():  # in declaration order
        if value is not None or name not in ("Q_0x_M0", "Q_0x_M1"):
            _check_probability(name, value)


def _check_ideal(gains, mu: float) -> None:
    """Validate unmixed gains in order; overflow at huge mu is a ParameterError."""
    for name, value in gains:
        if not math.isfinite(value):
            raise ParameterError(f"mu={mu!r} is too large: exp(mu) overflows the gain {name}")
        _check_probability(name, value)


def _check_misalignment(e_a: float) -> None:
    if not (0.0 <= e_a < 0.5):
        raise ValueError(f"e_a must be in [0, 0.5), got {e_a!r}")


@dataclass(frozen=True)
class MonitoringGains:
    """Monitoring-line gains of all sequences; the Q_0x pair is optional."""

    Q_0z_M0: float
    Q_0z_M1: float
    Q_1z_M0: float
    Q_1z_M1: float
    Q_aa_M0: float
    Q_aa_M1: float
    Q_00_M0: float
    Q_00_M1: float
    Q_0x_M0: float | None = None
    Q_0x_M1: float | None = None

    __post_init__ = _check_gain_fields


@dataclass(frozen=True)
class GainSet:
    """Full vector of per-sequence, per-detector click probabilities.

    Data-line slots are labelled semantically: for the sequence w_z the slot
    T_w is the correct one, so Q_0z_T1 and Q_1z_T0 are the error gains.
    """

    Q_0z_T0: float
    Q_0z_T1: float
    Q_1z_T0: float
    Q_1z_T1: float
    Q_0z_M0: float
    Q_0z_M1: float
    Q_1z_M0: float
    Q_1z_M1: float
    Q_aa_M0: float
    Q_aa_M1: float
    Q_00_M0: float
    Q_00_M1: float
    Q_0x_M0: float | None = None
    Q_0x_M1: float | None = None

    __post_init__ = _check_gain_fields


def monitoring_gains_ideal(params: SystemParams) -> MonitoringGains:
    """Monitoring-line gains at zero misalignment, dispatching on the variant.

    The loss factor entering every expression is the total transmittance
    (channel times detector efficiency).  The logic-sequence gains are equal
    on both ports by symmetry of a single non-empty pulse.
    """
    eta = total_transmittance(params)
    q_logic = _routed_floats(_logic_monitoring_gain, params, eta)
    q_aa_m0, q_aa_m1, q_00 = _routed_floats(_decoy_monitoring_gains, params, eta)
    return MonitoringGains(
        Q_0z_M0=q_logic, Q_0z_M1=q_logic, Q_1z_M0=q_logic, Q_1z_M1=q_logic,
        Q_aa_M0=q_aa_m0, Q_aa_M1=q_aa_m1, Q_00_M0=q_00, Q_00_M1=q_00,
    )


def nonclassical_gains_ideal(params: SystemParams) -> tuple[float, float]:
    """(Q_0x_M0, Q_0x_M1) of the even superposition mode at zero misalignment.

    The active variant routes the whole pulse, like its logic and decoy gains.
    """
    return _routed_floats(_nonclassical_monitoring_gains, params, total_transmittance(params))


def apply_misalignment(gains: MonitoringGains, e_a: float) -> MonitoringGains:
    """Mix every (M0, M1) pair by the port cross-talk weight e_a.

    The mixing conserves each pair sum and is the identity at e_a = 0.
    """
    _check_misalignment(e_a)
    mixed = {}
    for m0 in ("Q_0z_M0", "Q_1z_M0", "Q_aa_M0", "Q_00_M0", "Q_0x_M0"):
        m1 = m0[:-1] + "1"
        pair = getattr(gains, m0), getattr(gains, m1)
        if None not in pair:  # only the optional Q_0x pair can be None
            mixed[m0], mixed[m1] = _mix_pair(*pair, e_a)
    return MonitoringGains(**mixed)


def data_line_gains(params: SystemParams) -> tuple[float, float, float, float]:
    """(Q_0z_T0, Q_0z_T1, Q_1z_T0, Q_1z_T1) of the arrival-time measurement."""
    q_correct, q_wrong = _data_line_floats(params, total_transmittance(params))
    return q_correct, q_wrong, q_wrong, q_correct


def _data_line_floats(params: SystemParams, eta: float) -> tuple[float, float]:
    """(Q_correct, Q_wrong) at params (total transmittance eta) as Python floats."""
    q_correct, q_wrong = _data_line_pair(params.mu, params.t_B, eta, params.p_d, params.e_a,
                                         params.variant is Variant.ACTIVE)
    return float(q_correct), float(q_wrong)


def full_gain_set(params: SystemParams, include_nonclassical: bool = True) -> GainSet:
    """Assemble the complete GainSet at the given operating point.

    Monitoring gains are the ideal closed forms with misalignment mixing
    applied; data-line gains carry the wrong-slot leakage directly.  Each
    kernel runs once, at one total transmittance.  Validated in order: the
    unmixed logic and decoy gains, then the unmixed Q_0x pair (a non-finite
    one, from exp(mu) overflowing, is a ParameterError naming mu); e_a; then
    the GainSet, i.e. the data-line and the mixed monitoring gains.  Mixing
    can pull a gain above 1 back under it, so the unmixed checks are kept.
    """
    mu, e_a = params.mu, params.e_a
    eta = total_transmittance(params)
    q_logic = _routed_floats(_logic_monitoring_gain, params, eta)
    q_aa_m0, q_aa_m1, q_00 = _routed_floats(_decoy_monitoring_gains, params, eta)
    _check_ideal((("Q_0z_M0", q_logic), ("Q_aa_M0", q_aa_m0), ("Q_aa_M1", q_aa_m1),
                  ("Q_00_M0", q_00)), mu)
    q_0x: tuple[float | None, float | None] = (None, None)
    if include_nonclassical:
        q_0x = _routed_floats(_nonclassical_monitoring_gains, params, eta)
        _check_ideal(zip(("Q_0x_M0", "Q_0x_M1"), q_0x), mu)
    _check_misalignment(e_a)
    q_z_m0, q_z_m1 = _mix_pair(q_logic, q_logic, e_a)
    q_aa_m0, q_aa_m1 = _mix_pair(q_aa_m0, q_aa_m1, e_a)
    q_00_m0, q_00_m1 = _mix_pair(q_00, q_00, e_a)
    if include_nonclassical:
        q_0x = _mix_pair(*q_0x, e_a)
    q_correct, q_wrong = _data_line_floats(params, eta)
    return GainSet(
        Q_0z_T0=q_correct, Q_0z_T1=q_wrong, Q_1z_T0=q_wrong, Q_1z_T1=q_correct,
        Q_0z_M0=q_z_m0, Q_0z_M1=q_z_m1, Q_1z_M0=q_z_m0, Q_1z_M1=q_z_m1,
        Q_aa_M0=q_aa_m0, Q_aa_M1=q_aa_m1, Q_00_M0=q_00_m0, Q_00_M1=q_00_m1,
        Q_0x_M0=q_0x[0], Q_0x_M1=q_0x[1],
    )
