"""Error rates, the phase-error upper bound, key rates, and reference bounds.

All formulas are implemented once as elementwise kernels (scalar or ndarray).
The rate chain ``_rate_chain`` composes them with the gains of
``gains._gain_record``, for the search's grid, its rows and
``evaluate_point``; the public functions below are the same kernels one step
at a time, so the two paths agree bit for bit.  As in ``gains``, scalars in
give scalars out, never a 0-d array, and arrays broadcast.  Logarithms are
base 2 throughout and rates are per transmitted pulse pair.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .gains import GainSet, _gain_record, _n_minus, _n_plus
from .params import ParameterError, SystemParams, Variant

__all__ = [
    "BoundPair",
    "RatePoint",
    "NoDetectionError",
    "NoMonitoringDetectionError",
    "binary_entropy",
    "bit_error_z",
    "gain_bounds",
    "phase_error_upper",
    "phase_error_upper_raw",
    "bit_error_x",
    "key_rate_cow",
    "key_rate_nonclassical",
    "plob_bound",
    "azuma_deviation",
]


class NoDetectionError(ValueError):
    """All data-line gains vanish: no clicks to build statistics from."""


class NoMonitoringDetectionError(ValueError):
    """All monitoring-line gains vanish: the error-rate ratios are undefined."""


@dataclass(frozen=True)
class BoundPair:
    """Analytic bounds on the unobservable superposition-mode gains.

    ``Q_0x_M1_upper`` is clamped to <= 1 and ``Q_0x_M0_lower`` to >= 0 at
    construction time by :func:`gain_bounds`.
    """

    Q_0x_M1_upper: float
    Q_0x_M0_lower: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.Q_0x_M1_upper <= 1.0):
            raise ValueError(f"Q_0x_M1_upper out of [0, 1]: {self.Q_0x_M1_upper!r}")
        if not (0.0 <= self.Q_0x_M0_lower <= 1.0):
            raise ValueError(f"Q_0x_M0_lower out of [0, 1]: {self.Q_0x_M0_lower!r}")


@dataclass(frozen=True)
class RatePoint:
    """One distance's result: parameters, gain, error rates, and key rates."""

    L_km: float
    eta_ch: float
    eta_tot: float
    mu_opt: float
    tB_opt: float
    Q_z: float
    E_b: float
    E_p_u: float
    E_x: float
    R: float
    R_tilde: float
    R_plob: float
    flag: str = ""

    def __post_init__(self) -> None:
        if self.R < 0.0 or self.R_tilde < 0.0:
            raise ValueError("key rates must be nonnegative")
        for name in ("L_km", "eta_ch", "eta_tot", "mu_opt", "tB_opt", "Q_z",
                     "E_b", "E_p_u", "E_x", "R", "R_tilde"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # R_plob alone may be +inf: the capacity reference diverges on a
        # lossless channel (L = 0).
        if math.isnan(self.R_plob) or self.R_plob < 0.0:
            raise ValueError("R_plob must be nonnegative and not NaN")


# ---------------------------------------------------------------------------
# elementwise kernels
# ---------------------------------------------------------------------------

def _entropy_kernel(a):
    """Binary Shannon entropy with h(0) = h(1) = 0 by continuity; NaN stays NaN."""
    if isinstance(a, float):  # one point (numpy's float64 is a float too): the
        if a <= 0.0 or a >= 1.0:  # operations below without the masks, 8x faster
            return 0.0
        rest = 1.0 - a
        return -a * np.log2(a) - rest * np.log2(rest)
    edge = (a <= 0.0) | (a >= 1.0)
    safe = np.where(edge, 0.5, a)
    rest = 1.0 - safe
    value = -safe * np.log2(safe) - rest * np.log2(rest)
    return np.where(edge, 0.0, value)[()]  # [()] unwraps a 0-d result to a scalar


def _bounds_kernel(q_aa_m0, q_aa_m1, q_00_m0, q_00_m1, mu):
    """(upper on Q_0x_M1, lower on Q_0x_M0), clamped to [0, 1] and >= 0."""
    n_plus = _n_plus(mu)
    n_minus = _n_minus(mu)
    e_plus_half = np.exp(mu / 2.0)
    e_minus_half = np.exp(-mu / 2.0)
    e_full = np.exp(mu)
    inv_n_plus, ratio = 1.0 / n_plus, n_minus / n_plus
    r_aa_m0, r_aa_m1 = np.sqrt(q_aa_m0), np.sqrt(q_aa_m1)
    r_00_m0, r_00_m1 = np.sqrt(q_00_m0), np.sqrt(q_00_m1)
    upper = inv_n_plus * np.square(e_plus_half * r_aa_m1 + e_minus_half * r_00_m1) \
        + ratio * (e_full * n_minus / 4.0 + e_full * r_aa_m1 + r_00_m1)
    lower = inv_n_plus * np.square(e_plus_half * r_aa_m0 - e_minus_half * r_00_m0) \
        - ratio * (e_full * r_aa_m0 + r_00_m0)
    return np.minimum(upper, 1.0), np.maximum(lower, 0.0)


def _monitoring_denominator(q_0z_m0, q_0z_m1, q_1z_m0, q_1z_m1):
    return 2.0 * (q_0z_m0 + q_0z_m1 + q_1z_m0 + q_1z_m1)


def _phase_error_kernel(q_0z_m0, q_0z_m1, q_1z_m0, q_1z_m1, upper, lower, mu):
    """(pre-clamp, clamped-to-[0, 0.5]) phase-error upper bound.

    The leakage bracket is floored at zero: a lower bound on the constructive
    port gain larger than the observed gain sum cannot buy negative error.
    """
    n_plus = _n_plus(mu)
    denom = _monitoring_denominator(q_0z_m0, q_0z_m1, q_1z_m0, q_1z_m1)
    numer = n_plus * upper + np.maximum(0.0, 2.0 * (q_0z_m0 + q_1z_m0) - n_plus * lower)
    raw = numer / denom
    return raw, np.clip(raw, 0.0, 0.5)


def _bit_error_x_kernel(q_0z_m0, q_0z_m1, q_1z_m0, q_1z_m1, q_0x_m0, q_0x_m1, mu):
    """(pre-clamp, clamped-to-[0, 1]) X-basis bit error rate from the true gains."""
    n_plus = _n_plus(mu)
    denom = _monitoring_denominator(q_0z_m0, q_0z_m1, q_1z_m0, q_1z_m1)
    numer = n_plus * q_0x_m1 + (2.0 * (q_0z_m0 + q_1z_m0) - n_plus * q_0x_m0)
    raw = numer / denom
    return raw, np.clip(raw, 0.0, 1.0)


def _bit_error_z_kernel(q_0z_t0, q_0z_t1, q_1z_t0, q_1z_t1):
    """(E_z, Q_z) from the four data-line gains."""
    total = q_0z_t0 + q_0z_t1 + q_1z_t0 + q_1z_t1
    return (q_0z_t1 + q_1z_t0) / total, total / 2.0


def _key_rate_kernel(q_z, h_phase, h_bit, f_ec):
    """max(0, Q_z (1 - h_phase - f_ec h_bit)) from the two binary entropies."""
    return np.maximum(0.0, q_z * (1.0 - h_phase - f_ec * h_bit))


# ---------------------------------------------------------------------------
# the rate chain
# ---------------------------------------------------------------------------

# The chain's record, named like the public API: the GainSet's 14 gains and
# the bound pair, which the public steps require in [0, 1]; the RatePoint's
# rates; the pre-clamp E_p_u and E_x; and ``unmixed``, the monitoring gains
# before mixing, which full_gain_set requires in [0, 1] too.  A branch left
# out has None for its gains, bound pair, error rates and rate.
_CHECKED = (*(f.name for f in fields(GainSet)), "Q_0x_M1_upper", "Q_0x_M0_lower")
_RATES = ("Q_z", "E_b", "E_p_u", "E_x", "R", "R_tilde")  # a RatePoint's, in its order
_CHAIN_FIELDS = (*_CHECKED, *_RATES, "E_p_u_raw", "E_x_raw", "unmixed")
_Chain = namedtuple("_Chain", _CHAIN_FIELDS, defaults=(None,) * len(_CHAIN_FIELDS))


def _rate_chain(base: SystemParams, eta, mu, t_b, cow=True, nonclassical=True) -> _Chain:
    """The rate chain, elementwise over broadcastable eta, mu, t_B.

    ``eta`` is the total transmittance; ``base`` supplies the other link
    parameters and the variant, and its distance is not used.  Only the
    requested phase-error branches run: with ``cow`` the Cauchy bound and R,
    with ``nonclassical`` the superposition-mode gains and R_tilde.  On one
    point's Python floats every value is a scalar.
    """
    gains, unmixed = _gain_record(mu, t_b, eta, base.p_d, base.e_a,
                                  base.variant is Variant.ACTIVE, cow, nonclassical)
    e_z, q_z = _bit_error_z_kernel(gains["Q_0z_T0"], gains["Q_0z_T1"],
                                   gains["Q_1z_T0"], gains["Q_1z_T1"])
    h_bit = _entropy_kernel(e_z)
    logic = gains["Q_0z_M0"], gains["Q_0z_M1"], gains["Q_1z_M0"], gains["Q_1z_M1"]
    record = dict(gains, Q_z=q_z, E_b=e_z)
    if cow:
        upper, lower = _bounds_kernel(gains["Q_aa_M0"], gains["Q_aa_M1"],
                                      gains["Q_00_M0"], gains["Q_00_M1"], mu)
        e_p_u_raw, e_p_u = _phase_error_kernel(*logic, upper, lower, mu)
        record.update(Q_0x_M1_upper=upper, Q_0x_M0_lower=lower, E_p_u_raw=e_p_u_raw, E_p_u=e_p_u,
                      R=_key_rate_kernel(q_z, _entropy_kernel(e_p_u), h_bit, base.f_ec))
    if nonclassical:
        e_x_raw, e_x = _bit_error_x_kernel(*logic, gains["Q_0x_M0"], gains["Q_0x_M1"], mu)
        record.update(E_x_raw=e_x_raw, E_x=e_x,
                      R_tilde=_key_rate_kernel(q_z, _entropy_kernel(e_x), h_bit, base.f_ec))
    return _Chain(unmixed=unmixed, **record)


def _margin(chain: _Chain, f_ec, cow=True):
    """A smooth margin of the rate: positive where it is, unless Q_z times it underflows.

    COW: 1 - h^(E_p_u_raw) - f h(E_b), with h^ = h up to 1/2 and 1 + (2 / ln 2)(x - 1/2)^2
    above (C1, increasing, complex-step safe): it keeps falling where the bound is
    clamped and R is flat at 0.  Nonclassical: R_tilde's bracket before its floor.  In
    ``_key_rate_kernel``'s operand order, so it is the bracket where the bound is not clamped.
    """
    if not cow:
        return 1.0 - _entropy_kernel(chain.E_x) - f_ec * _entropy_kernel(chain.E_b)
    raw = chain.E_p_u_raw
    h_phase = np.where(np.real(raw) > 0.5, 1.0 + 2.0 / math.log(2.0) * (raw - 0.5) ** 2,
                       _entropy_kernel(chain.E_p_u))
    return 1.0 - h_phase - f_ec * _entropy_kernel(chain.E_b)


def _accepted(chain: _Chain):
    """Where a chain of both branches passes every check of the public steps.

    Elementwise: the unmixed and the mixed gains and the bound pair lie in
    [0, 1] (full_gain_set, gain_bounds), and there are data-line clicks
    (bit_error_z) and monitoring clicks (phase_error_upper), which make
    every rate finite.
    """
    ok = (chain.Q_z > 0.0) & (chain.Q_0z_M0 + chain.Q_0z_M1 > 0.0)
    for q in (*(getattr(chain, name) for name in _CHECKED), *chain.unmixed):
        ok &= (0.0 <= q) & (q <= 1.0)  # also false for NaN and +-inf
    return ok


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def binary_entropy(a: float) -> float:
    """h(a) = -a log2 a - (1-a) log2(1-a), with h(0) = h(1) = 0."""
    arr = np.asarray(a, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {a!r}")
    result = _entropy_kernel(arr)
    return float(result) if np.ndim(a) == 0 else result


def bit_error_z(gains: GainSet) -> tuple[float, float]:
    """(E_z, Q_z): data-line bit error rate and sifted gain.

    E_z is the wrong-slot fraction of all data-line clicks; Q_z is half the
    sum of the four data-line gains.
    """
    total = gains.Q_0z_T0 + gains.Q_0z_T1 + gains.Q_1z_T0 + gains.Q_1z_T1
    if total <= 0.0:
        raise NoDetectionError("all data-line gains are zero")
    e_z, q_z = _bit_error_z_kernel(gains.Q_0z_T0, gains.Q_0z_T1, gains.Q_1z_T0, gains.Q_1z_T1)
    return float(e_z), float(q_z)


def gain_bounds(q_aa_m0: float, q_aa_m1: float, q_00_m0: float, q_00_m1: float,
                mu: float) -> BoundPair:
    """Cauchy-inequality bounds on the superposition-mode gains.

    Built from the observed decoy-sequence gains; the upper bound is clamped
    to 1 and the lower bound to 0.  Raises ParameterError where mu is so
    large that the bound is not finite.
    """
    for name, value in (("q_aa_m0", q_aa_m0), ("q_aa_m1", q_aa_m1),
                        ("q_00_m0", q_00_m0), ("q_00_m1", q_00_m1)):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    if not mu > 0.0:
        raise ValueError(f"mu must be > 0, got {mu!r}")
    upper, lower = _bounds_kernel(q_aa_m0, q_aa_m1, q_00_m0, q_00_m1, mu)
    if not (math.isfinite(upper) and math.isfinite(lower)):
        raise ParameterError(f"mu={mu!r} is too large: exp(mu) overflows the Cauchy bound")
    return BoundPair(Q_0x_M1_upper=float(upper), Q_0x_M0_lower=float(lower))


def _require_monitoring(gains: GainSet) -> None:
    denom = _monitoring_denominator(gains.Q_0z_M0, gains.Q_0z_M1, gains.Q_1z_M0, gains.Q_1z_M1)
    if denom <= 0.0:
        raise NoMonitoringDetectionError("all logic-sequence monitoring gains are zero")


def _phase_error(gains: GainSet, bounds: BoundPair, mu: float):
    _require_monitoring(gains)
    return _phase_error_kernel(
        gains.Q_0z_M0, gains.Q_0z_M1, gains.Q_1z_M0, gains.Q_1z_M1,
        bounds.Q_0x_M1_upper, bounds.Q_0x_M0_lower, mu,
    )


def phase_error_upper(gains: GainSet, bounds: BoundPair, mu: float) -> float:
    """Phase-error upper bound, clamped to [0, 0.5].

    A pre-clamp value above 0.5 means the bound is trivial and the key rate
    is zero; the raw value is available via :func:`phase_error_upper_raw`.
    """
    return float(_phase_error(gains, bounds, mu)[1])


def phase_error_upper_raw(gains: GainSet, bounds: BoundPair, mu: float) -> float:
    """Pre-clamp value of :func:`phase_error_upper` (diagnostic)."""
    return float(_phase_error(gains, bounds, mu)[0])


def bit_error_x(gains: GainSet, mu: float) -> float:
    """X-basis bit error rate from the true superposition-mode gains, in [0, 1]."""
    _require_monitoring(gains)
    return float(_bit_error_x_kernel(
        gains.Q_0z_M0, gains.Q_0z_M1, gains.Q_1z_M0, gains.Q_1z_M1,
        gains.Q_0x_M0, gains.Q_0x_M1, mu,
    )[1])


def key_rate_cow(q_z: float, e_p_u: float, e_b: float, f_ec: float) -> float:
    """R = max(0, Q_z * (1 - h(E_p_u) - f_ec * h(E_b))), per pulse pair."""
    return float(_key_rate_kernel(q_z, _entropy_kernel(e_p_u), _entropy_kernel(e_b), f_ec))


def key_rate_nonclassical(q_z: float, e_x: float, e_z: float, f_ec: float) -> float:
    """Same rate formula with the X-basis error in place of the phase-error bound."""
    return float(_key_rate_kernel(q_z, _entropy_kernel(e_x), _entropy_kernel(e_z), f_ec))


def plob_bound(eta_ch: float) -> float:
    """Repeaterless secret-key capacity -log2(1 - eta) of a lossy channel.

    Through log1p, so a small eta keeps its relative accuracy and 0 gives +0.0.
    """
    if not (0.0 <= eta_ch < 1.0):
        raise ValueError(f"eta_ch must be in [0, 1), got {eta_ch!r}")
    return -math.log1p(-eta_ch) / math.log(2.0)


def azuma_deviation(K: float, fail_prob: float) -> float:
    """Concentration radius eps with failure probability 2 * exp(-K * eps^2 / 2).

    Inverts the martingale tail bound: eps = sqrt(2 * ln(2 / fail_prob) / K).
    Arguments up to fail_prob < 2 are accepted so the inversion identity
    stays total; values >= 1 make the tail statement vacuous.
    """
    if not 1 <= K < math.inf:
        raise ValueError(f"K must be a finite number >= 1, got {K!r}")
    if not (0.0 < fail_prob < 2.0):
        raise ValueError(f"fail_prob must be in (0, 2), got {fail_prob!r}")
    return math.sqrt(2.0 * math.log(2.0 / fail_prob) / K)
