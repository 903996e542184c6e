"""Seeded Monte-Carlo sampler of the documented optical/detection model.

The oracle samples threshold detection of Poisson light plus independent dark
counts and resolves double clicks by a fair random assignment.  It is exact
and sparse: its random draws scale with the clicks, not the trials (see
:func:`sample_clicks`), and it never evaluates the click probability it is
checked against.  Its counting is event-proportional on sparse sequences:
below ``_EVENT_ROUTE_MAX`` expected click events per trial, a sequence is
counted from its sorted event indices, with no n-length array; a denser one
is counted on click masks.  Both routes make the same draws and give the
same integers.  It validates the analytic data-line model and the
misalignment extension; for the monitoring line it samples the same
documented squash model, while the literal closed-form gains carry extra
spectator conditioning factors, so those are compared through an
informational ratio report rather than a statistical gate.  That report
reads the mixed monitoring gains of ``full_gain_set`` by field name.

Randomness comes from the counter-based Philox generator.  Every estimated
sequence owns a keyed substream, so estimates are independent of evaluation
order and of how many other quantities are sampled.

The small-count 4-sigma gate takes exact Poisson quantiles from a pmf summed
in log space with :mod:`math`, so no code path uses SciPy.  ``scipy`` is
still imported, without any submodule, only because perfbench's environment
line reads its version; it goes once that line tolerates its absence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy  # noqa: F401  (loads no submodule; perfbench's environment line reads its version)

from .gains import data_line_gains, full_gain_set, two_detector_squash
from .params import SystemParams, Variant, total_transmittance

__all__ = [
    "OracleEstimate",
    "GainCheck",
    "RatioEntry",
    "CaseReport",
    "VerificationReport",
    "sample_clicks",
    "estimate_data_gains",
    "estimate_monitoring_gains",
    "model_monitoring_gains",
    "default_verification_cases",
    "run_verification",
]

MIN_SAMPLES = 10_000

# Substream indices, one per estimated sequence.
_STREAM_DATA_0Z = 0
_STREAM_DATA_1Z = 1
_STREAM_MON_0Z = 2
_STREAM_MON_1Z = 3
_STREAM_MON_AA = 4
_STREAM_MON_00 = 5

# One-sided 4-sigma tail mass, used by the exact small-count check: the value
# of scipy.stats.norm.cdf(-4.0) (0.5*erfc(4/sqrt(2)) differs in the last bit).
_TAIL_4SIGMA = 3.167124183311986e-05

# Expected click events per trial (lambda_a + lambda_b + 2 p_d) from which a
# sequence is counted on n-length click masks; sparser ones are counted from
# their event indices.  Mask-route time over event-route time per sequence,
# random draws included (medians; 2-CPU AVX-512 host, numpy 2.4.6):
#
#   events/trial   0.005   0.02   0.04   0.0625   0.1
#   n = 5e5        4.9x    2.4x   1.4x   0.81x    0.58x
#   n = 1e7        8.6x    2.8x   1.7x   1.4x     0.82x
#
# Below 1/32 the event route is faster at both sizes.  Every sequence of the
# three dim default cases (at most 0.025) falls below it, the bright lines
# (0.15-0.70) above.
_EVENT_ROUTE_MAX = 1.0 / 32.0


@dataclass(frozen=True)
class OracleEstimate:
    """Monte-Carlo gain estimate with its binomial standard error."""

    gain_name: str
    estimate: float
    n_samples: int
    std_err: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.estimate <= 1.0):
            raise ValueError(f"estimate out of [0, 1]: {self.estimate!r}")
        if self.std_err < 0.0:
            raise ValueError("std_err must be >= 0")


def _substream(seed: int, stream: int) -> np.random.Generator:
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _draw_events(lambda_mean: float, p_d: float, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(dark trials, photon trials) of one detector over n trials.

    The draws :func:`sample_clicks` describes, in its order.  Dark trials are
    distinct; a photon trial may repeat and may be a dark trial too.
    """
    if not lambda_mean >= 0.0:
        raise ValueError(f"lambda_mean must be >= 0, got {lambda_mean!r}")
    n_dark = int(rng.binomial(n, p_d))
    # choice(size=0) draws nothing but takes about 13 us; at p_d = 1e-8 most
    # calls would have size 0
    dark = (rng.choice(n, size=n_dark, replace=False, shuffle=False) if n_dark
            else np.empty(0, dtype=np.int64))
    return dark, rng.integers(0, n, size=rng.poisson(n * lambda_mean))


def sample_clicks(lambda_mean: float, p_d: float, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n threshold-detector outcomes for Poisson light plus dark counts.

    Built sparsely, with random draws in proportion to the events.  Dark
    counts: K ~ Binomial(n, p_d) distinct trials, chosen uniformly.  Light:
    N ~ Poisson(n * lambda_mean) photons, each landing on a uniform trial,
    which gives every trial an independent Poisson(lambda_mean) photon
    number.  Each outcome is True with probability
    1 - (1 - p_d) * exp(-lambda_mean), which is never evaluated here.
    """
    clicks = np.zeros(n, dtype=bool)
    for trials in _draw_events(lambda_mean, p_d, n, rng):
        clicks[trials] = True
    return clicks


def _split_double_clicks(count_a: int, count_b: int, n_both: int,
                         rng: np.random.Generator) -> tuple[int, int]:
    """(count_a, count_b) after each of n_both double clicks goes to a with probability 1/2."""
    to_a = int(rng.binomial(n_both, 0.5))
    return count_a - n_both + to_a, count_b - to_a


def _squash_counts(clicks_a: np.ndarray, clicks_b: np.ndarray,
                   rng: np.random.Generator) -> tuple[int, int]:
    """Assign double clicks uniformly; return (count_a, count_b).

    Each of the k double clicks goes to detector a with probability 1/2, so
    detector a receives Binomial(k, 1/2) of them and b the rest.
    """
    n_both = int(np.count_nonzero(clicks_a & clicks_b))
    return _split_double_clicks(int(np.count_nonzero(clicks_a)), int(np.count_nonzero(clicks_b)),
                                n_both, rng)


def _distinct_trials(dark: np.ndarray, photons: np.ndarray) -> np.ndarray:
    """The sorted distinct trials among one detector's events."""
    trials = np.sort(np.concatenate([dark, photons]))
    first = np.empty(trials.size, dtype=bool)
    first[:1] = True
    np.not_equal(trials[1:], trials[:-1], out=first[1:])
    return trials[first]


def _event_counts(trials_a: np.ndarray, trials_b: np.ndarray) -> tuple[int, int, int]:
    """(clicks of a, clicks of b, double clicks) from sorted distinct trials.

    The stable sort (timsort) merges the two sorted runs in linear time, and
    a trial in both runs is an adjacent equal pair of the merge.
    """
    merged = np.sort(np.concatenate([trials_a, trials_b]), kind="stable")
    return trials_a.size, trials_b.size, int(np.count_nonzero(merged[1:] == merged[:-1]))


def _squashed_sequence(lambda_a: float, lambda_b: float, p_d: float, n: int,
                       rng: np.random.Generator) -> tuple[int, int]:
    """Squashed (count_a, count_b) of one sequence of n trials on two detectors.

    The draws are the same on both routes: detector a's, then b's, then the
    double-click split.  A dense sequence is counted on click masks; a sparse
    one from its sorted event indices, in time and memory proportional to
    its events.  Both routes give the same integers.
    """
    if lambda_a + lambda_b + 2.0 * p_d >= _EVENT_ROUTE_MAX:
        clicks_a = sample_clicks(lambda_a, p_d, n, rng)
        return _squash_counts(clicks_a, sample_clicks(lambda_b, p_d, n, rng), rng)
    trials_a = _distinct_trials(*_draw_events(lambda_a, p_d, n, rng))
    trials_b = _distinct_trials(*_draw_events(lambda_b, p_d, n, rng))
    return _split_double_clicks(*_event_counts(trials_a, trials_b), rng)


def _estimate(name: str, count: int, n: int) -> OracleEstimate:
    p_hat = count / n
    return OracleEstimate(
        gain_name=name,
        estimate=p_hat,
        n_samples=n,
        std_err=float(np.sqrt(p_hat * (1.0 - p_hat) / n)),
    )


def estimate_data_gains(params: SystemParams, n_samples: int,
                        seed: int) -> dict[str, OracleEstimate]:
    """Sampled data-line gains Q_0z_T0, Q_0z_T1, Q_1z_T0, Q_1z_T1.

    Per logic sequence the correct slot sees lambda * (1 - e_a) and the wrong
    slot lambda * e_a, plus independent dark counts; double clicks are
    assigned uniformly.  The passive splitter gives every trial
    lambda = t_B * mu * eta_tot.  The active switch routes a trial to the
    data line with probability t_B and then gives it the whole pulse,
    lambda = mu * eta_tot; the other trials leave the data detector unread,
    so only the routed trials are sampled.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    active = params.variant is Variant.ACTIVE
    eta = total_transmittance(params)
    lam = params.mu * eta if active else params.t_B * params.mu * eta
    out: dict[str, OracleEstimate] = {}
    for label, stream, correct_slot, wrong_slot in (
        ("0z", _STREAM_DATA_0Z, "T0", "T1"),
        ("1z", _STREAM_DATA_1Z, "T1", "T0"),
    ):
        rng = _substream(seed, stream)
        n_read = int(rng.binomial(n_samples, params.t_B)) if active else n_samples
        n_correct, n_wrong = _squashed_sequence(lam * (1.0 - params.e_a), lam * params.e_a,
                                                params.p_d, n_read, rng)
        out[f"Q_{label}_{correct_slot}"] = _estimate(f"Q_{label}_{correct_slot}", n_correct, n_samples)
        out[f"Q_{label}_{wrong_slot}"] = _estimate(f"Q_{label}_{wrong_slot}", n_wrong, n_samples)
    return out


def _monitoring_port_intensities(params: SystemParams) -> dict[str, tuple[int, float, float]]:
    """Per-sequence (stream, I_M0, I_M1) port intensities of the squash model.

    A single non-empty pulse feeds both interferometer ports equally; the
    all-bright sequence interferes, sending (1 - e_a) of its light to the
    constructive port and e_a to the destructive one; the all-vacuum sequence
    carries no light at all.  The passive splitter passes 1 - t_B of each
    pulse to the monitoring line.  The active switch passes the whole pulse,
    and every sampled trial is one routed to the monitoring line.
    """
    eta = total_transmittance(params)
    share = params.mu if params.variant is Variant.ACTIVE else (1.0 - params.t_B) * params.mu
    half_pulse = share * eta / 2.0
    nu = 2.0 * share * eta
    return {
        "0z": (_STREAM_MON_0Z, half_pulse, half_pulse),
        "1z": (_STREAM_MON_1Z, half_pulse, half_pulse),
        "aa": (_STREAM_MON_AA, (1.0 - params.e_a) * nu, params.e_a * nu),
        "00": (_STREAM_MON_00, 0.0, 0.0),
    }


def estimate_monitoring_gains(params: SystemParams, n_samples: int,
                              seed: int) -> dict[str, OracleEstimate]:
    """Sampled monitoring-line gains for the logic and decoy sequences."""
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    out: dict[str, OracleEstimate] = {}
    for label, (stream, i_m0, i_m1) in _monitoring_port_intensities(params).items():
        rng = _substream(seed, stream)
        n_m0, n_m1 = _squashed_sequence(i_m0, i_m1, params.p_d, n_samples, rng)
        out[f"Q_{label}_M0"] = _estimate(f"Q_{label}_M0", n_m0, n_samples)
        out[f"Q_{label}_M1"] = _estimate(f"Q_{label}_M1", n_m1, n_samples)
    return out


def model_monitoring_gains(params: SystemParams) -> dict[str, float]:
    """Closed form of the squash model the oracle samples on the monitoring line."""
    out: dict[str, float] = {}
    for label, (_, i_m0, i_m1) in _monitoring_port_intensities(params).items():
        q_m0, q_m1 = two_detector_squash(i_m0, i_m1, params.p_d)
        out[f"Q_{label}_M0"] = float(q_m0)
        out[f"Q_{label}_M1"] = float(q_m1)
    return out


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainCheck:
    """One oracle-vs-model comparison with its 4-sigma verdict."""

    name: str
    estimate: float
    expected: float
    n_samples: int
    z_score: float
    passed: bool


@dataclass(frozen=True)
class RatioEntry:
    """Oracle estimate next to the literal closed-form gain (informational)."""

    name: str
    oracle: float
    closed_form: float
    ratio: float


@dataclass(frozen=True)
class CaseReport:
    label: str
    params: SystemParams
    checks: tuple[GainCheck, ...]
    ratios: tuple[RatioEntry, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class VerificationReport:
    n_samples: int
    seed: int
    cases: tuple[CaseReport, ...]

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    def failures(self) -> list[tuple[str, GainCheck]]:
        return [(case.label, c) for case in self.cases for c in case.checks if not c.passed]


def _poisson_quantile(q: float, mean: float) -> int:
    """Smallest k with P(X <= k) >= q for X ~ Poisson(mean), mean > 0.

    Sums the pmf from 12 standard deviations (plus 12) below the mean, where
    the skipped lower tail is far below the float resolution of q, so the
    loop runs O(sqrt(mean)) terms.  Below k = 30 the log pmf is
    k log(mean) - mean - lgamma(k + 1); from k = 30 on it takes the
    saddle-point form with the Stirling remainder from its series, because
    the plain form cancels catastrophically at large means.
    """
    k = max(0, math.floor(mean - 12.0 * math.sqrt(mean) - 12.0))
    cdf = 0.0
    while True:
        if k < 30:
            log_pmf = k * math.log(mean) - mean - math.lgamma(k + 1)
        else:
            stirlerr = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * k * k)) / (k * k)) / k
            log_pmf = (-0.5 * math.log(2.0 * math.pi * k) - stirlerr
                       - (k * math.log1p((k - mean) / mean) - (k - mean)))
        cdf += math.exp(log_pmf)
        if cdf >= q:
            return k
        k += 1


def _four_sigma_check(name: str, count: int, n: int, expected: float) -> GainCheck:
    """Two-sided 4-sigma acceptance of a binomial count against a known rate.

    Uses the normal z statistic when the expected count is large and the
    exact Poisson quantiles at the same tail mass otherwise, so rare-gain
    cells with fractional expected counts are judged correctly.
    """
    estimate = count / n
    if expected <= 0.0:
        return GainCheck(name, estimate, expected, n, z_score=float(count), passed=count == 0)
    mean = n * expected
    z = (count - mean) / np.sqrt(mean * (1.0 - expected))
    if mean * (1.0 - expected) >= 25.0:
        ok = abs(z) <= 4.0
    else:
        lo = _poisson_quantile(_TAIL_4SIGMA, mean)
        hi = _poisson_quantile(1.0 - _TAIL_4SIGMA, mean)
        ok = lo <= count <= hi
    return GainCheck(name, estimate, expected, n, z_score=float(z), passed=bool(ok))


DataModel = Callable[[SystemParams], tuple[float, float, float, float]]
MonitoringModel = Callable[[SystemParams], Mapping[str, float]]


def default_verification_cases() -> list[tuple[str, SystemParams]]:
    """Built-in parameter grid covering both variants and dark-count regimes."""
    cases = [
        ("bright-darkfree", SystemParams(L_km=10.0, p_d=0.0, eta_d=1.0, e_a=0.0,
                                         f_ec=1.1, mu=1.0, t_B=0.99)),
        ("reference-point", SystemParams(L_km=50.0, p_d=1e-8, eta_d=0.8, e_a=0.02,
                                         f_ec=1.1, mu=0.2, t_B=0.8)),
        ("low-dark-passive", SystemParams(L_km=25.0, p_d=1e-7, eta_d=0.8, e_a=0.0,
                                          f_ec=1.1, mu=0.1, t_B=0.5)),
        ("high-dark-passive", SystemParams(L_km=0.0, p_d=1e-3, eta_d=1.0, e_a=0.05,
                                           f_ec=1.1, mu=0.5, t_B=0.3)),
        ("active-switch", SystemParams(L_km=50.0, p_d=1e-6, eta_d=0.99, e_a=0.01,
                                       f_ec=1.1, mu=0.05, t_B=0.6, variant="active")),
    ]
    return cases


def run_verification(n_samples: int, seed: int,
                     cases: Sequence[tuple[str, SystemParams]] | None = None,
                     data_model: DataModel | None = None,
                     monitoring_model: MonitoringModel | None = None) -> VerificationReport:
    """Oracle comparison over a parameter grid.

    Gated checks (4 sigma): sampled data-line gains against the analytic
    data-line model, and sampled monitoring gains against the squash-model
    closed form.  The ratio of oracle estimates to the literal closed-form
    monitoring gains, the fields of :func:`full_gain_set` of the same name, is
    attached per case, unguarded.

    The model callables exist so a harness self-test can inject a tampered
    analytic formula and confirm the gate trips.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    if cases is None:
        cases = default_verification_cases()
    data_model = data_model or data_line_gains
    monitoring_model = monitoring_model or model_monitoring_gains

    reports: list[CaseReport] = []
    for label, params in cases:
        checks: list[GainCheck] = []

        data_est = estimate_data_gains(params, n_samples, seed)
        expected_data = dict(zip(("Q_0z_T0", "Q_0z_T1", "Q_1z_T0", "Q_1z_T1"),
                                 data_model(params)))
        for name, est in data_est.items():
            count = round(est.estimate * n_samples)
            checks.append(_four_sigma_check(name, count, n_samples, expected_data[name]))

        mon_est = estimate_monitoring_gains(params, n_samples, seed)
        expected_mon = monitoring_model(params)
        for name, est in mon_est.items():
            count = round(est.estimate * n_samples)
            checks.append(_four_sigma_check(name, count, n_samples, expected_mon[name]))

        closed = full_gain_set(params)
        ratios = []
        for name, est in mon_est.items():
            reference = getattr(closed, name)
            ratio = est.estimate / reference if reference > 0.0 else float("nan")
            ratios.append(RatioEntry(name, est.estimate, reference, ratio))

        reports.append(CaseReport(label, params, tuple(checks), tuple(ratios)))
    return VerificationReport(n_samples=n_samples, seed=seed, cases=tuple(reports))
