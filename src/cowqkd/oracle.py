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
from typing import Callable, Sequence

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


def _sequences(params: SystemParams) -> dict[str, tuple[tuple, ...]]:
    """Every sampled sequence, per line: (substream, gain names, intensities, read).

    Names and mean photon numbers are those of its two detectors, in report
    order.  Per data-line logic sequence the correct slot sees
    lambda * (1 - e_a) and the wrong slot lambda * e_a.  On the monitoring
    line a single non-empty pulse feeds both interferometer ports equally;
    the all-bright sequence sends (1 - e_a) of its light to the constructive
    port and e_a to the destructive one; the all-vacuum sequence is dark.

    The passive splitter passes t_B of each pulse to the data line and the
    rest to the monitoring line, and every trial is read (read is None).  The
    active switch routes a trial to the data line with probability read = t_B
    and gives it the whole pulse; unrouted trials leave the data detectors
    unread.  Every sampled monitoring trial is one routed there.
    """
    active = params.variant is Variant.ACTIVE
    eta = total_transmittance(params)
    lam = params.mu * eta if active else params.t_B * params.mu * eta
    read = params.t_B if active else None
    share = params.mu if active else (1.0 - params.t_B) * params.mu
    half_pulse = share * eta / 2.0
    nu = 2.0 * share * eta
    signal = (lam * (1.0 - params.e_a), lam * params.e_a)
    return {
        "data": ((0, ("Q_0z_T0", "Q_0z_T1"), signal, read),
                 (1, ("Q_1z_T1", "Q_1z_T0"), signal, read)),
        "monitoring": ((2, ("Q_0z_M0", "Q_0z_M1"), (half_pulse, half_pulse), None),
                       (3, ("Q_1z_M0", "Q_1z_M1"), (half_pulse, half_pulse), None),
                       (4, ("Q_aa_M0", "Q_aa_M1"), ((1.0 - params.e_a) * nu, params.e_a * nu), None),
                       (5, ("Q_00_M0", "Q_00_M1"), (0.0, 0.0), None)),
    }


def _sample_line(params: SystemParams, n_samples: int, seed: int,
                 line: str) -> dict[str, OracleEstimate]:
    """Sampled gains of one line's sequences, each from its own substream.

    A sequence with a read probability draws its Binomial(n, read) read
    count first.  Every estimate is a count over all n_samples trials.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    out: dict[str, OracleEstimate] = {}
    for stream, names, (lambda_a, lambda_b), read in _sequences(params)[line]:
        rng = _substream(seed, stream)
        n_read = n_samples if read is None else int(rng.binomial(n_samples, read))
        counts = _squashed_sequence(lambda_a, lambda_b, params.p_d, n_read, rng)
        for name, count in zip(names, counts):
            p_hat = count / n_samples
            out[name] = OracleEstimate(name, p_hat, n_samples,
                                       float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples)))
    return out


def estimate_data_gains(params: SystemParams, n_samples: int,
                        seed: int) -> dict[str, OracleEstimate]:
    """Sampled data-line gains Q_0z_T0, Q_0z_T1, Q_1z_T1, Q_1z_T0."""
    return _sample_line(params, n_samples, seed, "data")


def estimate_monitoring_gains(params: SystemParams, n_samples: int,
                              seed: int) -> dict[str, OracleEstimate]:
    """Sampled monitoring-line gains for the logic and decoy sequences."""
    return _sample_line(params, n_samples, seed, "monitoring")


def model_monitoring_gains(params: SystemParams) -> dict[str, float]:
    """Closed form of the squash model the oracle samples on the monitoring line."""
    out: dict[str, float] = {}
    for _, names, (i_m0, i_m1), _ in _sequences(params)["monitoring"]:
        for name, gain in zip(names, two_detector_squash(i_m0, i_m1, params.p_d)):
            out[name] = float(gain)
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
                     data_model: DataModel | None = None) -> VerificationReport:
    """Oracle comparison over a parameter grid.

    Gated checks (4 sigma): sampled data-line gains against the analytic
    data-line model, and sampled monitoring gains against the squash-model
    closed form.  The ratio of oracle estimates to the literal closed-form
    monitoring gains, the fields of :func:`full_gain_set` of the same name, is
    attached per case, unguarded.

    The data model is a parameter so a harness self-test can inject a
    tampered analytic formula and confirm the gate trips.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    if cases is None:
        cases = default_verification_cases()
    data_model = data_model or data_line_gains

    reports: list[CaseReport] = []
    for label, params in cases:
        data_est = estimate_data_gains(params, n_samples, seed)
        mon_est = estimate_monitoring_gains(params, n_samples, seed)
        # the data model returns its gains in name order
        expected = dict(zip(sorted(data_est), data_model(params)), **model_monitoring_gains(params))
        checks = tuple(_four_sigma_check(name, round(est.estimate * n_samples), n_samples,
                                         expected[name])
                       for name, est in {**data_est, **mon_est}.items())

        closed = full_gain_set(params)
        ratios = []
        for name, est in mon_est.items():
            reference = getattr(closed, name)
            ratio = est.estimate / reference if reference > 0.0 else float("nan")
            ratios.append(RatioEntry(name, est.estimate, reference, ratio))

        reports.append(CaseReport(label, params, checks, tuple(ratios)))
    return VerificationReport(n_samples=n_samples, seed=seed, cases=tuple(reports))
