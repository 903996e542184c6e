"""Key-rate maximization over (mu, t_B) and distance scans.

Grid, then Newton: each distance's objective is evaluated on a coarse log-spaced
mu grid times a linear t_B grid, as many distances per call as fit ``_CELLS``
cells; then a safeguarded projected Newton step converges the incumbents, in
lockstep.  A distance with no positive grid cell first climbs a smooth margin of
its rate (``security._margin``), positive exactly where the rate is: positivity
is decided by the maximum, not by the grid.  The active rate is t_B times a
t_B-free bracket, so an active scan is the scan pinned at t_B = tb_max.  The
grid, the Newton calls, the rows and ``evaluate_point`` all run the one rate
chain, ``security._rate_chain``: this module only searches.  A row is a
converged optimum, independent of the other distances of its scan.  Grid ties
resolve to the smallest mu, then t_B, and a NaN cell or candidate never wins.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import NoReturn

import numpy as np

from .gains import full_gain_set
from .params import ParameterError, SystemParams, Variant, channel_transmittance, total_transmittance
from .security import (
    RatePoint,
    _Chain,
    _RATES,
    _accepted,
    _margin,
    _rate_chain,
    bit_error_x,  # noqa: F401  unused; perfbench/tracing.py wraps it at this binding
    bit_error_z,
    gain_bounds,
    key_rate_cow,  # noqa: F401  likewise
    key_rate_nonclassical,  # noqa: F401  likewise
    phase_error_upper,
    plob_bound,
)

__all__ = ["Protocol", "ScanConfig", "evaluate_point", "optimize_point", "scan"]

FLAG_NO_POSITIVE_RATE = "no_positive_rate"


class Protocol(Enum):
    """Which rate the optimizer maximizes."""

    COW = "cow"
    NONCLASSICAL = "nonclassical"


@dataclass(frozen=True)
class ScanConfig:
    """Distance list, search grids, and refinement settings for a scan.

    ``mu_fixed`` / ``tb_fixed`` pin a coordinate instead of optimizing it.
    ``refine_iters`` caps the Newton steps (0 keeps the grid incumbents).
    """

    L_values: tuple[float, ...]
    mu_min: float = 1e-4
    mu_max: float = 1.0
    n_mu: int = 15
    tb_min: float = 0.01
    tb_max: float = 0.99
    n_tb: int = 13
    refine_iters: int = 20
    protocol: Protocol = Protocol.COW
    mu_fixed: float | None = None
    tb_fixed: float | None = None

    def __post_init__(self) -> None:
        try:  # any sequence, e.g. a numpy array; a tuple keeps the frozen config hashable
            L_values = tuple(map(float, self.L_values))
        except (TypeError, ValueError):
            raise ParameterError(
                f"L_values must be a sequence of numbers, got {self.L_values!r}") from None
        object.__setattr__(self, "L_values", L_values)
        for name in ("n_mu", "n_tb", "refine_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.protocol, str):
            object.__setattr__(self, "protocol", Protocol(self.protocol.lower()))
        if len(self.L_values) == 0:
            raise ParameterError("L_values must be nonempty")
        if not all(map(math.isfinite, self.L_values)):
            raise ParameterError(f"distances must be finite, got {self.L_values!r}")
        if any(L < 0 for L in self.L_values):
            raise ParameterError("distances must be >= 0")
        if not (0.0 < self.mu_min < self.mu_max):
            raise ParameterError("mu range must satisfy 0 < mu_min < mu_max")
        if not math.isfinite(self.mu_max):
            raise ParameterError(f"mu_max must be finite, got {self.mu_max!r}")
        if not (0.0 < self.tb_min < self.tb_max < 1.0):
            raise ParameterError("t_B range must satisfy 0 < tb_min < tb_max < 1")
        if self.n_mu < 2 or self.n_tb < 2:
            raise ParameterError("grid sizes must be >= 2")
        if self.refine_iters < 0:
            raise ParameterError("refine_iters must be >= 0")
        if self.mu_fixed is not None and not math.isfinite(self.mu_fixed):
            raise ParameterError(f"mu_fixed must be finite, got {self.mu_fixed!r}")
        if self.mu_fixed is not None and not self.mu_fixed > 0:
            raise ParameterError("mu_fixed must be > 0")
        if self.tb_fixed is not None and not (0.0 < self.tb_fixed < 1.0):
            raise ParameterError("tb_fixed must be in (0, 1)")

    def mu_grid(self) -> np.ndarray:
        if self.mu_fixed is not None:
            return np.array([self.mu_fixed])
        return np.geomspace(self.mu_min, self.mu_max, self.n_mu)

    def tb_grid(self) -> np.ndarray:
        if self.tb_fixed is not None:
            return np.array([self.tb_fixed])
        return np.linspace(self.tb_min, self.tb_max, self.n_tb)


def _raise_rejection(params: SystemParams) -> NoReturn:
    """Raise the error of the first public step that rejects params.

    The steps run in their order: full_gain_set, bit_error_z, gain_bounds,
    then phase_error_upper.  They reject the points that ``_accepted``
    rejects.
    """
    gains = full_gain_set(params)
    bit_error_z(gains)
    bounds = gain_bounds(gains.Q_aa_M0, gains.Q_aa_M1, gains.Q_00_M0, gains.Q_00_M1, params.mu)
    phase_error_upper(gains, bounds, params.mu)
    raise AssertionError(f"the chain rejects {params!r}, which every public step accepts")


def _rate_point(L_km, eta_ch, eta_tot, mu, t_b, q_z, e_z, e_p_u, e_x, r_cow, r_tilde,
                protocol: Protocol) -> RatePoint:
    objective = r_cow if protocol is Protocol.COW else r_tilde
    return RatePoint(
        L_km=L_km, eta_ch=eta_ch, eta_tot=eta_tot, mu_opt=mu, tB_opt=t_b, Q_z=q_z, E_b=e_z,
        E_p_u=e_p_u, E_x=e_x, R=r_cow, R_tilde=r_tilde,
        R_plob=plob_bound(eta_ch) if eta_ch < 1.0 else math.inf,
        flag="" if objective > 0.0 else FLAG_NO_POSITIVE_RATE,
    )


def _point_record(params: SystemParams,
                  protocol: Protocol = Protocol.COW) -> tuple[RatePoint, _Chain]:
    """(RatePoint, the chain's record) of one scalar chain pass at params, both branches."""
    eta = total_transmittance(params)
    chain = _rate_chain(params, eta, params.mu, params.t_B)
    # On Python floats the kernels return numpy scalars, whose repr is
    # np.float64(...); the record holds floats (``unmixed`` is its last field).
    chain = _Chain(*map(float, chain[:-1]), unmixed=[float(q) for q in chain.unmixed])
    if not _accepted(chain):
        _raise_rejection(params)
    point = _rate_point(params.L_km, channel_transmittance(params), eta, params.mu, params.t_B,
                        *(getattr(chain, name) for name in _RATES), protocol)
    return point, chain


def evaluate_point(params: SystemParams, protocol: Protocol = Protocol.COW) -> RatePoint:
    """Full pipeline at one fixed (mu, t_B): gains, error rates, and all rates.

    The rate chain (``security._rate_chain``) on the point's floats.  A point that
    fails a check raises the error of the first public step that rejects it.
    """
    return _point_record(params, protocol)[0]


def _rows(base: SystemParams, sites: list[SystemParams], eta: np.ndarray, mu: np.ndarray,
          t_b: np.ndarray, protocol: Protocol) -> list[RatePoint]:
    """evaluate_point of every site at its (mu, t_B), from one array pass of the chain.

    Each value is the scalar chain's, bit for bit, and the first row that
    fails a check raises evaluate_point's error.
    """
    chain = _rate_chain(base, eta, mu, t_b)
    # row: eta_tot, mu, t_B, then the chain's Q_z, E_b, E_p_u, E_x, R, R_tilde
    columns = (eta, mu, t_b, *(getattr(chain, name) for name in _RATES))
    points = []
    for site, ok, *row in zip(sites, _accepted(chain).tolist(), *(v.tolist() for v in columns)):
        if not ok:
            _raise_rejection(replace(site, mu=row[1], t_B=row[2]))
        points.append(_rate_point(site.L_km, channel_transmittance(site), *row, protocol))
    return points


# The Newton step (see _newton): the complex step; the spacing of the central
# difference of complex-step gradients that gives the Hessian; the predicted
# rise, relative to the objective, of a step not worth taking (it is then below
# about 1e-10 in log mu and t_B) and of one that the objective's rounding may hide.
_STEP, _DELTA, _RISE_TOL, _NEAR = 1e-30, 1e-6, 1e-22, 1e-12

# The most cells one chain call of the search holds: a grid call grids as many
# distances as fit (at least one), and a Newton call as many distances' complex
# points (two cells each) as fit.
_CELLS = 2 ** 13


def _derivatives(base: SystemParams, eta, x, dims, protocol: Protocol, climb):
    """(objective, gradient, Hessian) in (log mu, t_B) at each row (mu, t_B) of x.

    One chain call.  The objective is the rate or, for a row of ``climb``, its
    margin (``security._margin``) where that is not positive and Q_z times it, the
    rate before its floor at 0, where it is: positive exactly where the rate is,
    and smooth across the floor, which next to the reach may lie within _DELTA.
    The gradient is the complex step Im f(x + ih) / h, exact to working precision
    where the chain's clamps are inactive.  Coordinates outside ``dims`` get zeros.
    """
    mu, t_b = x.T
    t_mid = np.clip(t_b, 2.0 * _DELTA, 1.0 - 2.0 * _DELTA)  # t_B +- delta stays in (0, 1)
    # (complex-step coordinate i, offset coordinate j, offset sign): g_i at x,
    # then at x +- delta e_j for each pair i <= j
    points = [(i, None, 0.0) for i in dims] + [
        (i, j, sign) for k, i in enumerate(dims) for j in dims[k:] for sign in (1.0, -1.0)]
    in_tb = np.array([[i] for i, _, _ in points])
    mus = np.array([mu * math.exp(s * _DELTA) if j == 0 else mu for _, j, s in points])
    tbs = np.array([t_mid + s * _DELTA if j == 1 else t_b for _, j, s in points])
    cow = protocol is Protocol.COW
    chain = _rate_chain(base, eta, mus * (1.0 + 1j * _STEP * (1 - in_tb)),
                        tbs + 1j * _STEP * in_tb, cow=cow, nonclassical=not cow)
    values = chain.R if cow else chain.R_tilde
    if climb.any():
        margin = _margin(chain, base.f_ec, cow)
        values = np.where(climb, np.where(margin[0].real > 0.0, chain.Q_z * margin, margin), values)
    slope = values.imag / _STEP
    grad, hess = np.zeros((len(x), 2)), np.zeros((len(x), 2, 2))
    grad[:, dims] = slope[:len(dims)].T
    for p in range(len(dims), len(points), 2):
        i, j, _ = points[p]
        hess[:, i, j] = hess[:, j, i] = (slope[p] - slope[p + 1]) / (2.0 * _DELTA)
    return values[0].real, grad, hess


def _ascent(x, grad, hess, movable, lo, hi):
    """(step, gradient norm) of the free coordinates.

    Newton where the Hessian is negative definite, else the gradient over its
    diagonal's magnitude.  Not free: a fixed coordinate, or one on a bound of
    the box whose gradient points out of it.
    """
    free = movable & ~(((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0)))
    g = np.where(free, grad, 0.0)
    h = np.where(free[:, :, None] & free[:, None, :], hess, 0.0)
    h[:, [0, 1], [0, 1]] -= ~free  # a coordinate that is not free solves -s = 0
    a, b, c = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
    det = a * c - b * b
    newton = (a < 0.0) & (det > 0.0)  # negative definite
    step = np.stack([b * g[:, 1] - c * g[:, 0], b * g[:, 0] - a * g[:, 1]], axis=1)
    scale = np.abs(np.stack([a, c], axis=1))
    return np.where(newton[:, None], step / np.where(newton, det, 1.0)[:, None],
                    g / np.where(scale > 0.0, scale, np.inf)), np.hypot(*g.T)


def _newton(base: SystemParams, eta, x, climb, dims: list[int],
            config: ScanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Converge each row (mu, t_B) of x in lockstep: (optima, where the objective is positive).

    Projected Newton in (log mu, t_B) over ``dims``, in the search box, one chain call per
    iteration, on the objective f of :func:`_derivatives`: the rate, or for a row of
    ``climb`` (no positive grid cell) its margin until that turns positive.  A candidate
    is accepted where f rises or, if its step's gradient-predicted rise is below _NEAR f
    (f's rounding may hide it), where the gradient norm falls; never where it is NaN.  A
    rejected step is halved.  A distance stops once its next step's predicted rise is at
    most _RISE_TOL f, or below -f (a negative margin that the step does not lift to 0,
    which also covers the tolerances where f < 0), once a step below _NEAR f is rejected,
    or after ``config.refine_iters`` steps.
    """
    movable = np.isin([0, 1], dims)
    lo = np.where(movable, [config.mu_min, config.tb_min], -np.inf)
    hi = np.where(movable, [config.mu_max, config.tb_max], np.inf)
    n = len(x)
    best, todo, x, y = x.copy(), np.arange(n), x.copy(), x.copy()  # accepted x, candidate y
    found = np.full(n, -np.inf)  # the objective at best
    r_x, norm_x, rise = np.full(n, -np.inf), np.full(n, np.inf), np.full(n, np.inf)
    grad, step, alpha = np.zeros((n, 2)), np.zeros((n, 2)), np.ones(n)
    for _ in range(config.refine_iters + 1):
        r, g, h = _derivatives(base, eta[todo], y, dims, config.protocol, climb)
        ascent, norm = _ascent(y, g, h, movable, lo, hi)
        near = rise <= _NEAR * r_x
        ok = np.isfinite(r) & np.isfinite(g).all(axis=1) & np.isfinite(h).all(axis=(1, 2))
        ok &= (r > r_x) | (near & (norm < norm_x))
        x[ok], r_x[ok], norm_x[ok], grad[ok], step[ok] = y[ok], r[ok], norm[ok], g[ok], ascent[ok]
        alpha = np.where(ok, 1.0, alpha / 2.0)
        best[todo], found[todo] = x, r_x
        y = np.clip(np.stack([x[:, 0] * np.exp(alpha * step[:, 0]),  # the step is in log mu
                              x[:, 1] + alpha * step[:, 1]], axis=1), lo, hi)
        rise = grad[:, 0] * np.log(y[:, 0] / x[:, 0]) + grad[:, 1] * (y[:, 1] - x[:, 1])
        go = (ok | ~near) & (rise > _RISE_TOL * r_x) & (r_x + rise >= 0.0)  # False for NaN
        if not go.any():
            break
        todo, x, y, r_x, norm_x, rise, grad, step, alpha, climb = (
            v[go] for v in (todo, x, y, r_x, norm_x, rise, grad, step, alpha, climb))
    return best, found > 0.0


def optimize_point(base_params: SystemParams, config: ScanConfig) -> RatePoint:
    """Maximize the configured key rate over (mu, t_B) at base_params' distance.

    A one-distance :func:`scan`; ``config.L_values`` is not used.
    """
    return scan(base_params, replace(config, L_values=(base_params.L_km,)))[0]


def scan(base_params: SystemParams, config: ScanConfig) -> list[RatePoint]:
    """Maximize the configured key rate over (mu, t_B) at every distance, in input order.

    A grid call grids as many distances as fit ``_CELLS`` cells (at least one).
    From each distance's grid incumbent, or, where no grid cell is positive, from
    its best margin cell, :func:`_newton` converges the optimum in at most
    ``refine_iters`` steps, in blocks of at most ``_CELLS`` cells; a distance whose
    margin stays at most 0 keeps its grid incumbent, and ``refine_iters=0`` keeps
    every incumbent.  The rows, from one array pass (:func:`_rows`), equal
    :func:`evaluate_point` at each optimum, errors included.  Zero-rate rows are
    flagged, never fatal.
    """
    if base_params.variant is Variant.ACTIVE and config.tb_fixed is None:
        # The active rate is t_B times a t_B-free bracket, so it rises with t_B
        # wherever it is positive: its optimum is on the box edge t_B = tb_max.
        config = replace(config, tb_fixed=config.tb_max)
    protocol = config.protocol
    cow = protocol is Protocol.COW
    sites = [replace(base_params, L_km=float(L)) for L in config.L_values]
    eta = np.array([total_transmittance(site) for site in sites])
    cells = np.stack(np.meshgrid(config.mu_grid(), config.tb_grid(), indexing="ij"),
                     axis=-1).reshape(-1, 2)

    n = len(sites)
    best, start, best_rate = np.empty((n, 2)), np.empty((n, 2)), np.empty(n)
    per_call = max(1, _CELLS // len(cells))
    for first in range(0, n, per_call):
        block = slice(first, first + per_call)
        chain = _rate_chain(base_params, eta[block, None], *cells.T, cow=cow, nonclassical=not cow)
        # A NaN cell (overflow at huge mu) never wins, and in C order ties resolve
        # to the smallest mu, then the smallest t_B.
        rate = np.fmax(chain.R if cow else chain.R_tilde, -np.inf)
        best[block], best_rate[block] = cells[np.argmax(rate, axis=1)], rate.max(axis=1)
        start[block] = best[block]
        zero = np.flatnonzero(best_rate[block] <= 0.0)
        if zero.size:
            margin = np.fmax(_margin(chain, base_params.f_ec, cow)[zero], -np.inf)
            start[block][zero] = cells[np.argmax(margin, axis=1)]

    dims = [i for i, free in enumerate((config.mu_fixed is None, config.tb_fixed is None)) if free]
    if dims and config.refine_iters:
        # A Newton call holds d (d + 2) complex points per distance, for d free
        # coordinates.
        per_block = max(1, _CELLS // (2 * len(dims) * (len(dims) + 2)))
        for first in range(0, n, per_block):
            block = slice(first, first + per_block)
            found, positive = _newton(base_params, eta[block], start[block],
                                      best_rate[block] <= 0.0, dims, config)
            best[block] = np.where(positive[:, None], found, best[block])
    return _rows(base_params, sites, eta, *best.T, protocol)
