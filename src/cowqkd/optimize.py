"""Key-rate maximization over (mu, t_B) and distance scans.

Grid, then Newton: each distance's objective is evaluated on a log-spaced mu
grid times a linear t_B grid, 40 x 4 by default (the log-mu spacing of the seed
sets how many Newton steps follow, the t_B spacing barely does), as many
distances per call as fit ``_CELLS`` cells; then a safeguarded projected Newton
step converges the incumbents, in lockstep, and takes its last full step, which
is predicted to land within the objective's rounding of the optimum, without
evaluating it.  A distance with no positive grid cell first climbs a smooth margin of
its rate (``security._margin``), positive exactly where the rate is: positivity
is decided by the maximum, not by the grid.  The active rate is t_B times a
t_B-free bracket, so an active scan is the scan pinned at t_B = tb_max.  The
grid, the Newton calls, the rows and ``evaluate_point`` all run the one rate
chain, ``security._rate_chain``: this module only searches.  A row is a
converged optimum, independent of the other distances of its scan.  Grid ties
resolve to the smallest mu, then t_B, and a NaN cell or evaluated candidate
never wins; the unevaluated last step is only predicted to rise.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import NoReturn

import numpy as np

from .gains import full_gain_set
from .params import (ParameterError, SystemParams, Variant, _fiber_transmittance,
                     channel_transmittance, total_transmittance)
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
    n_mu: int = 40
    tb_min: float = 0.01
    tb_max: float = 0.99
    n_tb: int = 4
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


def _rows(base: SystemParams, L_km, eta_ch, eta: np.ndarray, mu: np.ndarray,
          t_b: np.ndarray, protocol: Protocol) -> list[RatePoint]:
    """evaluate_point at each distance's (mu, t_B), from one array pass of the chain.

    Each value is the scalar chain's, bit for bit, and the first row that
    fails a check raises evaluate_point's error.
    """
    chain = _rate_chain(base, eta, mu, t_b)
    # row: eta_tot, mu, t_B, then the chain's Q_z, E_b, E_p_u, E_x, R, R_tilde
    columns = (eta, mu, t_b, *(getattr(chain, name) for name in _RATES))
    points = []
    for L, e_ch, ok, *row in zip(L_km, eta_ch, _accepted(chain).tolist(),
                                 *(v.tolist() for v in columns)):
        if not ok:
            _raise_rejection(replace(base, L_km=L, mu=row[1], t_B=row[2]))
        points.append(_rate_point(L, e_ch, *row, protocol))
    return points


# The Newton step (see _newton): the complex step; the spacing of the central
# difference of complex-step gradients that gives the Hessian; the predicted
# rise, relative to the objective, of a step not worth taking (it is then below
# about 1e-10 in log mu and t_B) and of one that the objective's rounding may hide.
_STEP, _DELTA, _RISE_TOL, _NEAR = 1e-30, 1e-6, 1e-22, 1e-12

# The most cells one chain call of the search holds: a grid call grids as many
# distances as fit, or one distance's cells in runs of at most _CELLS, and a
# Newton call as many distances' complex points (two cells each) as fit.
_CELLS = 2 ** 13


def _first_max(values, top, index, rows, offset):
    """Carry the first maximum of each row of values, a run of cells from ``offset``.

    ``top`` and ``index`` hold, at ``rows``, the maximum of the earlier runs and
    its cell; a later run wins only where it is larger, and a NaN never wins.
    """
    values = np.fmax(values, -np.inf)
    k = np.argmax(values, axis=1)
    value = values[np.arange(len(k)), k]
    win = (value > top[rows]) | (offset == 0)
    top[rows[win]], index[rows[win]] = value[win], offset + k[win]


def _grid(base: SystemParams, eta, cells, cow: bool):
    """(incumbent, start, the incumbent's objective) of each distance of a block.

    ``cells`` holds the grid's (mu, t_B) columns, mu-major, gridded in runs of at
    most ``_CELLS`` cells per distance; ties resolve to the first cell, so to the
    smallest mu, then t_B.  A distance with no positive cell starts from its best
    margin cell (``security._margin``), computed on those distances only.
    """
    rows = np.arange(len(eta))
    top, margin_top = np.full(len(eta), -np.inf), np.full(len(eta), -np.inf)
    incumbent, start = np.zeros(len(eta), dtype=np.intp), np.zeros(len(eta), dtype=np.intp)
    for first in range(0, cells.shape[1], _CELLS):
        mu, t_b = cells[:, first:first + _CELLS]
        chain = _rate_chain(base, eta[:, None], mu, t_b, cow=cow, nonclassical=not cow)
        _first_max(chain.R if cow else chain.R_tilde, top, incumbent, rows, first)
        # top only rises, so a distance at most 0 here was at most 0 in every earlier run
        zero = rows[top <= 0.0]
        if zero.size:
            _first_max(_margin(chain, base.f_ec, cow, zero), margin_top, start, zero, first)
    return cells[:, incumbent], cells[:, np.where(top > 0.0, incumbent, start)], top


@functools.lru_cache(maxsize=None)
def _stencil(dims: tuple[int, ...]):
    """The points of :func:`_derivatives`' chain call over the free coordinates dims.

    (mu factor, where t_B is offset, the t_B offset, complex mu factor, complex t_B
    step, the (i, j) of each Hessian entry), each point a row: g_i at x, then at
    x +- delta e_j for each pair i <= j, with the complex step along coordinate i.
    """
    points = [(i, None, 0.0) for i in dims] + [
        (i, j, sign) for k, i in enumerate(dims) for j in dims[k:] for sign in (1.0, -1.0)]
    in_tb = np.array([[i] for i, _, _ in points])
    return (np.array([[math.exp(s * _DELTA) if j == 0 else 1.0] for _, j, s in points]),
            np.array([[j == 1] for _, j, _ in points]),
            np.array([[s * _DELTA] for _, _, s in points]),
            1.0 + 1j * _STEP * (1 - in_tb), 1j * _STEP * in_tb,
            tuple(np.array([(i, j) for i, j, _ in points[len(dims)::2]], dtype=np.intp).T))


def _derivatives(base: SystemParams, eta, x, dims, protocol: Protocol, climb):
    """(objective, gradient, Hessian) in (log mu, t_B) at each column (mu, t_B) of x.

    One chain call.  The objective is the rate or, for a column of ``climb``, its
    margin (``security._margin``) where that is not positive and Q_z times it, the
    rate before its floor at 0, where it is: positive exactly where the rate is,
    and smooth across the floor, which next to the reach may lie within _DELTA.
    The gradient is the complex step Im f(x + ih) / h, exact to working precision
    where the chain's clamps are inactive.  Coordinates outside ``dims`` get zeros.
    The gradient is (2, n) and the Hessian (2, 2, n).
    """
    mu_scale, offset, shift, mu_step, tb_step, (i, j) = _stencil(tuple(dims))
    mu, t_b = x
    t_mid = np.clip(t_b, 2.0 * _DELTA, 1.0 - 2.0 * _DELTA)  # t_B +- delta stays in (0, 1)
    cow = protocol is Protocol.COW
    chain = _rate_chain(base, eta, mu * mu_scale * mu_step,
                        np.where(offset, t_mid + shift, t_b) + tb_step, cow=cow, nonclassical=not cow)
    values = chain.R if cow else chain.R_tilde
    if climb.any():
        margin = _margin(chain, base.f_ec, cow)
        values = np.where(climb, np.where(margin[0].real > 0.0, chain.Q_z * margin, margin), values)
    slope = values.imag / _STEP
    grad, hess = np.zeros((2, len(eta))), np.zeros((2, 2, len(eta)))
    grad[list(dims)] = slope[:len(dims)]
    hess[i, j] = hess[j, i] = (slope[len(dims)::2] - slope[len(dims) + 1::2]) / (2.0 * _DELTA)
    return values[0].real, grad, hess


def _ascent(x, grad, hess, movable, lo, hi):
    """(step, gradient norm, whether the step is Newton's) of the free coordinates.

    Newton where the Hessian is negative definite, else the gradient over its
    diagonal's magnitude.  Not free: a fixed coordinate, or one on a bound of
    the box whose gradient points out of it.  Coordinate-major, as _derivatives.
    """
    free = movable & ~(((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0)))
    g = np.where(free, grad, 0.0)
    h = np.where(free[:, None] & free[None, :], hess, 0.0)
    a, b, c = h[0, 0] - ~free[0], h[0, 1], h[1, 1] - ~free[1]  # not free: solves -s = 0
    det = a * c - b * b
    newton = (a < 0.0) & (det > 0.0)  # negative definite
    step = np.stack([b * g[1] - c * g[0], b * g[0] - a * g[1]])
    scale = np.abs(np.stack([a, c]))
    return (np.where(newton, step / np.where(newton, det, 1.0), g / np.where(scale > 0.0, scale, np.inf)),
            np.hypot(g[0], g[1]), newton)


def _newton(base: SystemParams, eta, x, climb, dims: list[int],
            config: ScanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Converge each column (mu, t_B) of x in lockstep: (optima, where the objective is positive).

    Projected Newton in (log mu, t_B) over ``dims``, in the search box, one chain call per
    iteration, on the objective f of :func:`_derivatives`: the rate, or for a column of
    ``climb`` (no positive grid cell) its margin until that turns positive.  A candidate
    is accepted where f rises or, if its step's gradient-predicted rise is below _NEAR f
    (f's rounding may hide it), where the gradient norm falls; never where it is NaN.  A
    rejected step is halved.  A distance stops once its next step's predicted rise is at
    most _RISE_TOL f, or below -f (a negative margin that the step does not lift to 0,
    which also covers the tolerances where f < 0), once a step below _NEAR f is rejected,
    or after ``config.refine_iters`` steps.  Where f > 0 and the accepted step's Hessian
    is negative definite, a full Newton step predicted to rise by at most _NEAR f lands
    within f's rounding of the optimum: the distance takes it without evaluating it,
    and stops, unless that step would exceed ``refine_iters``.  Its f is never
    computed, so the distance's positivity is the last evaluated point's, and the
    step is trusted, not checked, to keep f and the rate's checks.
    """
    dims = tuple(dims)
    movable = np.isin([0, 1], dims)[:, None]
    lo = np.where(movable, [[config.mu_min], [config.tb_min]], -np.inf)
    hi = np.where(movable, [[config.mu_max], [config.tb_max]], np.inf)
    n = x.shape[1]
    best, found, todo = x.copy(), np.full(n, -np.inf), np.arange(n)
    # A column per distance still searching: the accepted point x and the candidate y,
    # the gradient and the step at x, f(x), the gradient norm at x, the candidate's
    # predicted rise, the step's length and the distance's eta.
    state = np.empty((13, n))
    state[0:2], state[2:4], state[4:8], state[12] = x, x, 0.0, eta
    state[8:12] = [[-np.inf], [np.inf], [np.inf], [1.0]]
    for k in range(config.refine_iters + 1):
        x, y, grad, step = state[0:2], state[2:4], state[4:6], state[6:8]
        r_x, norm_x, rise, alpha, eta = state[8:13]
        r, g, h = _derivatives(base, eta, y, dims, config.protocol, climb)
        ascent, norm, newton = _ascent(y, g, h, movable, lo, hi)
        near = rise <= _NEAR * r_x
        ok = np.isfinite(r) & np.isfinite(g).all(axis=0) & np.isfinite(h).all(axis=(0, 1))
        ok &= (r > r_x) | (near & (norm < norm_x))
        for accepted, candidate in ((x, y), (r_x, r), (norm_x, norm), (grad, g), (step, ascent)):
            np.copyto(accepted, candidate, where=ok)
        alpha[:] = np.where(ok, 1.0, alpha / 2.0)
        y[0] = x[0] * np.exp(alpha * step[0])  # the step is in log mu
        y[1] = x[1] + alpha * step[1]
        np.clip(y, lo, hi, out=y)
        rise[:] = grad[0] * np.log(y[0] / x[0]) + grad[1] * (y[1] - x[1])
        go = (ok | ~near) & (rise > _RISE_TOL * r_x) & (r_x + rise >= 0.0)  # False for NaN
        last = k == config.refine_iters
        unconfirmed = go & ok & newton & (rise <= _NEAR * r_x) & (r_x > 0.0) & (not last)
        np.copyto(x, y, where=unconfirmed)
        go &= ~unconfirmed & (not last)
        done = ~go
        best[:, todo[done]], found[todo[done]] = x[:, done], r_x[done]
        if not go.any():
            break
        state, todo, climb = state[:, go], todo[go], climb[go]
    return best, found > 0.0


def optimize_point(base_params: SystemParams, config: ScanConfig) -> RatePoint:
    """Maximize the configured key rate over (mu, t_B) at base_params' distance.

    A one-distance :func:`scan`; ``config.L_values`` is not used.
    """
    return scan(base_params, replace(config, L_values=(base_params.L_km,)))[0]


def scan(base_params: SystemParams, config: ScanConfig) -> list[RatePoint]:
    """Maximize the configured key rate over (mu, t_B) at every distance, in input order.

    A grid call grids as many distances as fit ``_CELLS`` cells (at least one); a
    grid of more cells runs one distance in mu-major runs of ``_CELLS`` cells.
    From each distance's grid incumbent, or, where no grid cell is positive, from
    its best margin cell, :func:`_newton` converges the optimum in at most
    ``refine_iters`` steps, in blocks of at most ``_CELLS`` cells, taking its last
    full Newton step without a confirming call; a distance whose margin stays at
    most 0 keeps its grid incumbent, and ``refine_iters=0`` keeps every incumbent.
    The default 40 mu x 4 t_B seed grid is fine in log mu and coarse in t_B,
    because the log-mu spacing of the seed sets how many Newton calls follow and
    the t_B spacing barely does.  The rows, from one array pass (:func:`_rows`),
    equal :func:`evaluate_point` at each optimum, errors included.  Zero-rate rows
    are flagged, never fatal.
    """
    if base_params.variant is Variant.ACTIVE and config.tb_fixed is None:
        # The active rate is t_B times a t_B-free bracket, so it rises with t_B
        # wherever it is positive: its optimum is on the box edge t_B = tb_max.
        config = replace(config, tb_fixed=config.tb_max)
    protocol = config.protocol
    eta_ch = [_fiber_transmittance(L, base_params.atten_db_per_km) for L in config.L_values]
    eta = np.array(eta_ch) * base_params.eta_d
    cells = np.stack(np.meshgrid(config.mu_grid(), config.tb_grid(), indexing="ij")).reshape(2, -1)

    n = len(eta)
    best, start, best_rate = np.empty((2, n)), np.empty((2, n)), np.empty(n)
    per_call = max(1, _CELLS // cells.shape[1])
    for first in range(0, n, per_call):
        block = slice(first, first + per_call)
        best[:, block], start[:, block], best_rate[block] = _grid(
            base_params, eta[block], cells, protocol is Protocol.COW)

    dims = [i for i, free in enumerate((config.mu_fixed is None, config.tb_fixed is None)) if free]
    if dims and config.refine_iters:
        # A Newton call holds d (d + 2) complex points per distance, for d free
        # coordinates.
        per_block = max(1, _CELLS // (2 * len(dims) * (len(dims) + 2)))
        for first in range(0, n, per_block):
            block = slice(first, first + per_block)
            found, positive = _newton(base_params, eta[block], start[:, block],
                                      best_rate[block] <= 0.0, dims, config)
            best[:, block] = np.where(positive, found, best[:, block])
    return _rows(base_params, config.L_values, eta_ch, eta, *best, protocol)
