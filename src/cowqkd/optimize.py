"""Key-rate maximization over (mu, t_B) and distance scans.

Grid-then-refine: at each distance the objective is evaluated on a log-spaced
mu grid times a linear t_B grid (for the active variant, whose rate is t_B
times a t_B-free bracket, on the t_B = tb_max column of many distances at
once), then the incumbents of all distances are polished together by
coordinate-wise golden-section passes that run in lockstep.  One objective
call over a block of distances, no larger than one grid, evaluates all the
points that the next four steps could probe, and a pass is skipped when it
could not move.  The rows come from one array pass over every distance.  All
of these, and ``evaluate_point`` on one point's floats, run the one rate
chain, ``security._rate_chain``: this module only searches.  A distance's
result equals what a scalar step-by-step search at that distance alone would
give.  Everything is deterministic; ties resolve to the smallest mu, then the
smallest t_B, and a NaN grid cell never wins.
"""

from __future__ import annotations

import math
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

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps resolved per objective call (see _golden_max).
_LOOKAHEAD = 4

FLAG_NO_POSITIVE_RATE = "no_positive_rate"


class Protocol(Enum):
    """Which rate the optimizer maximizes."""

    COW = "cow"
    NONCLASSICAL = "nonclassical"


@dataclass(frozen=True)
class ScanConfig:
    """Distance list, search grids, and refinement settings for a scan.

    ``mu_fixed`` / ``tb_fixed`` pin a coordinate instead of optimizing it.
    """

    L_values: tuple[float, ...]
    mu_min: float = 1e-4
    mu_max: float = 1.0
    n_mu: int = 60
    tb_min: float = 0.01
    tb_max: float = 0.99
    n_tb: int = 49
    refine_iters: int = 3
    protocol: Protocol = Protocol.COW
    mu_fixed: float | None = None
    tb_fixed: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.L_values, list):
            object.__setattr__(self, "L_values", tuple(self.L_values))
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


def _objective_surface(base: SystemParams, eta, mu, t_b, protocol: Protocol):
    """Key rate of the requested protocol from one pass of the rate chain."""
    cow = protocol is Protocol.COW
    chain = _rate_chain(base, eta, mu, t_b, cow=cow, nonclassical=not cow)
    return chain.R if cow else chain.R_tilde


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


def _golden_max(f, lo: np.ndarray, hi: np.ndarray,
                iters: int = 48) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic lockstep golden-section maximizer, one bracket [lo[k], hi[k]] per k.

    A step's probe depends only on the comparisons before it.  So one call of
    f on a stacked ``(2**depth - 1, n)`` array evaluates every point that the
    next ``depth`` steps could probe, the nodes of their decision tree, each
    built with the scalar step's float operations.  The steps are then
    replayed with the true comparisons.  Element k thus takes exactly the
    probes, comparisons and result of a scalar search on [lo[k], hi[k]], at
    one call of f per ``_LOOKAHEAD`` steps.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(np.stack([c, d]))
    cols = np.arange(len(lo))
    for start in range(0, iters, _LOOKAHEAD):
        depth = min(_LOOKAHEAD, iters - start)
        # The first step's comparison is already known, so its probe is the root.
        left = fc >= fd  # the maximum lies in [a, d]: d becomes the upper end
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        c, d = np.where(left, x, d), np.where(left, c, x)
        # Level j of the tree is a (2**j, n) array.  The children of the node
        # at position p sit at p if its comparison holds (left), else at p + 2**j.
        a, b, c, d, probes = a[None], b[None], c[None], d[None], [x[None]]
        for _ in range(depth - 1):
            x_left = d - _INV_PHI * (d - a)
            x_right = c + _INV_PHI * (b - c)
            a, b, c, d = (np.concatenate([a, c]), np.concatenate([d, b]),
                          np.concatenate([x_left, d]), np.concatenate([c, x_right]))
            probes.append(np.concatenate([x_left, x_right]))
        f_tree = f(np.concatenate(probes))
        # Replay: step j probes the node at position pos of level j, which is
        # row 2**j - 1 + pos of f_tree.
        pos = np.zeros(len(lo), dtype=int)
        for j in range(depth):
            if j:
                left = fc >= fd
                pos = np.where(left, pos, pos + (1 << (j - 1)))
            fx = f_tree[(1 << j) - 1 + pos, cols]
            fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        a, b, c, d = a[pos, cols], b[pos, cols], c[pos, cols], d[pos, cols]
    keep_c = fc >= fd
    return np.where(keep_c, c, d), np.where(keep_c, fc, fd)


# math.exp and math.log element by element: a mu on the search path does not
# depend on numpy's vector exp and log, which may round differently.
_exp = np.vectorize(math.exp, otypes=[float])
_log = np.vectorize(math.log, otypes=[float])


def optimize_point(base_params: SystemParams, config: ScanConfig) -> RatePoint:
    """Maximize the configured key rate over (mu, t_B) at base_params' distance.

    A one-distance :func:`scan`; ``config.L_values`` is not used.
    """
    return scan(base_params, replace(config, L_values=(base_params.L_km,)))[0]


def scan(base_params: SystemParams, config: ScanConfig) -> list[RatePoint]:
    """Maximize the configured key rate over (mu, t_B) at every distance, in input order.

    Each distance gets a full-grid evaluation, of which only the incumbent and
    its neighbouring grid cells are kept.  The active rate is t_B times a
    t_B-free bracket, so without ``tb_fixed`` an active scan grids only the
    ``tb_max`` column, ``n_tb`` distances per call, keeps the full grid's
    incumbent, and runs no t_B pass.  Then the distances with a positive grid
    rate are refined together, in blocks no larger than one grid's cells:
    ``refine_iters`` rounds of coordinate-wise golden-section passes (log-space
    for mu), bracketed by those neighbours, with one objective call over the
    block per four steps (see :func:`_golden_max`).  In a block, a pass runs
    only if it has not run yet or the other coordinate has moved since, as a
    rerun could not win.  A refined value never falls below its grid
    incumbent, and a row does not depend on the other distances.  The rows,
    from one array pass (see :func:`_rows`), equal :func:`evaluate_point` at
    each optimum, errors included.

    Zero-rate points are flagged, never fatal: a scan always spans its full
    distance list.
    """
    protocol = config.protocol
    mu_grid = config.mu_grid()
    tb_grid = config.tb_grid()
    sites = [replace(base_params, L_km=float(L)) for L in config.L_values]
    eta = np.array([total_transmittance(site) for site in sites])
    active = base_params.variant is Variant.ACTIVE

    n = len(sites)
    best_rate, i_mu, i_tb = np.empty(n), np.empty(n, dtype=int), np.empty(n, dtype=int)
    columns = tb_grid[-1:] if active and config.tb_fixed is None else tb_grid
    per_call = len(tb_grid) // len(columns)  # no call grids more cells than one full grid
    for start in range(0, n, per_call):
        block = slice(start, start + per_call)
        surface = _objective_surface(base_params, eta[block, None, None], mu_grid[None, :, None],
                                     columns[None, None, :], protocol)
        # A NaN cell (overflow at huge mu) never wins; in C order, ties
        # resolve to the smallest mu, then the smallest t_B.
        surface = np.fmax(surface, -np.inf).reshape(len(surface), -1)
        flat_best = np.argmax(surface, axis=1)
        i_mu[block], i_tb[block] = np.unravel_index(flat_best, (len(mu_grid), len(columns)))
        best_rate[block] = surface[np.arange(len(surface)), flat_best]
    if len(columns) < len(tb_grid):  # the full grid's incumbent: tb_max, or tb_min at rate 0
        i_tb[:] = np.where(best_rate > 0.0, len(tb_grid) - 1, 0)
    best_mu = mu_grid[i_mu]
    best_tb = tb_grid[i_tb]

    live = np.flatnonzero(best_rate > 0.0)
    # A lookahead call probes 2**_LOOKAHEAD - 1 points per distance, so a
    # block of this many distances holds no more cells than one grid.
    per_block = max(1, config.n_mu * config.n_tb // (2 ** _LOOKAHEAD - 1))
    mu_free, tb_free = config.mu_fixed is None, config.tb_fixed is None and not active
    for start in range(0, live.size, per_block):
        block = live[start:start + per_block]
        eta_block = eta[block]
        rate, mu, t_b = best_rate[block], best_mu[block], best_tb[block]
        log_mu_lo = _log(mu_grid[np.maximum(i_mu[block] - 1, 0)])
        log_mu_hi = _log(mu_grid[np.minimum(i_mu[block] + 1, len(mu_grid) - 1)])
        tb_lo = tb_grid[np.maximum(i_tb[block] - 1, 0)]
        tb_hi = tb_grid[np.minimum(i_tb[block] + 1, len(tb_grid) - 1)]
        # A pass is due until it has run, and again once the other coordinate
        # moves: rerun on an unchanged objective and bracket, it could not win.
        mu_due, tb_due = mu_free, tb_free
        for _ in range(config.refine_iters):
            if mu_due:
                log_mu, new = _golden_max(
                    lambda x: _objective_surface(base_params, eta_block, _exp(x), t_b, protocol),
                    log_mu_lo, log_mu_hi)
                better = new > rate
                rate, mu = np.where(better, new, rate), np.where(better, _exp(log_mu), mu)
                mu_due, tb_due = False, tb_due or (tb_free and bool(better.any()))
            if tb_due:
                new_tb, new = _golden_max(
                    lambda x: _objective_surface(base_params, eta_block, mu, x, protocol),
                    tb_lo, tb_hi)
                better = new > rate
                rate, t_b = np.where(better, new, rate), np.where(better, new_tb, t_b)
                tb_due, mu_due = False, mu_free and bool(better.any())
        best_mu[block], best_tb[block] = mu, t_b

    return _rows(base_params, sites, eta, best_mu, best_tb, protocol)
