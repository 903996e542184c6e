"""Key-rate maximization over (mu, t_B) and distance scans.

Grid-then-refine: at each distance the objective is evaluated on a log-spaced
mu grid times a linear t_B grid, then the incumbents of all distances are
polished together by coordinate-wise golden-section passes that run in
lockstep.  One objective call over every distance evaluates all the points
that the next four steps could probe, and a pass is skipped when it could not
move.  A distance's result equals what a scalar step-by-step search at that
distance alone would give.  Everything is deterministic; ties resolve to the
smallest mu, then the smallest t_B, and a NaN grid cell never wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .gains import (
    _data_line_pair,
    _decoy_monitoring_gains,
    _logic_monitoring_gain,
    _mix_pair,
    _nonclassical_monitoring_gains,
    _routed,
    full_gain_set,
)
from .params import ParameterError, SystemParams, Variant, channel_transmittance, total_transmittance
from .security import (
    RatePoint,
    _bit_error_x_kernel,
    _bit_error_z_kernel,
    _bounds_kernel,
    _key_rate_kernel,
    _phase_error_kernel,
    bit_error_x,
    bit_error_z,
    gain_bounds,
    key_rate_cow,
    key_rate_nonclassical,
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
        if any(L < 0 for L in self.L_values):
            raise ParameterError("distances must be >= 0")
        if not (0.0 < self.mu_min < self.mu_max):
            raise ParameterError("mu range must satisfy 0 < mu_min < mu_max")
        if not (0.0 < self.tb_min < self.tb_max < 1.0):
            raise ParameterError("t_B range must satisfy 0 < tb_min < tb_max < 1")
        if self.n_mu < 2 or self.n_tb < 2:
            raise ParameterError("grid sizes must be >= 2")
        if self.refine_iters < 0:
            raise ParameterError("refine_iters must be >= 0")
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


def _objective_surface(base: SystemParams, eta, mu, t_b, protocol: Protocol):
    """Key rate of the requested protocol, elementwise over broadcastable eta, mu, t_B.

    ``eta`` is the total transmittance; ``base`` supplies the other link
    parameters and the variant, and its distance is not used.
    """
    p_d, e_a, f_ec = base.p_d, base.e_a, base.f_ec
    active = base.variant is Variant.ACTIVE

    q_correct, q_wrong = _data_line_pair(mu, t_b, eta, p_d, e_a, active)
    e_z, q_z = _bit_error_z_kernel(q_correct, q_wrong, q_wrong, q_correct)

    q_logic = _routed(_logic_monitoring_gain, mu, t_b, eta, p_d, active)
    # The logic pair is symmetric, but the mixing is applied anyway so this
    # path is bit-identical to the scalar one in full_gain_set.
    q_0z_m0, q_0z_m1 = _mix_pair(q_logic, q_logic, e_a)
    q_1z_m0, q_1z_m1 = _mix_pair(q_logic, q_logic, e_a)
    if protocol is Protocol.COW:
        q_aa_m0, q_aa_m1, q_00 = _routed(_decoy_monitoring_gains, mu, t_b, eta, p_d, active)
        q_aa_m0, q_aa_m1 = _mix_pair(q_aa_m0, q_aa_m1, e_a)
        q_00_m0, q_00_m1 = _mix_pair(q_00, q_00, e_a)
        upper, lower = _bounds_kernel(q_aa_m0, q_aa_m1, q_00_m0, q_00_m1, mu)
        _, e_phase = _phase_error_kernel(q_0z_m0, q_0z_m1, q_1z_m0, q_1z_m1,
                                         upper, lower, mu)
    else:
        q_0x_m0, q_0x_m1 = _routed(_nonclassical_monitoring_gains, mu, t_b, eta, p_d,
                                   active)
        q_0x_m0, q_0x_m1 = _mix_pair(q_0x_m0, q_0x_m1, e_a)
        _, e_phase = _bit_error_x_kernel(q_0z_m0, q_0z_m1, q_1z_m0, q_1z_m1,
                                         q_0x_m0, q_0x_m1, mu)
    return _key_rate_kernel(q_z, e_phase, e_z, f_ec)


def evaluate_point(params: SystemParams, protocol: Protocol = Protocol.COW) -> RatePoint:
    """Full pipeline at one fixed (mu, t_B): gains, error rates, and all rates."""
    gains = full_gain_set(params)
    e_z, q_z = bit_error_z(gains)
    bounds = gain_bounds(gains.Q_aa_M0, gains.Q_aa_M1, gains.Q_00_M0, gains.Q_00_M1, params.mu)
    e_p_u = phase_error_upper(gains, bounds, params.mu)
    e_x = bit_error_x(gains, params.mu)
    r_cow = key_rate_cow(q_z, e_p_u, e_z, params.f_ec)
    r_tilde = key_rate_nonclassical(q_z, e_x, e_z, params.f_ec)
    objective = r_cow if protocol is Protocol.COW else r_tilde
    eta_ch = channel_transmittance(params)
    r_plob = plob_bound(eta_ch) if eta_ch < 1.0 else math.inf
    return RatePoint(
        L_km=params.L_km,
        eta_ch=eta_ch,
        eta_tot=total_transmittance(params),
        mu_opt=params.mu,
        tB_opt=params.t_B,
        Q_z=q_z,
        E_b=e_z,
        E_p_u=e_p_u,
        E_x=e_x,
        R=r_cow,
        R_tilde=r_tilde,
        R_plob=r_plob,
        flag="" if objective > 0.0 else FLAG_NO_POSITIVE_RATE,
    )


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
    its neighbouring grid cells are kept.  Then every distance with a positive
    grid rate is refined at once: ``refine_iters`` rounds of coordinate-wise
    golden-section passes (log-space for mu), bracketed by those neighbours,
    run in lockstep with one objective call over all these distances per four
    steps (see :func:`_golden_max`).  A pass runs only if it has not run yet or
    the other coordinate has moved since, as a rerun could not win: the active
    variant's ``t_B`` pass runs once, and a scan with ``mu_fixed`` or
    ``tb_fixed`` runs one pass whatever ``refine_iters`` is.  A refined value
    never falls below its grid incumbent, and a row does not depend on the
    other distances of the scan.  Each row is the validated
    :func:`evaluate_point` at its distance's optimum.

    Zero-rate points are flagged, never fatal: a scan always spans its full
    distance list.
    """
    protocol = config.protocol
    mu_grid = config.mu_grid()
    tb_grid = config.tb_grid()
    sites = [replace(base_params, L_km=float(L)) for L in config.L_values]
    eta = [total_transmittance(site) for site in sites]

    best_rate = np.empty(len(sites))
    i_mu = np.empty(len(sites), dtype=int)
    i_tb = np.empty(len(sites), dtype=int)
    for k, eta_k in enumerate(eta):
        surface = _objective_surface(base_params, eta_k, mu_grid[:, None], tb_grid[None, :],
                                     protocol)
        surface = np.fmax(surface, -np.inf)  # a NaN cell (overflow at huge mu) never wins
        flat_best = int(np.argmax(surface))  # C order: ties resolve to smallest mu, then t_B
        i_mu[k], i_tb[k] = np.unravel_index(flat_best, surface.shape)
        best_rate[k] = surface[i_mu[k], i_tb[k]]
    best_mu = mu_grid[i_mu]
    best_tb = tb_grid[i_tb]

    live = np.flatnonzero(best_rate > 0.0)
    if live.size:
        eta_live = np.array(eta)[live]
        rate, mu, t_b = best_rate[live], best_mu[live], best_tb[live]
        log_mu_lo = _log(mu_grid[np.maximum(i_mu[live] - 1, 0)])
        log_mu_hi = _log(mu_grid[np.minimum(i_mu[live] + 1, len(mu_grid) - 1)])
        tb_lo = tb_grid[np.maximum(i_tb[live] - 1, 0)]
        tb_hi = tb_grid[np.minimum(i_tb[live] + 1, len(tb_grid) - 1)]
        # A pass is due until it has run, and again once the other coordinate
        # moves: rerun on an unchanged objective and bracket, it could not win.
        mu_free, tb_free = config.mu_fixed is None, config.tb_fixed is None
        mu_due, tb_due = mu_free, tb_free
        for _ in range(config.refine_iters):
            if mu_due:
                log_mu, new = _golden_max(
                    lambda x: _objective_surface(base_params, eta_live, _exp(x), t_b, protocol),
                    log_mu_lo, log_mu_hi)
                better = new > rate
                rate, mu = np.where(better, new, rate), np.where(better, _exp(log_mu), mu)
                mu_due, tb_due = False, tb_due or (tb_free and bool(better.any()))
            if tb_due:
                new_tb, new = _golden_max(
                    lambda x: _objective_surface(base_params, eta_live, mu, x, protocol),
                    tb_lo, tb_hi)
                better = new > rate
                rate, t_b = np.where(better, new, rate), np.where(better, new_tb, t_b)
                tb_due, mu_due = False, mu_free and bool(better.any())
        best_mu[live], best_tb[live] = mu, t_b

    return [evaluate_point(replace(site, mu=float(m), t_B=float(t)), protocol)
            for site, m, t in zip(sites, best_mu, best_tb)]
