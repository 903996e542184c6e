import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from cowqkd import (
    Protocol,
    RatePoint,
    SystemParams,
    bit_error_x,
    bit_error_z,
    channel_transmittance,
    full_gain_set,
    gain_bounds,
    key_rate_cow,
    key_rate_nonclassical,
    phase_error_upper,
    plob_bound,
    total_transmittance,
)
from cowqkd.params import Variant
from cowqkd.optimize import FLAG_NO_POSITIVE_RATE, _objective_surface

# points_reference.txt comes in two sets, because numpy's AVX-512 exp, expm1
# and log round differently from the C library on a few percent of inputs, and
# the file prints repr.  tests/data/ holds the bytes where np.exp takes those
# paths, tests/data/libm/ the bytes where np.exp equals math.exp: on a host
# without AVX-512, or with NPY_DISABLE_CPU_FEATURES set to LIBM_FEATURES_OFF
# before numpy is imported.  The scan CSVs print converged optima to nine
# digits, the same on both paths, so tests/data/ alone holds them.
LIBM_FEATURES_OFF = "AVX512_SPR AVX512_ICL X86_V4"
_EXP_PROBE = np.linspace(-40.0, 40.0, 4001)


def exp_is_libm() -> bool:
    """Whether np.exp equals math.exp on a fixed probe vector, element for element."""
    return np.exp(_EXP_PROBE).tolist() == [math.exp(x) for x in _EXP_PROBE.tolist()]


def reference_dir() -> Path:
    """The points_reference.txt set for the exp that this process's numpy computes."""
    data = Path(__file__).parent / "data"
    return data / "libm" if exp_is_libm() else data


def make_params(**overrides) -> SystemParams:
    """SystemParams with benign defaults; override any field per test."""
    values = dict(
        L_km=50.0,
        p_d=1e-8,
        eta_d=0.8,
        e_a=0.0,
        f_ec=1.1,
        mu=0.1,
        t_B=0.5,
        variant="passive",
    )
    values.update(overrides)
    return SystemParams(**values)


def stepwise_point(params: SystemParams, protocol: Protocol = Protocol.COW) -> RatePoint:
    """evaluate_point's result, built only from the public step API.

    The library evaluates a point with its one rate chain; this reference
    takes the steps one public call at a time, so a test that compares the
    two does not compare the chain with itself.  Errors come from the first
    step that rejects the point.
    """
    gains = full_gain_set(params)
    e_b, q_z = bit_error_z(gains)
    mu = params.mu
    bounds = gain_bounds(gains.Q_aa_M0, gains.Q_aa_M1, gains.Q_00_M0, gains.Q_00_M1, mu)
    e_p_u = phase_error_upper(gains, bounds, mu)
    e_x = bit_error_x(gains, mu)
    r = key_rate_cow(q_z, e_p_u, e_b, params.f_ec)
    r_tilde = key_rate_nonclassical(q_z, e_x, e_b, params.f_ec)
    eta_ch = channel_transmittance(params)
    objective = r if protocol is Protocol.COW else r_tilde
    return RatePoint(L_km=params.L_km, eta_ch=eta_ch, eta_tot=total_transmittance(params),
                     mu_opt=mu, tB_opt=params.t_B, Q_z=q_z, E_b=e_b, E_p_u=e_p_u, E_x=e_x,
                     R=r, R_tilde=r_tilde, R_plob=plob_bound(eta_ch) if eta_ch < 1.0 else math.inf,
                     flag="" if objective > 0.0 else FLAG_NO_POSITIVE_RATE)


def reference_grid(base, config):
    """(rate, mu, t_B, i_mu, i_tb) arrays of each distance's full-grid incumbent.

    A NaN cell never wins; ties go to the smallest mu, then the smallest t_B.
    """
    mu_grid, tb_grid = config.mu_grid(), config.tb_grid()
    mu_mesh, tb_mesh = np.meshgrid(mu_grid, tb_grid, indexing="ij")
    cells = []
    for L in config.L_values:
        site = replace(base, L_km=float(L))
        surface = _objective_surface(site, total_transmittance(site), mu_mesh, tb_mesh,
                                     config.protocol)
        surface = np.fmax(surface, -np.inf).ravel()
        best = int(np.argmax(surface))
        cells.append((surface[best], *np.unravel_index(best, mu_mesh.shape)))
    rate, i_mu, i_tb = (np.array(v) for v in zip(*cells))
    return rate, mu_grid[i_mu], tb_grid[i_tb], i_mu, i_tb


def searched_config(base, config):
    """The config whose full grid a scan of config searches.

    The active rate is t_B times a t_B-free bracket, so an active scan that
    leaves t_B free is the scan pinned at tb_max.
    """
    if base.variant is Variant.ACTIVE and config.tb_fixed is None:
        return replace(config, tb_fixed=config.tb_max)
    return config


def scan_incumbents(base, config):
    """(rate, mu, t_B) arrays of the grid cells a scan of config starts from.

    The full grid's incumbent where its rate is positive (for the active
    variant, the factorisation puts it on the tb_max column), and elsewhere the
    incumbent of the grid the scan searches (``searched_config``).
    """
    full = reference_grid(base, config)[:3]
    searched = reference_grid(base, searched_config(base, config))[:3]
    positive = full[0] > 0.0
    return tuple(np.where(positive, f, s) for f, s in zip(full, searched))
