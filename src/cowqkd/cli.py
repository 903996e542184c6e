"""Command-line frontend: scans, point evaluations, oracle verification.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 verification
failure.  Scan output is CSV with nine-significant-digit floats and is byte
identical across runs for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from typing import Any, Callable, NamedTuple

import numpy as np

from .optimize import Protocol, ScanConfig, _point_record, optimize_point, scan
from .params import ParameterError, SystemParams
from .oracle import MIN_SAMPLES, VerificationReport, run_verification
from .security import _CHECKED, azuma_deviation

__all__ = ["main", "app", "parse_distance_range", "parse_config_file"]

CSV_HEADER = "L_km,eta_ch,eta_tot,mu_opt,tB_opt,Qz,Eb,Ep_u,R,R_tilde,R_plob,flag"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    """Bad flag, config-file entry, or parameter combination."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def parse_distance_range(text: str) -> tuple[float, ...]:
    """Parse "start:stop:step" (inclusive of both ends when step divides the
    span) or a single distance."""
    try:
        if ":" not in text:
            return (float(text),)
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError
    except ValueError:
        raise ConfigError(f"bad distance range {text!r}; expected start:stop:step") from None
    if step <= 0:
        raise ConfigError(f"distance step must be > 0, got {step}")
    if stop < start:
        raise ConfigError(f"distance range must have stop >= start, got {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9))
    return tuple(start + i * step for i in range(count + 1))


def _whole(text: str) -> int:
    """An integer, also written as a whole float such as 1e7."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():  # also rejects inf and nan
        raise ValueError(text)
    return int(value)


class _Option(NamedTuple):
    """One flag.  ``convert`` reads its text from the command line and from a
    config file alike; its config key is the flag's name with '_' for '-'."""

    flag: str
    convert: Callable[[str], Any]
    default: Any
    help: str
    commands: tuple[str, ...]
    choices: tuple[str, ...] | None = None

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")


_LINK = ("scan", "point", "optimize")  # the subcommands that take a link's settings

# Every option of every subcommand, in --help order.
_OPTIONS = (
    _Option("--pd", float, 1e-8, "dark-count probability per detector per slot", _LINK),
    _Option("--eta-d", float, 0.8, "detector efficiency", _LINK),
    _Option("--ea", float, 0.0, "misalignment error", _LINK),
    _Option("--f", float, 1.1, "error-correction efficiency", _LINK),
    _Option("--mu", float, None, "mean photon number of a non-empty pulse", _LINK),
    _Option("--tb", float, None, "data-line routing coefficient", _LINK),
    _Option("--variant", str.lower, "passive", "basis-choice variant", _LINK,
            ("passive", "active")),
    _Option("--atten", float, 0.2, "fiber attenuation in dB/km", _LINK),
    _Option("--seed", _whole, 1, "oracle seed", ("verify",)),
    _Option("--samples", _whole, 10_000_000, "samples per estimated gain", ("verify",)),
    _Option("--config", str, None, "flat key = value configuration file", (*_LINK, "verify")),
    _Option("--K", float, None, "number of rounds", ("finite-size",)),
    _Option("--fail-prob", float, None, "failure probability", ("finite-size",)),
    _Option("--out", str, None, "output path (default: stdout)",
            (*_LINK, "verify", "finite-size")),
    _Option("--L", parse_distance_range, None,
            "distance in km (scan: a range start:stop:step)", _LINK),
    _Option("--protocol", str.lower, "cow", "rate to maximize", ("scan", "optimize"),
            ("cow", "nonclassical")),
)


@functools.cache  # the table is constant; callers only read the dict
def _config_keys(cmd: str) -> dict[str, _Option]:
    """The options of ``cmd`` by config key: every one of its flags but --config."""
    return {o.key: o for o in _OPTIONS if cmd in o.commands and o.key != "config"}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment; a key that is no
    subcommand's option is rejected."""
    known = {o.key for o in _OPTIONS if o.key != "config"}
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            entries[key] = value
    return entries


def _convert(option: _Option, text: str):
    try:
        value = option.convert(text)
    except ConfigError:  # parse_distance_range says what is wrong
        raise
    except ValueError:
        pass
    else:
        if option.choices is None or value in option.choices:
            return value
    raise ConfigError(f"bad value for {option.key!r}: {text!r}")


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The settings of one invocation: defaults < config file < flags."""
    options = _config_keys(args.cmd)
    texts: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            texts = parse_config_file(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        for key in texts:  # in file order
            if key not in options:
                raise ConfigError(f"{args.config}: {args.cmd} takes no config key {key!r}")
    texts.update((key, value) for key, value in vars(args).items()
                 if key in options and value is not None)
    settings = {key: option.default for key, option in options.items()}
    settings.update((key, _convert(options[key], text)) for key, text in texts.items())
    return argparse.Namespace(cmd=args.cmd, **settings)


def _base_params(cfg: argparse.Namespace, L_km: float, require_mu_tb: bool) -> SystemParams:
    if require_mu_tb and (cfg.mu is None or cfg.tb is None):
        raise ConfigError("--mu and --tb are required for this command")
    return SystemParams(
        L_km=L_km,
        p_d=cfg.pd,
        eta_d=cfg.eta_d,
        e_a=cfg.ea,
        f_ec=cfg.f,
        mu=cfg.mu if cfg.mu is not None else 0.1,
        t_B=cfg.tb if cfg.tb is not None else 0.5,
        variant=cfg.variant,
        atten_db_per_km=cfg.atten,
    )


def _scan_config(cfg: argparse.Namespace) -> ScanConfig:
    if cfg.L is None:
        raise ConfigError("--L is required (a distance or start:stop:step)")
    return ScanConfig(
        L_values=cfg.L,
        protocol=Protocol(cfg.protocol),
        mu_fixed=cfg.mu,
        tb_fixed=cfg.tb,
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt9(value: float) -> str:
    return format(float(value), ".9g")


def format_rate_point_csv(point) -> str:
    values = (point.L_km, point.eta_ch, point.eta_tot, point.mu_opt, point.tB_opt,
              point.Q_z, point.E_b, point.E_p_u, point.R, point.R_tilde, point.R_plob)
    return ",".join(_fmt9(v) for v in values) + f",{point.flag}"


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _point_report_lines(params: SystemParams) -> list[str]:
    """Labelled key=value dump of every gain, error rate, and rate.

    Values are printed with repr so they round-trip to the exact library
    results.
    """
    point, chain = _point_record(params)
    lines = [
        f"L_km={params.L_km!r}",
        f"eta_ch={point.eta_ch!r}",
        f"eta_tot={point.eta_tot!r}",
        f"mu={params.mu!r}",
        f"t_B={params.t_B!r}",
        f"variant={params.variant.value}",
    ]
    for name in _CHECKED:
        lines.append(f"{name}={getattr(chain, name)!r}")
    lines += [
        f"Qz={point.Q_z!r}",
        f"Eb={point.E_b!r}",
        f"Ep_u_raw={chain.E_p_u_raw!r}",
        f"Ep_u={point.E_p_u!r}",
        f"bound_trivial={'true' if chain.E_p_u_raw > 0.5 else 'false'}",
        f"Ex_raw={chain.E_x_raw!r}",
        f"Ex={point.E_x!r}",
        f"R={point.R!r}",
        f"R_tilde={point.R_tilde!r}",
        f"R_plob={point.R_plob!r}",
    ]
    return lines


def _verification_report_lines(report: VerificationReport) -> list[str]:
    lines = [f"verify: seed={report.seed} samples={report.n_samples}"]
    n_checks = 0
    n_passed = 0
    for case in report.cases:
        p = case.params
        lines.append(
            f"case {case.label}: L={p.L_km:g} pd={p.p_d:g} eta_d={p.eta_d:g} "
            f"ea={p.e_a:g} mu={p.mu:g} tB={p.t_B:g} variant={p.variant.value}"
        )
        for check in case.checks:
            n_checks += 1
            n_passed += check.passed
            lines.append(
                f"  {check.name:9s} estimate={check.estimate:.6e} "
                f"expected={check.expected:.6e} z={check.z_score:+.2f} "
                f"{'PASS' if check.passed else 'FAIL'}"
            )
        lines.append("  closed-form gain ratios (informational):")
        for entry in case.ratios:
            lines.append(
                f"  {entry.name:9s} oracle={entry.oracle:.6e} "
                f"closed_form={entry.closed_form:.6e} ratio={entry.ratio:.4f}"
            )
    status = "PASS" if report.passed else "FAIL"
    lines.append(f"result: {status} ({n_passed}/{n_checks} checks within 4 sigma)")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_scan(cfg: argparse.Namespace) -> int:
    """optimize the key rate over a distance range, emit CSV"""
    base = _base_params(cfg, L_km=0.0, require_mu_tb=False)
    points = scan(base, _scan_config(cfg))
    lines = [CSV_HEADER] + [format_rate_point_csv(p) for p in points]
    _emit(lines, cfg.out)
    return EXIT_OK


def _cmd_point(cfg: argparse.Namespace) -> int:
    """evaluate one (L, mu, t_B) without optimization"""
    if cfg.L is None or len(cfg.L) != 1:
        raise ConfigError("point requires a single --L distance")
    params = _base_params(cfg, L_km=cfg.L[0], require_mu_tb=True)
    _emit(_point_report_lines(params), cfg.out)
    return EXIT_OK


def _cmd_optimize(cfg: argparse.Namespace) -> int:
    """optimize a single distance, print the full report"""
    if cfg.L is None or len(cfg.L) != 1:
        raise ConfigError("optimize requires a single --L distance")
    base = _base_params(cfg, L_km=cfg.L[0], require_mu_tb=False)
    point = optimize_point(base, _scan_config(cfg))
    optimal = replace(base, mu=point.mu_opt, t_B=point.tB_opt)
    lines = [f"mu_opt={point.mu_opt!r}", f"tB_opt={point.tB_opt!r}",
             f"flag={point.flag}"] + _point_report_lines(optimal)
    _emit(lines, cfg.out)
    return EXIT_OK


def _cmd_verify(cfg: argparse.Namespace) -> int:
    """run the Monte-Carlo oracle comparisons"""
    if cfg.samples < MIN_SAMPLES:
        sys.stderr.write(f"warning: insufficient samples (minimum {MIN_SAMPLES})\n")
        return EXIT_CONFIG
    report = run_verification(cfg.samples, cfg.seed)
    _emit(_verification_report_lines(report), cfg.out)
    if not report.passed:
        for label, check in report.failures():
            sys.stderr.write(
                f"verification failure in case {label}: {check.name} "
                f"z={check.z_score:+.2f} estimate={check.estimate:.6e} "
                f"expected={check.expected:.6e}\n"
            )
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_finite_size(cfg: argparse.Namespace) -> int:
    """concentration deviation for K rounds"""
    if cfg.K is None or cfg.fail_prob is None:
        raise ConfigError("finite-size requires --K and --fail-prob")
    try:
        epsilon = azuma_deviation(cfg.K, cfg.fail_prob)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _emit([f"K={cfg.K!r}", f"fail_prob={cfg.fail_prob!r}", f"epsilon={epsilon!r}"], cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

@functools.cache  # parsing leaves the parser unchanged, so it is built once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cowqkd",
        description="Asymptotic secret-key rates for coherent-one-way QKD.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, run in _COMMANDS.items():
        command = sub.add_parser(cmd, help=run.__doc__)
        for option in _OPTIONS:
            if cmd in option.commands:
                command.add_argument(option.flag, dest=option.key, choices=option.choices,
                                     help=option.help)
    return parser


# A subcommand's --help line is its function's docstring.
_COMMANDS = {
    "scan": _cmd_scan,
    "point": _cmd_point,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
    "finite-size": _cmd_finite_size,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _resolve(args)
        # An overflow at huge mu ends in a ParameterError; its numpy warnings
        # would only repeat it.  Library calls keep numpy's default policy.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.cmd](cfg)
    except (ConfigError, ParameterError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO


def app() -> None:
    sys.exit(main())
