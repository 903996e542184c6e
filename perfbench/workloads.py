"""The benchmark's three workloads: seeded inputs, one op, and its output check.

Ops and checks call only entry points a user calls -- ``cowqkd.cli.main``,
``cowqkd.SystemParams`` with ``cowqkd.optimize.evaluate_point``, and
``cowqkd.oracle.run_verification`` -- so refactoring the internals cannot
break the untraced run.  Every op is checked; a failed check or an exception
counts as a failure and is never filtered out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

import cowqkd
import cowqkd.cli
import cowqkd.optimize
import cowqkd.oracle

# Ranges the seed draws the link parameters from: they span the README's
# examples (p_d = 1e-8 .. 1e-7, e_a = 0 .. 1-2 %, eta_d = 0.8 .. 0.99).
PD_RANGE = (1e-8, 1e-7)
EA_RANGE = (0.0, 0.02)
ETA_D_RANGE = (0.8, 0.99)
F_EC = 1.1

_BOX = cowqkd.ScanConfig(L_values=(0.0,))  # the default (mu, t_B) search box


@dataclass(frozen=True)
class Outcome:
    """Checked result of one timed call: ops attempted, ops failed, work done."""

    ops: int
    failed: int
    work: float


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n values in [0, 1), one per equal stratum, in random order.

    Every run then covers each parameter range evenly, so the seed moves the
    inputs but barely moves the mix of cheap and expensive ones.
    """
    return (rng.permutation(n) + rng.random(n)) / n


def _link_draws(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    """n stratified (p_d, eta_d, e_a) triples."""
    log_pd = np.log10(PD_RANGE[0]) + _strata(rng, n) * np.log10(PD_RANGE[1] / PD_RANGE[0])
    e_a = EA_RANGE[0] + _strata(rng, n) * (EA_RANGE[1] - EA_RANGE[0])
    eta_d = ETA_D_RANGE[0] + _strata(rng, n) * (ETA_D_RANGE[1] - ETA_D_RANGE[0])
    return [(float(10.0 ** a), float(b), float(c)) for a, b, c in zip(log_pd, eta_d, e_a)]


def _fmt9(value: float) -> str:
    return format(float(value), ".9g")


# ---------------------------------------------------------------------------
# scan: `cowqkd scan --L 0:150:5`, in process; an op is one CSV row
# ---------------------------------------------------------------------------

SCAN_RANGE = "0:150:5"
CSV_HEADER = "L_km,eta_ch,eta_tot,mu_opt,tB_opt,Qz,Eb,Ep_u,R,R_tilde,R_plob,flag"
FLAGS = ("", "no_positive_rate")
# One cycle of scan commands.  COW, the paper's protocol, runs twice as often
# as the nonclassical comparison.  A nonclassical command refines all 31
# distances and costs ~1.3x a COW one.  With an even mix, the median command
# would sit on the gap between the two groups and jump with small changes in
# host speed; at 2:1 it sits inside the COW group.
SCAN_CYCLE = (("passive", "cow"), ("active", "cow"), ("passive", "nonclassical"),
              ("passive", "cow"), ("active", "cow"), ("active", "nonclassical"))
# Rows are re-evaluated at the printed (mu_opt, tB_opt), which carry nine
# significant digits.  Columns that do not depend on (mu, t_B) must match
# bit for bit; Qz, Eb, Ep_u move by up to ~1e-8 relative under that rounding,
# and R, R_tilde by up to ~1e-8 * Qz, so those get ten times that slack.
_ROUNDING_REL = 1e-7


@dataclass(frozen=True)
class ScanInput:
    p_d: float
    eta_d: float
    e_a: float
    variant: str
    protocol: str
    distances: str = SCAN_RANGE

    def argv(self) -> list[str]:
        return ["scan", "--pd", repr(self.p_d), "--eta-d", repr(self.eta_d),
                "--ea", repr(self.e_a), "--f", repr(F_EC), "--variant", self.variant,
                "--protocol", self.protocol, "--L", self.distances]

    def distance_list(self) -> tuple[float, ...]:
        start, stop, step = (float(x) for x in self.distances.split(":"))
        return tuple(start + i * step for i in range(int(round((stop - start) / step)) + 1))


class ScanWorkload:
    name = "scan"
    cycle = len(SCAN_CYCLE)
    trace_ops = len(SCAN_CYCLE)
    unit_label = "rows"

    def make_inputs(self, seed: int) -> list[ScanInput]:
        rng = np.random.default_rng([seed, 1])
        cycles = 16
        uses = Counter(SCAN_CYCLE)
        draws = {combo: iter(_link_draws(rng, cycles * n)) for combo, n in uses.items()}
        return [ScanInput(*next(draws[combo]), *combo) for _ in range(cycles) for combo in SCAN_CYCLE]

    def run(self, inp: ScanInput):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cowqkd.cli.main(inp.argv())
        return code, out.getvalue()

    def failure(self, inp: ScanInput) -> Outcome:
        return Outcome(len(inp.distance_list()), len(inp.distance_list()), 0.0)

    def check(self, inp: ScanInput, raw) -> Outcome:
        code, text = raw
        distances = inp.distance_list()
        lines = text.splitlines()
        if code != 0 or not lines or lines[0] != CSV_HEADER:
            return self.failure(inp)
        rows = lines[1:]
        ops = max(len(rows), len(distances))
        good = sum(self._row_ok(inp, L, row) for L, row in zip(distances, rows))
        return Outcome(ops, ops - good, float(good))

    def _row_ok(self, inp: ScanInput, L_km: float, row: str) -> bool:
        fields = row.split(",")
        if len(fields) != 12 or fields[11] not in FLAGS:
            return False
        try:
            L, eta_ch, eta_tot, mu, t_b, q_z, e_b, e_p, r, r_t, r_plob = map(float, fields[:11])
        except ValueError:
            return False
        finite = all(math.isfinite(v) for v in (L, eta_ch, eta_tot, mu, t_b, q_z, e_b, e_p, r, r_t))
        in_range = (finite and L == L_km and 0.0 < eta_tot <= eta_ch <= 1.0
                    and _BOX.mu_min <= mu <= _BOX.mu_max and _BOX.tb_min <= t_b <= _BOX.tb_max
                    and 0.0 <= q_z <= 1.0 and 0.0 <= e_b <= 1.0 and 0.0 <= e_p <= 0.5
                    and r >= 0.0 and r_t >= 0.0 and not math.isnan(r_plob) and r <= r_plob)
        if not in_range:
            return False
        params = cowqkd.SystemParams(L_km=L_km, p_d=inp.p_d, eta_d=inp.eta_d, e_a=inp.e_a,
                                     f_ec=F_EC, mu=mu, t_B=t_b, variant=inp.variant)
        try:
            ref = cowqkd.optimize.evaluate_point(params, cowqkd.Protocol(inp.protocol))
        except ValueError:
            return False
        exact = (_fmt9(ref.L_km), _fmt9(ref.eta_ch), _fmt9(ref.eta_tot), _fmt9(ref.mu_opt),
                 _fmt9(ref.tB_opt), _fmt9(ref.R_plob), ref.flag)
        if exact != (fields[0], fields[1], fields[2], fields[3], fields[4], fields[10], fields[11]):
            return False
        slack = _ROUNDING_REL * ref.Q_z
        return (abs(q_z - ref.Q_z) <= slack
                and abs(e_b - ref.E_b) <= _ROUNDING_REL * ref.E_b
                and abs(e_p - ref.E_p_u) <= _ROUNDING_REL * ref.E_p_u
                and abs(r - ref.R) <= slack and abs(r_t - ref.R_tilde) <= slack)

    def self_test(self, inputs: list[ScanInput]) -> str | None:
        """None when the check passes a real scan and fails one corrupted row."""
        inp = dataclasses.replace(inputs[0], distances="40:60:10")
        code, text = self.run(inp)
        clean = self.check(inp, (code, text))
        if clean.failed:
            return f"scan self-test: a clean scan failed its check ({clean})"
        lines = text.splitlines()
        fields = lines[2].split(",")
        column = 8 if float(fields[8]) > 0.0 else 5  # R, or Qz on a zero-rate row
        fields[column] = _fmt9(float(fields[column]) * 1.001)
        lines[2] = ",".join(fields)
        bad = self.check(inp, (code, "\n".join(lines) + "\n"))
        if bad.failed != 1:
            return f"scan self-test: one corrupted row gave {bad.failed} failed rows"
        return None


# ---------------------------------------------------------------------------
# point: evaluate_point(SystemParams(...)); an op is one call
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointInput:
    L_km: float
    p_d: float
    eta_d: float
    e_a: float
    mu: float
    t_B: float
    variant: str
    protocol: cowqkd.Protocol


class PointWorkload:
    name = "point"
    cycle = 1
    trace_ops = 2000
    unit_label = "calls"

    def make_inputs(self, seed: int) -> list[PointInput]:
        rng = np.random.default_rng([seed, 2])
        n = 4096
        L = 200.0 * _strata(rng, n)
        mu = _BOX.mu_min * (_BOX.mu_max / _BOX.mu_min) ** _strata(rng, n)
        t_b = _BOX.tb_min + (_BOX.tb_max - _BOX.tb_min) * _strata(rng, n)
        links = _link_draws(rng, n)
        protocols = (cowqkd.Protocol.COW, cowqkd.Protocol.NONCLASSICAL)
        return [PointInput(float(L[i]), *links[i], float(mu[i]), float(t_b[i]),
                           ("passive", "active")[i % 2], protocols[(i // 2) % 2])
                for i in range(n)]

    def run(self, inp: PointInput):
        params = cowqkd.SystemParams(L_km=inp.L_km, p_d=inp.p_d, eta_d=inp.eta_d, e_a=inp.e_a,
                                     f_ec=F_EC, mu=inp.mu, t_B=inp.t_B, variant=inp.variant)
        return cowqkd.optimize.evaluate_point(params, inp.protocol)

    def failure(self, inp: PointInput) -> Outcome:
        return Outcome(1, 1, 0.0)

    def check(self, inp: PointInput, p) -> Outcome:
        objective = p.R if inp.protocol is cowqkd.Protocol.COW else p.R_tilde
        ok = (all(math.isfinite(v) for v in (p.Q_z, p.E_b, p.E_p_u, p.E_x, p.R, p.R_tilde))
              and p.L_km == inp.L_km and p.mu_opt == inp.mu and p.tB_opt == inp.t_B
              and 0.0 <= p.Q_z <= 1.0 and 0.0 <= p.E_b <= 1.0 and 0.0 <= p.E_p_u <= 0.5
              and 0.0 <= p.E_x <= 1.0 and p.R >= 0.0 and p.R_tilde >= 0.0
              and not math.isnan(p.R_plob) and (math.isinf(p.R_plob) or p.R <= p.R_plob)
              and p.flag == FLAGS[objective <= 0.0])
        return Outcome(1, 0 if ok else 1, 1.0 if ok else 0.0)

    def self_test(self, inputs: list[PointInput]) -> str | None:
        point = self.run(inputs[0])
        if self.check(inputs[0], point).failed:
            return "point self-test: a clean point failed its check"
        if not self.check(inputs[0], dataclasses.replace(point, E_p_u=0.6)).failed:
            return "point self-test: E_p_u = 0.6 passed the check"
        return None


# ---------------------------------------------------------------------------
# verify: run_verification on the default cases; an op is one case
# ---------------------------------------------------------------------------

VERIFY_SAMPLES = 500_000
# The CLI's default oracle seed.  The 4-sigma gate has a nominal false-alarm
# rate: at 5e5 samples, oracle seeds 0-99 gave one failing case (seed 97,
# z = 4.06).  A seed taken from --seed would make about one benchmark seed in
# a hundred fail by the gate's design, not by a defect, so --seed orders the
# cases instead.
ORACLE_SEED = 1
CASE_LABELS = ("bright-darkfree", "reference-point", "low-dark-passive",
               "high-dark-passive", "active-switch")


@dataclass(frozen=True)
class VerifyInput:
    label: str
    params: cowqkd.SystemParams
    n_samples: int
    seed: int


class VerifyWorkload:
    name = "verify"
    cycle = len(CASE_LABELS)
    trace_ops = len(CASE_LABELS)
    unit_label = "trials"

    def make_inputs(self, seed: int) -> list[VerifyInput]:
        rng = np.random.default_rng([seed, 3])
        cases = cowqkd.oracle.default_verification_cases()
        return [VerifyInput(*cases[i], VERIFY_SAMPLES, ORACLE_SEED)
                for i in rng.permutation(len(cases))]

    def run(self, inp: VerifyInput, data_model=None):
        return cowqkd.oracle.run_verification(inp.n_samples, inp.seed,
                                              cases=[(inp.label, inp.params)],
                                              data_model=data_model)

    def failure(self, inp: VerifyInput) -> Outcome:
        return Outcome(1, 1, 0.0)

    def check(self, inp: VerifyInput, report) -> Outcome:
        ok = (len(report.cases) == 1 and report.cases[0].label == inp.label
              and len(report.cases[0].checks) > 0 and report.passed)
        return Outcome(1, 0 if ok else 1, self.trials(report) if ok else 0.0)

    @staticmethod
    def trials(report) -> float:
        """Monte-Carlo trials: samples times sequences (two gain checks each)."""
        return float(report.n_samples * sum(len(c.checks) for c in report.cases) // 2)

    def self_test(self, inputs: list[VerifyInput]) -> str | None:
        def tampered(params):
            t0, t1, t2, t3 = cowqkd.data_line_gains(params)
            return min(1.0, 1.5 * t0), t1, t2, min(1.0, 1.5 * t3)

        probes = [dataclasses.replace(inp, n_samples=100_000) for inp in inputs[:self.cycle]]
        if any(self.check(p, self.run(p)).failed for p in probes):
            return "verify self-test: the untampered model failed the gate"
        if not any(self.check(p, self.run(p, data_model=tampered)).failed for p in probes):
            return "verify self-test: a tampered data_model passed the gate"
        return None


WORKLOADS = {w.name: w for w in (ScanWorkload(), PointWorkload(), VerifyWorkload())}
