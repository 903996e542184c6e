"""Byte gate on the scalar chain: evaluate_point and the point/optimize reports.

``reference_lines()`` renders, one line per seeded operating point,
``repr(RatePoint)`` or the exception's type and message, then the CLI output
of a few ``point``/``optimize`` commands.  ``points_reference.txt`` holds that
text, as rendered after the last declared numeric change, in the reference set
of conftest.py that matches this process's numpy exp, and the test requires
the same bytes.  A
second test reruns every byte test with numpy's AVX-512 dispatch off, so an
AVX-512 host gates both sets.  To rewrite both after a declared numeric
change, run

    PYTHONPATH=src python tests/test_points_reference.py
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" \
        PYTHONPATH=src python tests/test_points_reference.py

and write the ``GOLDEN_SCANS`` CSVs of ``tests/test_cli.py`` to ``tests/data/``
with ``cowqkd scan ... --out``; they must come out the same both ways.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cowqkd import Protocol, SystemParams, evaluate_point
from cowqkd.cli import main
from conftest import LIBM_FEATURES_OFF, reference_dir

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = reference_dir() / "points_reference.txt"
BYTE_TESTS = ("tests/test_cli.py::test_scan_matches_reference_csv_bytes",
              "tests/test_points_reference.py::test_points_match_reference_bytes")
SEED = 20211
N_POINTS = 1600
# mu reaches 30: far enough for the finite Q_aa_M0 > 1 rejections from
# mu ~ 3, short of the gain kernels' overflow at mu ~ 1e4.
MU_RANGE = (1e-5, 30.0)
# Passive points where the unmixed Q_aa_M0 often exceeds 1 (its c5 factor is
# above 1 at small t_B and large mu) and e_a > 0 often mixes it back under 1:
# they pin that the unmixed gains are validated before the mixing.
N_C5_POINTS = 400

CLI_ARGV = (
    ["point", "--L", "50", "--mu", "0.0037", "--tb", "0.48"],
    ["point", "--L", "25", "--mu", "0.1", "--tb", "0.5", "--pd", "0", "--ea", "0"],
    ["point", "--L", "80", "--mu", "0.002", "--tb", "0.3", "--pd", "1e-7", "--eta-d", "0.99",
     "--ea", "0.01", "--variant", "active"],
    ["point", "--L", "0", "--mu", "0.5", "--tb", "0.9", "--ea", "0.02"],
    ["point", "--L", "7.26", "--mu", "9.43", "--tb", "0.016", "--ea", "0.01"],
    # the unmixed Q_aa_M0 is 1.00028 (rejected); mixed at e_a = 0.05 it would be 0.95
    ["point", "--L", "20", "--mu", "5", "--tb", "0.016", "--ea", "0.05"],
    ["point", "--L", "50", "--mu", "800", "--tb", "0.5"],
    ["optimize", "--L", "50"],
    ["optimize", "--L", "60", "--variant", "active", "--protocol", "nonclassical",
     "--pd", "1e-7", "--ea", "0.01"],
    ["optimize", "--L", "300"],
)


def _points() -> list[tuple[SystemParams, Protocol]]:
    """Valid operating points, both variants and protocols; every 7th has
    p_d = 0 and every 5th e_a = 0."""
    rng = np.random.default_rng(SEED)
    n, n_c5 = N_POINTS, N_C5_POINTS
    L = np.concatenate([300.0 * rng.random(n), 30.0 * rng.random(n_c5)])
    mu = np.concatenate([MU_RANGE[0] * (MU_RANGE[1] / MU_RANGE[0]) ** rng.random(n),
                         2.0 * (MU_RANGE[1] / 2.0) ** rng.random(n_c5)])
    t_b = np.concatenate([rng.uniform(0.001, 0.999, n), rng.uniform(0.001, 0.2, n_c5)])
    n += n_c5
    p_d = 10.0 ** rng.uniform(-10.0, -4.0, n)
    p_d[::7] = 0.0
    eta_d = rng.uniform(0.05, 1.0, n)
    e_a = rng.uniform(0.0, 0.2, n)
    e_a[::5] = 0.0
    f_ec = rng.uniform(1.0, 1.5, n)
    variants = ["passive", "active"] * (N_POINTS // 2) + ["passive"] * n_c5
    return [(SystemParams(L_km=float(L[i]), p_d=float(p_d[i]), eta_d=float(eta_d[i]),
                          e_a=float(e_a[i]), f_ec=float(f_ec[i]), mu=float(mu[i]),
                          t_B=float(t_b[i]), variant=variants[i]),
             (Protocol.COW, Protocol.NONCLASSICAL)[(i // 2) % 2])
            for i in range(n)]


def _outcome(call) -> str:
    try:
        return repr(call())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _cli(argv: list[str]) -> list[str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [f"$ cowqkd {' '.join(argv)}", f"exit={code}",
            *out.getvalue().splitlines(), *("stderr: " + e for e in err.getvalue().splitlines())]


def reference_lines() -> tuple[list[str], list[str]]:
    """(rendered lines, what each line shows), in the order of the file."""
    lines, sources = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for params, protocol in _points():
            lines.append(_outcome(lambda: evaluate_point(params, protocol)))
            sources.append(f"evaluate_point({params!r}, {protocol})")
        for argv in CLI_ARGV:
            rendered = _cli(argv)
            lines += rendered
            sources += [rendered[0]] * len(rendered)
    return lines, sources


def test_points_match_reference_bytes():
    expected = REFERENCE.read_text(encoding="utf-8").splitlines()
    actual, sources = reference_lines()
    assert len(actual) == len(expected)
    for k, (got, want, source) in enumerate(zip(actual, expected, sources)):
        assert got == want, f"line {k + 1} of {REFERENCE.name}: {source}"


def test_reference_bytes_with_avx512_dispatch_off():
    """The libm set is gated here too: the byte tests rerun in a numpy without AVX-512."""
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")}  # own options only
    env.update(NPY_DISABLE_CPU_FEATURES=LIBM_FEATURES_OFF, PYTHONPATH=os.pathsep.join(path))
    probe = subprocess.run([sys.executable, "-c", "import conftest; print(conftest.exp_is_libm())"],
                           env=env, capture_output=True, text=True, check=True)
    if probe.stdout.strip() != "True":
        pytest.skip("np.exp differs from math.exp on this host even with AVX-512 dispatch off")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          *BYTE_TESTS], cwd=ROOT, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-4000:]
    assert "7 passed" in run.stdout


if __name__ == "__main__":
    text = "\n".join(reference_lines()[0]) + "\n"
    REFERENCE.write_text(text, encoding="utf-8", newline="\n")
