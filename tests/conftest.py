import math
from pathlib import Path

import numpy as np

from cowqkd import SystemParams

# The byte references come in two sets, because numpy's AVX-512 exp, expm1
# and log round differently from the C library on a few percent of inputs.
# tests/data/ holds the bytes where np.exp takes those paths, tests/data/libm/
# the bytes where np.exp equals math.exp: on a host without AVX-512, or with
# NPY_DISABLE_CPU_FEATURES set to LIBM_FEATURES_OFF before numpy is imported.
LIBM_FEATURES_OFF = "AVX512_SPR AVX512_ICL X86_V4"
_EXP_PROBE = np.linspace(-40.0, 40.0, 4001)


def exp_is_libm() -> bool:
    """Whether np.exp equals math.exp on a fixed probe vector, element for element."""
    return np.exp(_EXP_PROBE).tolist() == [math.exp(x) for x in _EXP_PROBE.tolist()]


def reference_dir() -> Path:
    """The byte-reference set for the exp that this process's numpy computes."""
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
