"""The shared kernels' contract: scalars in, scalars out; arrays broadcast.

The scalar chain behind ``evaluate_point`` and the array path behind the
scan's grid call the same kernels.  On scalars, numpy's per-call cost on 0-d
arrays is most of a point's time, so no kernel may turn Python floats into a
0-d ndarray; on arrays, every value has the inputs' broadcast shape.  This
guards the scalar chain's speed without a timing test.
"""

from __future__ import annotations

import numpy as np
import pytest

from cowqkd.gains import (
    _click_probability,
    _data_line_pair,
    _decoy_monitoring_gains,
    _logic_monitoring_gain,
    _nonclassical_monitoring_gains,
)
from cowqkd.security import (
    _bit_error_x_kernel,
    _bounds_kernel,
    _entropy_kernel,
    _key_rate_kernel,
    _phase_error_kernel,
)

# Column and row arrays that broadcast to SHAPE, standing in for a mu x t_B grid.
COLUMN = np.array([[1e-3], [0.05], [0.4]])
ROW = np.array([[0.02, 0.3, 0.6, 0.97]])
SHAPE = (3, 4)
Q = np.broadcast_to(COLUMN * ROW, SHAPE)  # probabilities of the grid's shape

# (name, kernel, scalar arguments, array arguments)
KERNELS = [
    ("click_probability", _click_probability, (0.3, 1e-7), (COLUMN * ROW, 1e-7)),
    ("logic_monitoring_gain", _logic_monitoring_gain,
     (0.05, 0.5, 0.1, 1e-7), (COLUMN, ROW, 0.1, 1e-7)),
    ("decoy_monitoring_gains", _decoy_monitoring_gains,
     (0.05, 0.5, 0.1, 1e-7), (COLUMN, ROW, 0.1, 1e-7)),
    ("nonclassical_monitoring_gains", _nonclassical_monitoring_gains,
     (0.05, 0.5, 0.1, 1e-7), (COLUMN, ROW, 0.1, 1e-7)),
    ("data_line_pair passive", _data_line_pair,
     (0.05, 0.5, 0.1, 1e-7, 0.01, False), (COLUMN, ROW, 0.1, 1e-7, 0.01, False)),
    ("data_line_pair active", _data_line_pair,
     (0.05, 0.5, 0.1, 1e-7, 0.01, True), (COLUMN, ROW, 0.1, 1e-7, 0.01, True)),
    ("bounds_kernel", _bounds_kernel,
     (1e-3, 1e-9, 1e-8, 1e-8, 0.05), (Q, Q * 1e-6, 1e-8, 1e-8, COLUMN)),
    ("phase_error_kernel", _phase_error_kernel,
     (1e-4, 1e-4, 1e-4, 1e-4, 2e-5, 1e-4, 0.05), (Q, Q, Q, Q, Q * 0.1, Q, COLUMN)),
    ("bit_error_x_kernel", _bit_error_x_kernel,
     (1e-4, 1e-4, 1e-4, 1e-4, 2e-4, 1e-5, 0.05), (Q, Q, Q, Q, Q * 2.0, Q * 0.1, COLUMN)),
    ("entropy_kernel", _entropy_kernel, (0.11,), (Q,)),
    ("key_rate_kernel", _key_rate_kernel, (1e-3, 0.2, 0.05, 1.1), (Q, Q, Q * 0.5, 1.1)),
]
# Q_00 does not depend on mu, t_B or eta, so it stays a scalar and broadcasts.
CONSTANT = {("decoy_monitoring_gains", 2)}


def _values(result):
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("name, kernel, scalar_args, _", KERNELS, ids=[k[0] for k in KERNELS])
def test_scalar_inputs_give_scalars(name, kernel, scalar_args, _):
    for k, value in enumerate(_values(kernel(*scalar_args))):
        assert not isinstance(value, np.ndarray), (name, k, type(value))
        assert isinstance(value, (float, np.floating)), (name, k, type(value))


@pytest.mark.parametrize("name, kernel, _, array_args", KERNELS, ids=[k[0] for k in KERNELS])
def test_array_inputs_broadcast(name, kernel, _, array_args):
    for k, value in enumerate(_values(kernel(*array_args))):
        expected = () if (name, k) in CONSTANT else SHAPE
        assert np.shape(value) == expected, (name, k)


def test_scalar_inputs_are_not_converted_to_arrays(monkeypatch):
    # A 0-d array costs numpy's per-call overhead in every operation after it.
    converted = []
    asarray = np.asarray
    monkeypatch.setattr(np, "asarray", lambda *a, **kw: converted.append(a) or asarray(*a, **kw))
    for name, kernel, scalar_args, _ in KERNELS:
        kernel(*scalar_args)
    assert converted == []
