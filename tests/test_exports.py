"""Export guard: every exported name resolves, and the public API is pinned.

A name in an ``__all__`` whose object was deleted fails on
``from cowqkd import *`` only.  The pinned list makes every change to the
package's public API a deliberate edit here.
"""

import importlib
import pkgutil

import cowqkd

PUBLIC_API = (
    "BoundPair", "GainSet", "NoDetectionError", "NoMonitoringDetectionError", "OracleEstimate",
    "ParameterError", "Protocol", "RatePoint", "ScanConfig", "SystemParams", "Variant",
    "VerificationReport", "azuma_deviation", "binary_entropy", "bit_error_x", "bit_error_z",
    "channel_transmittance", "data_line_gains", "estimate_data_gains",
    "estimate_monitoring_gains", "evaluate_point", "full_gain_set", "gain_bounds",
    "key_rate_cow", "key_rate_nonclassical", "nonclassical_gains_ideal", "optimize_point",
    "phase_error_upper", "phase_error_upper_raw", "plob_bound", "run_verification",
    "sample_clicks", "scan", "total_transmittance",
)


def _modules():
    """The package and each of its modules, except the ``python -m`` entry point."""
    yield cowqkd
    for info in pkgutil.iter_modules(cowqkd.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"cowqkd.{info.name}")


def test_every_exported_name_resolves():
    missing = [f"{module.__name__}.{name}" for module in _modules()
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 34
    assert sorted(cowqkd.__all__) == sorted(PUBLIC_API)
