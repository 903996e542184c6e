"""Export and import guards: the public API and the cross-module private imports.

A name in an ``__all__`` whose object was deleted fails on
``from cowqkd import *`` only.  The pinned lists make every change to the
package's public API, and every private name one module takes from another,
a deliberate edit here.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

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


SRC = Path(cowqkd.__file__).parent
NOQA = re.compile(r"#\s*noqa: F401\s+\S")  # the rule code, then a reason
# module: the private names it imports from other cowqkd modules, as source.name
PRIVATE_IMPORTS = {
    "cli": {"optimize._point_record", "security._CHECKED"},
    # _margin: the search decides a rate's positivity by maximizing a smooth margin
    # of the chain's record, which security builds beside the rate kernel
    "optimize": {"security._Chain", "security._RATES", "security._accepted",
                 "security._margin", "security._rate_chain"},
    "security": {"gains._gain_record", "gains._n_minus", "gains._n_plus"},
}


def _imports(tree):
    """(node, alias, bound name) of every import in a module, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias, alias.asname or alias.name


def _uses(tree):
    """Names a module reads, and the names its ``__all__`` re-exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_every_import_is_used_or_marked_with_a_reason():
    wrong = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        used = _uses(tree)
        for _, alias, name in _imports(tree):
            marked = NOQA.search(lines[alias.lineno - 1]) is not None
            if (name in used) == marked:  # unused and unmarked, or marked but used
                wrong.append(f"{path.name}:{alias.lineno} {name}")
    assert wrong == []


def test_private_cross_module_imports_are_pinned():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node, alias, _ in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and alias.name.startswith("_"):
                found.setdefault(path.stem, set()).add(f"{node.module}.{alias.name}")
    assert found == PRIVATE_IMPORTS
