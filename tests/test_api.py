"""The public API: every name a module exports resolves, every cache is
keyed by shapes and hands out read-only arrays, and README's examples run."""
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = ["", ".cli", ".entropy", ".hermite", ".model", ".state", ".transform"]


@pytest.mark.parametrize("suffix", MODULES)
def test_every_exported_name_resolves(suffix):
    module = importlib.import_module("qubit_entropy" + suffix)
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_exactly_the_submodule_lists():
    # each public name is listed once, in its submodule's __all__
    package = importlib.import_module("qubit_entropy")
    names = ["__version__"]
    for suffix in ("entropy", "hermite", "model", "state", "transform"):
        names += importlib.import_module("qubit_entropy." + suffix).__all__
    assert sorted(package.__all__) == sorted(names)
    assert "SMALL_ANGLE_LIMIT" in names


def test_public_names_are_pinned():
    # widening either surface has to be an edit here
    package = importlib.import_module("qubit_entropy")
    assert sorted(package.__all__) == [
        "FrequencyMethod",
        "NormalModes",
        "SMALL_ANGLE_LIMIT",
        "__version__",
        "bipartite_entropies",
        "build_transform",
        "ho_eigenfunctions",
        "normal_modes",
        "parity_levels",
        "spectrum_entropies",
        "thermal_spectra",
        "thermal_weights",
        "validity_diagnostics",
    ]
    cli = importlib.import_module("qubit_entropy.cli")
    assert sorted(cli.__all__) == [
        "Sweep", "SweepConfig", "SweepError", "emit", "main", "parse_config", "run_sweep",
    ]


# Every functools cache of the package, with calls that exercise it.  A
# cache keyed by a circuit, a temperature or a q value would hold one entry
# per input and time a repeated workload rather than the program: each one
# is keyed by integers and flags, and hands out arrays nobody can change.
CACHES = {
    "cli._parser": [()],
    "cli._cell_tables": [()],
    "cli._cell_index": [(2, 3, False), (2, 3, True)],
    "transform.parity_levels": [(2,), (5,)],
    "transform._own_rows": [(2,), (5,), (8,)],
    "transform.truncation_positions": [(5, 2), (8, 5)],
    "transform.marginal_positions": [(2,), (3,), (4,), (5,)],
    "transform._hermgauss_scaled": [(3,), (9,)],
}


def found_caches():
    caches = {}
    for suffix in MODULES[1:]:
        module = importlib.import_module("qubit_entropy" + suffix)
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[f"{suffix[1:]}.{name}"] = value
    return caches


def test_caches_are_pinned():
    assert sorted(found_caches()) == sorted(CACHES)


@pytest.mark.parametrize("name", sorted(CACHES))
def test_caches_are_keyed_by_integers_and_return_read_only_arrays(name):
    cached = found_caches()[name]
    signature = inspect.signature(cached.__wrapped__, eval_str=True)
    assert all(p.annotation in (int, bool) for p in signature.parameters.values())
    for args in CACHES[name]:
        pending, arrays = [cached(*args)], 0
        while pending:
            item = pending.pop()
            if isinstance(item, (tuple, list)):
                pending.extend(item)
            elif isinstance(item, np.ndarray):
                assert not item.flags.writeable, (name, args)
                arrays += 1
        assert arrays or name == "cli._parser"


def test_readme_python_blocks_run(capsys):
    # the documented calls are the real ones: a changed signature fails here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("# qubit-entropy")
