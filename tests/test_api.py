"""The public API: every name a module exports resolves."""
import importlib

import pytest

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
        "CircuitParams",
        "FrequencyMethod",
        "NormalModes",
        "SMALL_ANGLE_LIMIT",
        "__version__",
        "bipartite_entropies",
        "build_transform",
        "ho_eigenfunctions",
        "normal_modes",
        "spectrum_entropies",
        "thermal_spectra",
        "thermal_weights",
        "validity_diagnostics",
    ]
    cli = importlib.import_module("qubit_entropy.cli")
    assert sorted(cli.__all__) == [
        "Sweep", "SweepConfig", "SweepError", "emit", "main", "parse_config", "run_sweep",
    ]
