"""The package's lazy exports."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import prostochastic

MODULES = ("core", "expressions", "monoid", "numerics", "omega", "reduction")


def test_every_export_is_its_defining_modules_binding():
    modules = [importlib.import_module(f"prostochastic.{name}") for name in MODULES]
    for name in prostochastic.__all__:
        value = getattr(prostochastic, name)
        owners = [module for module in modules if getattr(module, name, None) is value]
        assert owners, name
        home = getattr(value, "__module__", "")
        if home.startswith("prostochastic."):   # typing aliases have no home module here
            assert sys.modules[home] in owners, name


def test_dir_lists_every_export():
    listed = dir(prostochastic)
    assert set(prostochastic.__all__) <= set(listed)
    assert "__version__" in listed
    assert len(prostochastic.__all__) == len(set(prostochastic.__all__))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from prostochastic import *", namespace)
    assert {name: namespace[name] for name in prostochastic.__all__} == {
        name: getattr(prostochastic, name) for name in prostochastic.__all__}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'markov_monoids'"):
        prostochastic.markov_monoids
    assert not hasattr(prostochastic, "np")


def test_an_export_follows_its_defining_module(monkeypatch):
    from prostochastic import monoid
    replacement = object()
    monkeypatch.setattr(monoid, "markov_monoid", replacement)
    assert prostochastic.markov_monoid is replacement


def test_importing_the_package_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(prostochastic.__file__))
    script = ("import json, sys; import prostochastic; "
              "print(json.dumps(sorted(m for m in sys.modules "
              "if m == 'numpy' or m.startswith('prostochastic'))))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["prostochastic"]
