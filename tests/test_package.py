import importlib

import pytest

import dephrasure


def _module_of(name):
    return importlib.import_module(f"dephrasure.{dephrasure._EXPORTS[name]}")


def test_every_export_is_its_submodules_object_and_listed():
    assert sorted(dephrasure.__all__) == sorted(dephrasure._EXPORTS)
    listed = dir(dephrasure)
    for name in dephrasure.__all__:
        assert getattr(dephrasure, name) is getattr(_module_of(name), name)
        assert name in listed
    assert "__version__" in listed


def test_an_unknown_name_raises_and_a_submodule_still_imports():
    with pytest.raises(AttributeError, match=r"^module 'dephrasure' has no attribute 'nope'$"):
        dephrasure.nope
    assert not hasattr(dephrasure, "nope")
    from dephrasure import codes

    assert codes is importlib.import_module("dephrasure.codes")
    assert dephrasure.pso is importlib.import_module("dephrasure.pso")


def test_a_rebinding_in_the_submodule_shows_through_the_package(monkeypatch):
    # as perfbench's tracer rebinds a traced function where it is defined
    from dephrasure import qinfo

    original = qinfo.binary_entropy
    assert dephrasure.binary_entropy is original

    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(qinfo, "binary_entropy", wrapped)
    assert dephrasure.binary_entropy is wrapped
    monkeypatch.undo()
    assert dephrasure.binary_entropy is original


def test_no_access_stores_an_export_in_the_package_namespace():
    def callables():
        return {key: value for key, value in vars(dephrasure).items() if callable(value)}

    before = callables()
    for name in dephrasure.__all__:
        getattr(dephrasure, name)
    from dephrasure import SUITES, von_neumann_entropy  # noqa: F401

    assert callables() == before
    assert not set(vars(dephrasure)) & set(dephrasure.__all__)
