"""The package namespace: every public name loads lazily from its submodule."""

import importlib

import pytest

import riordan


def test_all_is_the_export_table():
    assert riordan.__all__ == list(riordan._EXPORTS)


@pytest.mark.parametrize("name", riordan.__all__)
def test_name_is_the_submodule_object(name):
    module = importlib.import_module(f"riordan.{riordan._EXPORTS[name]}")
    assert getattr(riordan, name) is getattr(module, name)


def test_dir_lists_names_not_yet_loaded(monkeypatch):
    for name in riordan.__all__:  # forget the names earlier accesses cached
        monkeypatch.delitem(vars(riordan), name, raising=False)
    assert set(riordan.__all__) <= set(dir(riordan))


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(riordan, "no_such_name")
    assert not hasattr(riordan, "no_such_name")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from riordan import *", namespace)
    assert all(namespace[name] is getattr(riordan, name) for name in riordan.__all__)
