"""The package namespace: lazy exports that are the submodules' own objects."""

import sys

import pytest

import charclasses


def test_every_export_resolves_to_the_object_its_submodule_defines():
    names = [name for name in charclasses.__all__ if name != "__version__"]
    assert names
    for name in names:
        value = getattr(charclasses, name)
        owner = value.__module__
        assert owner.startswith("charclasses."), name
        assert sys.modules[owner].__dict__[name] is value, name
        assert name in dir(charclasses)
    assert "__version__" in dir(charclasses)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from charclasses import *", namespace)
    assert set(charclasses.__all__) <= set(namespace)
    assert namespace["kappa"] is sys.modules["charclasses.bundles"].kappa


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as info:
        charclasses.no_such_name
    assert str(info.value) == "module 'charclasses' has no attribute 'no_such_name'"
    assert not hasattr(charclasses, "no_such_name")
