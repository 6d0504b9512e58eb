"""Every name a package advertises in ``__all__`` must actually import, so a
re-export left behind by a deletion fails tier-1 instead of an example."""

import importlib

import pytest

PACKAGES = ("repro", "repro.core", "repro.bench")


@pytest.mark.parametrize(
    "package, name",
    [(pkg, name) for pkg in PACKAGES for name in importlib.import_module(pkg).__all__],
)
def test_advertised_name_is_importable(package, name):
    module = importlib.import_module(package)
    assert hasattr(module, name), f"{package}.__all__ lists missing name {name!r}"

