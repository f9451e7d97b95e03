"""Every exported name resolves: a stale ``__all__`` entry left behind by a
deletion fails here instead of in a user's star-import."""

import pkgutil

import pytest

import greyimpute

MODULES = ["greyimpute"] + sorted(
    f"greyimpute.{info.name}" for info in pkgutil.iter_modules(greyimpute.__path__)
)


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    # a star-import raises AttributeError on any name in __all__ that the
    # module does not define
    exec(f"from {module} import *", {})
