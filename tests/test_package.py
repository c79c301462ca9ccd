"""The package's public surface."""

import unsteer


def test_every_exported_name_resolves():
    """Each name in __all__ exists, and a star import binds all of them."""
    missing = [name for name in unsteer.__all__ if not hasattr(unsteer, name)]
    assert missing == []
    namespace: dict = {}
    exec("from unsteer import *", namespace)
    assert set(unsteer.__all__) <= set(namespace)
