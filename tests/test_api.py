"""The package's public names: ``scalebo.__all__`` lists only names that exist."""

import scalebo


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from scalebo import *", namespace)
    for name in scalebo.__all__:
        assert namespace[name] is getattr(scalebo, name)

