"""The package's public names: `from roarbench import *` imports every
name `__all__` lists, so each must resolve on the package."""

import roarbench


def test_every_exported_name_resolves():
    missing = [name for name in roarbench.__all__
               if not hasattr(roarbench, name)]
    assert not missing, f"roarbench.__all__ lists absent names {missing}"
    assert len(set(roarbench.__all__)) == len(roarbench.__all__)
