import doctest
import types

import robsat
from robsat import robustness


def test_module_doctests():
    result = doctest.testmod(robustness)
    assert result.failed == 0
    assert result.attempted >= 2


def test_robustness_attribute_is_the_module():
    """The package does not rebind the submodule name to its function."""
    assert isinstance(robsat.robustness, types.ModuleType)
    assert robsat.robustness is robustness
    assert robustness.robustness.__module__ == "robsat.robustness"
