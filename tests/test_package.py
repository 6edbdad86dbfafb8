import pytest

import udmlab
from udmlab import circuits, dynamics, gates, linalg, maps, states


@pytest.mark.parametrize("module", [linalg, states, gates, dynamics, maps, circuits])
def test_package_reexports_each_public_name(module):
    for name in module.__all__:
        assert getattr(udmlab, name) is getattr(module, name), name
