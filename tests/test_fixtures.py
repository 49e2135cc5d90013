import numpy as np
import pytest

from musemc.fixtures import (
    deterministic_chain,
    mixing_three_stage,
    skewed_three_stage,
    two_point_two_stage,
)
from musemc.processes import simulate_paths
from musemc.streams import derive_substream


def test_fixture_shapes():
    assert two_point_two_stage().horizon == 2
    assert skewed_three_stage().horizon == 3
    assert mixing_three_stage().horizon == 3
    for fixture in (two_point_two_stage(), skewed_three_stage(), mixing_three_stage()):
        assert fixture.kind == "UserDiscrete"
        assert fixture.dimension == 1


def test_two_point_transition_structure():
    chain = two_point_two_stage()
    paths = simulate_paths(chain, 5000, derive_substream(0, (100,)))
    x1 = paths[:, 0, 0]
    x2 = paths[:, 1, 0]
    assert set(np.unique(x1)) <= {0.0, 2.0}
    # the second stage always moves one unit away from the first
    assert np.all(np.abs(x2 - x1) == 1.0)


def test_deterministic_chain_visits_the_given_values():
    chain = deterministic_chain((3.0, 1.0, 4.0))
    paths = simulate_paths(chain, 7, derive_substream(0, (101,)))
    assert np.array_equal(paths[:, :, 0], np.tile([3.0, 1.0, 4.0], (7, 1)))


def test_deterministic_chain_with_repeats():
    chain = deterministic_chain((2.0, 2.0))
    paths = simulate_paths(chain, 3, derive_substream(0, (102,)))
    assert np.all(paths == 2.0)


def test_deterministic_chain_needs_values():
    with pytest.raises(ValueError):
        deterministic_chain(())
