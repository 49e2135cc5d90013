import math

import numpy as np
import pytest

from musemc.rewards import (
    RewardSpec,
    basket_put,
    compile_reward,
    identity_reward,
    reward,
    reward_spec_from_dict,
)


def test_identity_returns_the_state():
    assert reward(identity_reward(), 1, (-1.3,)) == -1.3
    assert reward(identity_reward(), 7, (0.0,)) == 0.0


def test_identity_rejects_vectors():
    with pytest.raises(ValueError):
        reward(identity_reward(), 1, (1.0, 2.0))


def test_basket_put_at_the_money_is_zero():
    spec = basket_put(strike=100.0, discount=0.05, times=(0.0, 1.0))
    assert reward(spec, 1, (100.0,)) == 0.0


def test_basket_put_discounted_payoff():
    # K=100, basket mean 90, t=1, rate 0.05 -> e^{-0.05} * 10
    spec = basket_put(strike=100.0, discount=0.05, times=(0.0, 1.0))
    assert reward(spec, 2, (90.0,)) == math.exp(-0.05) * 10.0


def test_basket_put_deep_out_of_the_money():
    spec = basket_put(strike=100.0, discount=0.05, times=(1.0,))
    assert reward(spec, 1, (150.0, 160.0)) == 0.0


def test_basket_put_averages_coordinates():
    spec = basket_put(strike=100.0, discount=0.0, times=(1.0,))
    # basket mean (80 + 120)/2 = 100 -> zero payoff; (60 + 100)/2 = 80 -> 20
    assert reward(spec, 1, (80.0, 120.0)) == 0.0
    assert reward(spec, 1, (60.0, 100.0)) == 20.0


def test_compiled_reward_matches_scalar_calls():
    spec = basket_put(strike=100.0, discount=0.07, times=(0.5, 1.5, 2.5))
    rew = compile_reward(spec)
    states = np.array([[95.0, 85.0], [101.0, 120.0], [50.0, 70.0]])
    batch = rew(2, states)
    assert batch.shape == (3,)
    for row, got in zip(states, batch):
        assert got == reward(spec, 2, row)


def test_reward_vectorization_never_mutates():
    spec = basket_put(strike=10.0, discount=0.0, times=(1.0,))
    states = np.array([[4.0], [11.0]])
    before = states.copy()
    compile_reward(spec)(1, states)
    assert np.array_equal(states, before)


def test_basket_put_stage_bounds():
    spec = basket_put(strike=100.0, discount=0.05, times=(1.0, 2.0))
    with pytest.raises(ValueError):
        reward(spec, 3, (90.0,))
    with pytest.raises(ValueError):
        reward(spec, 0, (90.0,))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(strike=0.0, discount=0.05, times=(1.0,)),
        dict(strike=-2.0, discount=0.05, times=(1.0,)),
        dict(strike=100.0, discount=-0.01, times=(1.0,)),
        dict(strike=100.0, discount=0.05, times=()),
        dict(strike=100.0, discount=0.05, times=(float("nan"),)),
    ],
)
def test_basket_put_validation(kwargs):
    with pytest.raises(ValueError):
        basket_put(**kwargs)


def test_unknown_reward_kind():
    with pytest.raises(ValueError):
        RewardSpec(kind="call")


def test_reward_spec_from_dict():
    assert reward_spec_from_dict({"kind": "identity"}) == identity_reward()
    spec = reward_spec_from_dict({"kind": "basket-put", "strike": 95, "discount": 0.02, "times": [1, 2]})
    assert spec == basket_put(95.0, 0.02, (1.0, 2.0))
    # "put" is accepted as an alias
    assert reward_spec_from_dict({"kind": "put", "strike": 95, "times": [1]}).strike == 95.0
    with pytest.raises(ValueError):
        reward_spec_from_dict({"strike": 95})
    with pytest.raises(ValueError):
        reward_spec_from_dict({"kind": "lookback"})
    with pytest.raises(ValueError, match=r"unknown reward kind \['put'\]"):  # not read as the string "['put']"
        reward_spec_from_dict({"kind": ["put"], "strike": 95, "times": [1]})
    with pytest.raises(ValueError, match=r"unknown reward config key\(s\): 'discunt'"):
        reward_spec_from_dict({"kind": "basket-put", "strike": 95, "discunt": 0.02, "times": [1, 2]})
    # a field the kind ignores is refused unless it holds the value the spec records
    with pytest.raises(ValueError, match="reward config field 'strike' is 90, but the Identity spec records 0.0"):
        reward_spec_from_dict({"kind": "identity", "strike": 90})
    assert reward_spec_from_dict({"kind": "identity", "strike": 0, "times": []}) == identity_reward()

