import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from musemc.baselines import (
    TreeSpec,
    discrete_dp_oracle,
    gaussian_dp_oracle,
    mc1_estimate,
    mc2_estimate,
    mc2_forest,
)
from musemc.fixtures import (
    deterministic_chain,
    mixing_three_stage,
    skewed_three_stage,
    two_point_two_stage,
)
from musemc.processes import gaussian_iid, gbm, simulate_paths, user_discrete
from musemc.rewards import basket_put, compile_reward, identity_reward
from musemc.streams import derive_substream


def stream(*path, seed=0):
    return derive_substream(seed, path)


# ---------------------------------------------------------- gaussian oracle


def test_gaussian_oracle_degenerate_and_exact_values():
    assert gaussian_dp_oracle(1) == 0.0
    # U_2 = E|Z|/2 = 1/sqrt(2 pi) in closed form
    assert abs(gaussian_dp_oracle(2) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15


def test_gaussian_oracle_matches_quadrature():
    """Re-derive the recursion with numerical integration of E[max(Z, c)]."""
    u = 0.0
    phi = stats.norm.pdf
    for horizon in range(2, 8):
        left = integrate.quad(lambda z, c=u: c * phi(z), -np.inf, u)[0]
        right = integrate.quad(lambda z: z * phi(z), u, np.inf)[0]
        u = left + right
        assert abs(gaussian_dp_oracle(horizon) - u) < 1e-8


def test_gaussian_oracle_strictly_increasing():
    values = [gaussian_dp_oracle(t) for t in range(1, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_gaussian_oracle_guards():
    with pytest.raises(ValueError):
        gaussian_dp_oracle(0)


# ---------------------------------------------------------- discrete oracle


def _exact_value(process, payoff):
    """Independent exact-rational dynamic program over the chain."""
    support = process.support
    init = [Fraction(p).limit_denominator(10**12) for p in np.asarray(process.transitions[0], dtype=float)]
    mats = [
        [[Fraction(p).limit_denominator(10**12) for p in row] for row in np.asarray(m, dtype=float)]
        for m in process.transitions[1:]
    ]

    def tail(stage, j):
        f = Fraction(payoff(stage, support[j])).limit_denominator(10**12)
        if stage == process.horizon:
            return f
        cont = sum(mats[stage - 1][j][i] * tail(stage + 1, i) for i in range(len(support)))
        return max(f, cont)

    return sum(init[j] * tail(1, j) for j in range(len(support)))


@pytest.mark.parametrize(
    "factory,expected",
    [
        (two_point_two_stage, Fraction(1)),
        (skewed_three_stage, Fraction(81, 40)),
        (mixing_three_stage, Fraction(15, 16)),
    ],
)
def test_discrete_oracle_on_fixtures(factory, expected):
    chain = factory()
    exact = _exact_value(chain, lambda stage, x: x)
    assert exact == expected
    assert abs(discrete_dp_oracle(chain, identity_reward()) - float(expected)) < 1e-12


def test_discrete_oracle_on_deterministic_chains():
    assert discrete_dp_oracle(deterministic_chain((5.0, 1.0)), identity_reward()) == 5.0
    assert discrete_dp_oracle(deterministic_chain((1.0, 5.0)), identity_reward()) == 5.0
    assert discrete_dp_oracle(deterministic_chain((2.0, 3.0, 1.0)), identity_reward()) == 3.0


def test_discrete_oracle_guards():
    with pytest.raises(ValueError):
        discrete_dp_oracle(gaussian_iid(horizon=2), identity_reward())
    wide = user_discrete(
        tuple(float(v) for v in range(10)),
        ((0.1,) * 10,) + (tuple((0.1,) * 10 for _ in range(10)),) * 7,
    )
    with pytest.raises(ValueError):  # 10^8 paths exceeds the enumeration budget
        discrete_dp_oracle(wide, identity_reward())


# ------------------------------------------------------------------ MC1


def test_mc1_two_branch_average():
    # X1 uniform on {1, 3}; X2 is 2 after 1 and 0 after 3: path maxima 2 and 3
    chain = user_discrete(
        (0.0, 1.0, 2.0, 3.0),
        (
            (0.0, 0.5, 0.0, 0.5),
            ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
        ),
    )
    got = mc1_estimate(chain, identity_reward(), 40_000, stream(50))
    assert abs(got - 2.5) < 0.02


def test_mc1_deterministic_chain_is_exact():
    chain = deterministic_chain((1.0, 2.0))
    assert mc1_estimate(chain, identity_reward(), 100, stream(51)) == 2.0


def test_mc1_single_stage_is_plain_monte_carlo():
    chain = deterministic_chain((4.0,))
    assert mc1_estimate(chain, identity_reward(), 64, stream(52)) == 4.0


def test_mc1_overestimates_the_stopping_value():
    """Path maxima peek at the future: E[max_k Z_k] = 3/(2 sqrt(pi)) at T = 3."""
    proc = gaussian_iid(horizon=3)
    got = mc1_estimate(proc, identity_reward(), 100_000, stream(53))
    # independent anchor for E[max of three standard normals]
    anchor = 3.0 / (2.0 * math.sqrt(math.pi))
    assert abs(got - anchor) < 0.012  # ~5 standard errors
    assert got > gaussian_dp_oracle(3) + 0.15


def test_mc1_guards():
    proc = gaussian_iid(horizon=3)
    with pytest.raises(ValueError):
        mc1_estimate(proc, identity_reward(), 0, stream(54))


# ------------------------------------------------------------------ MC2


def test_mc2_arity_one_is_mc1_exactly():
    proc = gaussian_iid(horizon=4)
    tree = TreeSpec(arity=1, forest_size=500)
    a = mc2_estimate(proc, identity_reward(), tree, stream(55))
    b = mc1_estimate(proc, identity_reward(), 500, stream(55))
    assert a == b


def test_mc1_is_the_mean_of_simulated_path_maxima():
    """Independent of the tree code: GBM d=2 basket-put maxima over ``simulate_paths`` on the same stream."""
    proc = gbm(dimension=2, horizon=3, gamma=0.05, div_yield=0.0, sigma=0.2, spot=100.0, times=(0.0, 1.0, 2.0))
    reward_spec = basket_put(strike=100.0, discount=0.05, times=proc.times)
    rew = compile_reward(reward_spec)
    paths = simulate_paths(proc, 3000, stream(62))
    maxima = np.max([rew(s, paths[:, s - 1, :]) for s in range(1, 4)], axis=0)
    assert mc1_estimate(proc, reward_spec, 3000, stream(62)) == float(maxima.mean())


def test_mc2_depth_one_is_plain_monte_carlo():
    proc = gaussian_iid(horizon=1)
    # forest size deliberately not divisible by the arity
    tree = TreeSpec(arity=5, forest_size=7)
    got = mc2_forest(proc, identity_reward(), tree, stream(56))
    want = derive_substream(0, (56,)).generator.standard_normal((7, 1))[:, 0]
    assert np.array_equal(got, want)


def test_mc2_point_mass_chain_is_exact():
    chain = deterministic_chain((1.0, 5.0, 2.0))
    tree = TreeSpec(arity=3, forest_size=10)
    assert mc2_estimate(chain, identity_reward(), tree, stream(57)) == 5.0


def test_mc2_forest_mean_is_the_estimate():
    proc = gaussian_iid(horizon=3)
    tree = TreeSpec(arity=4, forest_size=200)
    forest = mc2_forest(proc, identity_reward(), tree, stream(58))
    assert forest.shape == (200,)
    assert mc2_estimate(proc, identity_reward(), tree, stream(58)) == forest.mean()


def test_mc2_biased_high_but_less_than_mc1():
    proc = gaussian_iid(horizon=3)
    oracle = gaussian_dp_oracle(3)
    tree = TreeSpec(arity=5, forest_size=2000)
    forest = mc2_forest(proc, identity_reward(), tree, stream(59))
    se = forest.std(ddof=1) / math.sqrt(forest.size)
    assert forest.mean() > oracle  # nested averaging still biases upward
    mc1 = mc1_estimate(proc, identity_reward(), 2000 * (1 + 5 + 25) // 3, stream(60))
    assert abs(forest.mean() - oracle) < abs(mc1 - oracle)


def test_mc2_guards():
    for bad in (dict(arity=0, forest_size=10), dict(arity=2, forest_size=0)):
        with pytest.raises(ValueError):
            TreeSpec(**bad)
