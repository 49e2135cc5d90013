"""Reference estimators and exact oracles to benchmark the unbiased scheme.

* ``mc1_estimate`` -- mean of per-path reward maxima.  It estimates
  E[max_k f(k, X_k)], which upper-bounds the stopping value (the max peeks
  at the whole path), so its bias is one-sided and usually visible.  It is
  the arity-1 case of ``mc2_estimate``.
* ``mc2_estimate`` -- a forest of fixed-arity trees reduced by backward
  induction; nested averaging shrinks the bias but the estimator stays
  biased at any finite arity.
* ``gaussian_dp_oracle`` / ``discrete_dp_oracle`` -- exact values for the
  two process families where the dynamic program closes in closed form or
  by finite enumeration.  These anchor every statistical acceptance test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._cephes import erfc
from .processes import ProcessSpec, USER_DISCRETE, check_int, compile_stepper
from .rewards import RewardSpec, compile_reward
from .streams import as_generator

_ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class TreeSpec:
    """Forest geometry for the nested baseline: ``forest_size`` trees of
    branching factor ``arity``, each as deep as the process horizon."""

    arity: int
    forest_size: int

    def __post_init__(self):
        for name in ("arity", "forest_size"):
            check_int(getattr(self, name), name)


def mc1_estimate(process: ProcessSpec, reward_spec: RewardSpec, n_paths: int, stream) -> float:
    """Mean over ``n_paths`` simulated paths of max_k f(k, X_k).

    This is ``mc2_estimate`` on a forest of ``n_paths`` arity-1 trees: each
    tree is one path, and its backward reduction is the path maximum.
    """
    check_int(n_paths, "n_paths")
    return mc2_estimate(process, reward_spec, TreeSpec(1, n_paths), stream)


def mc2_forest(process: ProcessSpec, reward_spec: RewardSpec, tree: TreeSpec, stream) -> np.ndarray:
    """Per-tree nested estimates; ``mc2_estimate`` is their mean.

    Each tree draws one root state, then ``arity`` children per node down to
    the horizon.  Continuation values average max(reward, continuation) over
    each node's children; the tree estimate is max(root reward, root
    continuation).  With arity 1 each tree is one path, drawn stage by stage
    as ``simulate_paths`` draws it, and the reduction collapses to the path
    maximum: ``mc1_estimate`` is this case.
    """
    gen = as_generator(stream)
    step = compile_stepper(process)
    rew = compile_reward(reward_spec)
    arity, depth, forest = tree.arity, process.horizon, tree.forest_size

    # forward pass: level s holds forest * arity^(s-1) states; keep only rewards
    rewards = []
    states = step(1, None, forest, gen)
    rewards.append(np.asarray(rew(1, states), dtype=float))
    for s in range(2, depth + 1):
        states = step(s, (states, arity), states.shape[0] * arity, gen)
        rewards.append(np.asarray(rew(s, states), dtype=float))

    # backward pass: average max(reward, continuation) over siblings
    if depth == 1:
        return rewards[0]
    cont = rewards[-1].reshape(-1, arity).mean(axis=1)
    for s in range(depth - 1, 1, -1):
        cont = np.maximum(rewards[s - 1], cont).reshape(-1, arity).mean(axis=1)
    return np.maximum(rewards[0], cont)


def mc2_estimate(process: ProcessSpec, reward_spec: RewardSpec, tree: TreeSpec, stream) -> float:
    return float(mc2_forest(process, reward_spec, tree, stream).mean())


def _std_normal_cdf(c: float) -> float:
    return 0.5 * erfc(-c / math.sqrt(2.0))


def _std_normal_pdf(c: float) -> float:
    return math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)


def gaussian_dp_oracle(horizon: int) -> float:
    """Exact stopping value for iid standard normals with identity reward.

    One backward-induction step maps the tail value c to
    E[max(Z, c)] = c * Phi(c) + phi(c); iterating from U_1 = 0 gives U_T.
    Deterministic and accurate to near machine precision.
    """
    check_int(horizon, "horizon")
    u = 0.0
    for _ in range(horizon - 1):
        u = u * _std_normal_cdf(u) + _std_normal_pdf(u)
    return u


def discrete_dp_oracle(process: ProcessSpec, reward_spec: RewardSpec) -> float:
    """Exact stopping value of a UserDiscrete chain by full tree enumeration.

    Deliberately unmemoized -- the walk visits every path so it cannot share
    any structure with the estimator it validates.  Refuses instances whose
    path count exceeds the enumeration budget.
    """
    if process.kind != USER_DISCRETE:
        raise ValueError("exact enumeration is only available for UserDiscrete processes")
    m = len(process.support)
    if m**process.horizon > _ENUMERATION_BUDGET:
        raise ValueError(
            f"enumeration over {m}^{process.horizon} paths exceeds the budget of {_ENUMERATION_BUDGET}"
        )
    rew = compile_reward(reward_spec)
    support_col = np.asarray(process.support, dtype=float)[:, None]
    fval = [np.asarray(rew(s, support_col), dtype=float) for s in range(1, process.horizon + 1)]
    init = np.asarray(process.transitions[0], dtype=float)
    mats = [np.asarray(t, dtype=float) for t in process.transitions[1:]]
    horizon = process.horizon

    def expected(stage: int, row) -> float:
        # value of entering stage `stage` with transition law `row`
        total = 0.0
        for j in range(m):
            p = row[j]
            if p == 0.0:
                continue
            f = fval[stage - 1][j]
            if stage == horizon:
                total += p * f
            else:
                total += p * max(f, expected(stage + 1, mats[stage - 1][j]))
        return total

    return expected(1, init)
