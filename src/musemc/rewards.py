"""Stage-indexed reward functions f(k, x).

Two kinds ship: ``Identity`` (the scalar state itself, for Gaussian and
discrete experiments) and ``BasketPut`` (a discounted put on the arithmetic
mean of the coordinates).  Rewards are deterministic, vectorize over
states, and never mutate anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import spec_from_dict

IDENTITY = "Identity"
BASKET_PUT = "BasketPut"
_KINDS = (IDENTITY, BASKET_PUT)


@dataclass(frozen=True)
class RewardSpec:
    """Reward parameters; ``times`` maps stage k to the discounting time t_k."""

    kind: str
    strike: float = 0.0
    discount: float = 0.0
    times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == BASKET_PUT:
            if not (math.isfinite(self.strike) and self.strike > 0):
                raise ValueError("strike must be positive")
            if not (math.isfinite(self.discount) and self.discount >= 0):
                raise ValueError("discount rate must be nonnegative")
            if len(self.times) == 0:
                raise ValueError("BasketPut requires a stage-to-time map")
            if not all(math.isfinite(t) for t in self.times):
                raise ValueError("times must be finite")


def identity_reward() -> RewardSpec:
    return RewardSpec(kind=IDENTITY)


def basket_put(strike: float, discount: float, times) -> RewardSpec:
    return RewardSpec(kind=BASKET_PUT, strike=float(strike), discount=float(discount), times=tuple(float(t) for t in times))


def compile_reward(spec: RewardSpec):
    """Build ``rew(stage, states) -> (n,)`` for ``states`` of shape (n, d)."""
    if spec.kind == IDENTITY:

        def rew(stage, states):
            return states[:, 0]

        return rew

    strike = spec.strike
    discount = spec.discount
    times = spec.times

    def rew(stage, states):
        factor = math.exp(-discount * times[stage - 1])
        return factor * np.maximum(0.0, strike - states.mean(axis=1))

    return rew


def reward(spec: RewardSpec, stage: int, state) -> float:
    """Evaluate f(stage, state) for a single state vector."""
    x = np.atleast_1d(np.asarray(state, dtype=float))
    if spec.kind == IDENTITY and x.shape[0] != 1:
        raise ValueError("Identity reward requires dimension 1")
    if spec.kind == BASKET_PUT and not (1 <= stage <= len(spec.times)):
        raise ValueError(f"stage {stage} outside the reward time map (1..{len(spec.times)})")
    return float(compile_reward(spec)(stage, x[None, :])[0])


def _basket_put_from_dict(data):
    return basket_put(data["strike"], data.get("discount", 0.0), data["times"])


def reward_spec_from_dict(data: dict) -> RewardSpec:
    """Build a RewardSpec from a JSON-style object with ``streams.spec_from_dict``: an ``identity``, or a
    ``basket-put`` (alias ``put``) with ``strike``, ``times`` and ``discount`` (default 0)."""
    builders = {"identity": lambda data: identity_reward(), "basketput": _basket_put_from_dict, "put": _basket_put_from_dict}
    return spec_from_dict(data, RewardSpec, builders, "reward")
