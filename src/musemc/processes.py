"""Conditional simulators for the discrete-time processes the estimators run on.

Three process kinds ship:

* ``GaussianIID`` -- each stage is an independent standard normal vector,
  so the conditional law never depends on the history.
* ``GBM`` -- ``dimension`` independent geometric Brownian motions sampled
  exactly at a fixed calendar-time grid (one time per stage).
* ``UserDiscrete`` -- a scalar finite-support chain given by an initial law
  and one row-stochastic transition matrix per later stage.  Small enough
  chains admit exact enumeration, which is what makes end-to-end unbiasedness
  checks possible.

Everything here is stateless after construction: randomness enters only
through explicitly passed streams, and all draws conditional on a history
depend on the history only through its last state and the stage index
(every shipped kind is Markov; a non-Markov process would need a stepper
keyed on more of the history, which ``sample_next`` deliberately receives
in full).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .streams import as_generator, check_int, spec_from_dict

GAUSSIAN_IID = "GaussianIID"
GBM = "GBM"
USER_DISCRETE = "UserDiscrete"
_KINDS = (GAUSSIAN_IID, GBM, USER_DISCRETE)

_PROB_TOL = 1e-12

# The GBM fields a config may omit, and the values they take then; the CLI's flags default to them too.
GBM_DEFAULTS = {"dimension": 1, "gamma": 0.05, "div_yield": 0.0}


@dataclass(frozen=True)
class ProcessSpec:
    """Immutable description of a simulatable process.

    ``times`` maps stage ``s`` (1-based) to calendar time ``times[s-1]``;
    the first step runs from ``start_time`` to ``times[0]``, and a
    zero-length first step makes stage 1 deterministic at ``spot``.
    For ``UserDiscrete``, ``transitions[0]`` is the initial probability
    vector over ``support`` and ``transitions[k]`` for ``k >= 1`` is the
    row-stochastic matrix used to draw stage ``k+1`` from stage ``k``.
    """

    kind: str
    dimension: int
    horizon: int
    # GBM parameters
    gamma: float = 0.0
    div_yield: float = 0.0
    sigma: float = 0.0
    spot: float = 0.0
    times: tuple[float, ...] = ()
    start_time: float = 0.0
    # UserDiscrete parameters
    support: tuple[float, ...] = ()
    transitions: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}; expected one of {_KINDS}")
        check_int(self.horizon, "horizon")
        check_int(self.dimension, "dimension")
        if self.kind == GBM:
            self._validate_gbm()
        elif self.kind == USER_DISCRETE:
            self._validate_discrete()

    def _validate_gbm(self):
        params = (self.gamma, self.div_yield, self.sigma, self.spot, self.start_time)
        if not all(math.isfinite(p) for p in params):
            raise ValueError("GBM parameters must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.spot <= 0:
            raise ValueError("spot must be positive")
        if len(self.times) != self.horizon:
            raise ValueError(f"times must have one entry per stage ({self.horizon}), got {len(self.times)}")
        if not all(math.isfinite(t) for t in self.times):
            raise ValueError("times must be finite")
        grid = (self.start_time,) + tuple(self.times)
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError("times must be nondecreasing from start_time")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing after the first stage")

    def _validate_discrete(self):
        if self.dimension != 1:
            raise ValueError("UserDiscrete processes are scalar (dimension 1)")
        m = len(self.support)
        if m == 0:
            raise ValueError("support must be nonempty")
        if not all(math.isfinite(v) for v in self.support):
            raise ValueError("support values must be finite")
        if len(set(self.support)) != m:
            raise ValueError("support values must be distinct")
        if len(self.transitions) != self.horizon:
            raise ValueError(f"transitions must have one entry per stage ({self.horizon}), got {len(self.transitions)}")
        init = np.asarray(self.transitions[0], dtype=float)
        if init.shape != (m,):
            raise ValueError(f"transitions[0] must be the initial law over {m} support points")
        _check_stochastic(init[None, :], "transitions[0]")
        for k in range(1, self.horizon):
            mat = np.asarray(self.transitions[k], dtype=float)
            if mat.shape != (m, m):
                raise ValueError(f"transitions[{k}] must be a {m}x{m} matrix, got shape {mat.shape}")
            _check_stochastic(mat, f"transitions[{k}]")


def _check_stochastic(rows: np.ndarray, label: str):
    if not np.isfinite(rows).all():
        raise ValueError(f"{label} must be finite")
    if (rows < 0).any():
        raise ValueError(f"{label} must be nonnegative")
    bad = np.abs(rows.sum(axis=1) - 1.0) > _PROB_TOL
    if bad.any():
        raise ValueError(f"{label} rows must sum to 1 within {_PROB_TOL}")


def gaussian_iid(horizon: int, dimension: int = 1) -> ProcessSpec:
    """Stages of independent standard normal vectors."""
    return ProcessSpec(kind=GAUSSIAN_IID, dimension=dimension, horizon=horizon)


def gbm(
    dimension: int,
    horizon: int,
    gamma: float,
    div_yield: float,
    sigma: float,
    spot: float,
    times,
    start_time: float = 0.0,
) -> ProcessSpec:
    """Independent geometric Brownian motions on a calendar grid."""
    return ProcessSpec(
        kind=GBM,
        dimension=dimension,
        horizon=horizon,
        gamma=gamma,
        div_yield=div_yield,
        sigma=sigma,
        spot=spot,
        times=tuple(float(t) for t in times),
        start_time=float(start_time),
    )


def user_discrete(support, transitions) -> ProcessSpec:
    """Finite-support scalar chain; horizon is the number of transition entries."""
    transitions = tuple(
        tuple(row) if k == 0 else tuple(tuple(r) for r in row) for k, row in enumerate(transitions)
    )
    return ProcessSpec(
        kind=USER_DISCRETE,
        dimension=1,
        horizon=len(transitions),
        support=tuple(float(v) for v in support),
        transitions=transitions,
    )


def validate_history(spec: ProcessSpec, history: tuple):
    """Check a realized prefix ``(x_1, ..., x_k)``, whose stage is its length ``k``, state by state."""
    if len(history) > spec.horizon:
        raise ValueError(f"history has stage {len(history)} beyond horizon {spec.horizon}")
    for s, state in enumerate(history, start=1):
        arr = np.asarray(state, dtype=float)
        if arr.shape != (spec.dimension,):
            raise ValueError(f"history state at stage {s} has shape {arr.shape}, expected ({spec.dimension},)")
        if not np.isfinite(arr).all():
            raise ValueError(f"history state at stage {s} is not finite")


def _history_parent(spec: ProcessSpec, history: tuple, first: int = 0):
    """Check that ``history`` is a valid prefix whose stage lies in ``[first, horizon)``.

    Returns its last state as a ``(1, dimension)`` row, or ``None`` at stage 0.
    """
    validate_history(spec, history)
    stage = len(history)
    if not first <= stage <= spec.horizon - 1:
        raise ValueError(f"stage must lie in [{first}, {spec.horizon - 1}], got {stage}")
    return None if stage == 0 else np.asarray(history[-1], dtype=float)[None, :]


def compile_stepper(spec: ProcessSpec):
    """Build ``step(stage, parents, count, gen) -> (count, dimension)`` draws.

    ``parents`` is ``None`` at stage 1, else one pair ``(states, repeats)``:
    draw i's parent is row i of ``np.repeat(states, repeats, axis=0)``, with
    ``repeats`` an int or one int per state.  Draws are independent given
    their parents, which only the stepper expands.  This is the single
    primitive every estimator and baseline consumes; keeping one compiled
    closure per spec avoids re-dispatching on the kind inside hot loops.
    """
    if spec.kind == GAUSSIAN_IID:
        d = spec.dimension

        def step(stage, parents, count, gen):
            return gen.standard_normal((count, d))

        return step

    if spec.kind == GBM:
        d = spec.dimension
        spot = spec.spot
        grid = (spec.start_time,) + tuple(spec.times)
        dts = np.diff(grid)
        drift = spec.gamma - spec.div_yield - 0.5 * spec.sigma**2
        sigma = spec.sigma

        def step(stage, parents, count, gen):
            dt = dts[stage - 1]
            if parents is None and dt == 0.0:  # only the first step may have zero length
                return np.full((count, d), spot)
            base = spot if parents is None else np.repeat(*parents, axis=0)
            # in place, in the order of base * exp(drift * dt + sigma * sqrt(dt) * z),
            # so the draws are bit-identical to that formula without its temporaries
            z = gen.standard_normal((count, d))
            z *= sigma * math.sqrt(dt)
            z += drift * dt
            np.exp(z, out=z)
            z *= base
            return z

        return step

    # UserDiscrete: the child index counts the cumulative transition entries
    # at or below u (searchsorted's side="right"), so a zero-probability
    # state is never drawn, not even at u = 0.0.  Only the first m - 1
    # entries count: they are nondecreasing, so the count stops at m - 1
    # even when a row's sum ends below 1.  Each parent state resolves to its
    # sorted-support position by m - 1 compares, and the count runs over
    # contiguous columns permuted into that order here, once.  Stage 1
    # counts the same way, as if every draw had one parent at position 0
    # whose row is the initial law.  Both counts add in the narrowest type
    # that holds m - 1 (cheaper adds) and widen to intp before indexing (a
    # narrow index gathers slowly).
    support = np.asarray(spec.support, dtype=float)
    small = np.min_scalar_type(support.size - 1)
    order = np.argsort(support)
    sorted_support = support[order]
    cum_init = np.cumsum(np.asarray(spec.transitions[0], dtype=float))[:-1]
    cum_cols = [list(cum_init[:, None])] + [  # stage 1's columns are the initial law's entries
        [np.ascontiguousarray(col) for col in np.cumsum(np.asarray(mat, dtype=float), axis=1)[order, :-1].T]
        for mat in spec.transitions[1:]
    ]

    def step(stage, parents, count, gen):
        u = gen.random(count)
        pos = np.zeros(1, dtype=np.intp)  # stage 1: one parent, at position 0, for every draw
        if parents is not None:
            states, repeats = parents
            values = states[:, 0]
            pos = np.zeros(values.size, dtype=small)
            for s in sorted_support[:-1]:
                pos += s < values
            pos = pos.astype(np.intp)
            if not np.array_equal(sorted_support[pos], values):
                raise ValueError("state value not in the process support")
            if pos.size > 1:  # a lone state's position broadcasts against every u
                pos = np.repeat(pos, repeats)
        idx = np.zeros(count, dtype=small)
        for col in cum_cols[stage - 1]:
            idx += col[pos] <= u
        return support[idx.astype(np.intp)][:, None]

    return step


def sample_next(spec: ProcessSpec, history: tuple, count: int, stream) -> np.ndarray:
    """Draw ``count`` iid successors of ``history``; shape ``(count, dimension)``.

    Conditioning is on the full realized prefix; for the shipped kinds the
    law only depends on the last state and the stage.
    """
    check_int(count, "count")
    parent = _history_parent(spec, history)
    parents = None if parent is None else (parent, count)
    return compile_stepper(spec)(len(history) + 1, parents, count, as_generator(stream))


def simulate_paths(spec: ProcessSpec, n_paths: int, stream) -> np.ndarray:
    """Simulate full trajectories; shape ``(n_paths, horizon, dimension)``.

    Path ``i`` restricted to its first stages has the same law as a shorter
    simulation -- stages are drawn forward one at a time.
    """
    check_int(n_paths, "n_paths")
    gen = as_generator(stream)
    step = compile_stepper(spec)
    out = np.empty((n_paths, spec.horizon, spec.dimension))
    for s in range(1, spec.horizon + 1):
        out[:, s - 1, :] = step(s, None if s == 1 else (out[:, s - 2, :], 1), n_paths, gen)
    return out


def _gaussian_from_dict(data):
    return gaussian_iid(horizon=data["horizon"], dimension=data.get("dimension", 1))


def _gbm_from_dict(data):
    times = data["times"]
    return gbm(
        dimension=data.get("dimension", GBM_DEFAULTS["dimension"]),
        horizon=data.get("horizon", len(times)),
        gamma=float(data.get("gamma", GBM_DEFAULTS["gamma"])),
        div_yield=float(data.get("div_yield", GBM_DEFAULTS["div_yield"])),
        sigma=float(data["sigma"]),
        spot=float(data["spot"]),
        times=times,
        start_time=float(data.get("start_time", 0.0)),
    )


def _discrete_from_dict(data):
    chain = user_discrete(data["support"], data["transitions"])
    # re-validated with a given horizon or dimension, so one that is not the
    # transition count and 1, or is not an integer (2.0, True), is refused
    return replace(chain, horizon=data.get("horizon", chain.horizon), dimension=data.get("dimension", 1))


def process_spec_from_dict(data: dict) -> ProcessSpec:
    """Build a ProcessSpec from a JSON-style object (see README for fields) with ``streams.spec_from_dict``;
    every field ``asdict`` writes reads back."""
    builders = {"gaussianiid": _gaussian_from_dict, "gaussian": _gaussian_from_dict, "gbm": _gbm_from_dict,
                "userdiscrete": _discrete_from_dict, "discrete": _discrete_from_dict}
    return spec_from_dict(data, ProcessSpec, builders, "process")
