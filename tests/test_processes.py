import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musemc.baselines import TreeSpec, mc2_forest
from musemc.fixtures import mixing_three_stage, skewed_three_stage, two_point_two_stage
from musemc.processes import (
    ProcessSpec,
    compile_stepper,
    gaussian_iid,
    gbm,
    process_spec_from_dict,
    sample_next,
    simulate_paths,
    user_discrete,
    validate_history,
)
from musemc.rewards import basket_put, identity_reward
from musemc.streams import derive_substream


def stream(*path, seed=0):
    return derive_substream(seed, path)


# ---------------------------------------------------------------- gaussian


def test_gaussian_sample_shape_and_mean():
    spec = gaussian_iid(horizon=3, dimension=2)
    draws = sample_next(spec, (), 3, stream(0))
    assert draws.shape == (3, 2)
    big = sample_next(gaussian_iid(horizon=2), (), 1_000_000, stream(1))
    assert abs(big.mean()) < 0.005


def test_gaussian_ignores_history():
    spec = gaussian_iid(horizon=3)
    hist = ([4.2],)
    a = sample_next(spec, hist, 5, stream(2))
    b = sample_next(spec, (), 5, stream(2))
    assert np.array_equal(a, b)


# --------------------------------------------------------------------- gbm


def test_gbm_zero_volatility_is_deterministic():
    spec = gbm(dimension=1, horizon=2, gamma=0.05, div_yield=0.0, sigma=0.0, spot=100.0, times=(1.0, 2.0))
    hist = ([100.0],)
    nxt = sample_next(spec, hist, 4, stream(3))
    assert nxt.shape == (4, 1)
    assert np.allclose(nxt, 100.0 * math.exp(0.05), rtol=0, atol=1e-9)
    assert np.unique(nxt).size == 1


def test_gbm_stage_one_mean_and_log_variance():
    # x0=100, gamma=0.05, sigma=0.2, dt=1: E[X_1] = 100 e^0.05, Var(ln X_1) = 0.04
    spec = gbm(dimension=1, horizon=3, gamma=0.05, div_yield=0.0, sigma=0.2, spot=100.0, times=(1.0, 2.0, 3.0))
    x1 = sample_next(spec, (), 1_000_000, stream(4))
    assert abs(x1.mean() - 100.0 * math.exp(0.05)) < 0.1
    assert abs(np.log(x1).var(ddof=1) - 0.04) < 0.001


def test_gbm_dividend_yield_shifts_drift():
    spec = gbm(dimension=1, horizon=1, gamma=0.05, div_yield=0.05, sigma=0.0, spot=50.0, times=(2.0,))
    x1 = sample_next(spec, (), 1, stream(5))
    # drift gamma - div - sigma^2/2 = 0: the deterministic path stays flat
    assert np.allclose(x1, 50.0 * math.exp(-0.0), rtol=0, atol=1e-12)


def test_gbm_zero_length_first_step_pins_stage_one():
    spec = gbm(dimension=2, horizon=2, gamma=0.1, div_yield=0.0, sigma=0.3, spot=100.0, times=(0.0, 1.0))
    paths = simulate_paths(spec, 6, stream(6))
    assert np.array_equal(paths[:, 0, :], np.full((6, 2), 100.0))
    assert not np.array_equal(paths[:, 1, :], paths[:, 0, :])


def test_gbm_coordinates_are_independent():
    spec = gbm(dimension=2, horizon=1, gamma=0.0, div_yield=0.0, sigma=0.2, spot=100.0, times=(1.0,))
    x = sample_next(spec, (), 200_000, stream(7))
    logs = np.log(x)
    corr = np.corrcoef(logs[:, 0], logs[:, 1])[0, 1]
    assert abs(corr) < 0.01


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sigma=-0.1),
        dict(spot=0.0),
        dict(spot=-5.0),
        dict(times=(2.0, 1.0)),
        dict(times=(1.0,)),          # wrong length for horizon 2
        dict(times=(1.0, 1.0)),      # repeated later stage
        dict(gamma=float("nan")),
    ],
)
def test_gbm_validation(kwargs):
    base = dict(dimension=1, horizon=2, gamma=0.05, div_yield=0.0, sigma=0.2, spot=100.0, times=(1.0, 2.0))
    base.update(kwargs)
    with pytest.raises(ValueError):
        gbm(**base)


def test_gbm_start_time_after_first_date_rejected():
    with pytest.raises(ValueError):
        gbm(dimension=1, horizon=1, gamma=0.0, div_yield=0.0, sigma=0.1, spot=1.0, times=(1.0,), start_time=2.0)


# ------------------------------------------------------------ user discrete


def test_discrete_initial_law_frequencies():
    spec = user_discrete((1.0, 2.0, 5.0), ((0.2, 0.5, 0.3),))
    draws = sample_next(spec, (), 100_000, stream(8))[:, 0]
    for value, p in zip((1.0, 2.0, 5.0), (0.2, 0.5, 0.3)):
        assert abs((draws == value).mean() - p) < 0.01


def test_discrete_conditional_row_frequencies():
    spec = user_discrete(
        (0.0, 1.0),
        ((0.5, 0.5), ((0.9, 0.1), (0.25, 0.75))),
    )
    hist = ([1.0],)
    draws = sample_next(spec, hist, 100_000, stream(9))[:, 0]
    assert abs((draws == 0.0).mean() - 0.25) < 0.01


def test_discrete_unsorted_support_lookup():
    # support deliberately out of order: the conditional draw must still
    # resolve each parent to its own transition row
    spec = user_discrete(
        (3.0, 1.0, 2.0),
        ((0.0, 1.0, 0.0), ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))),
    )
    hist = ([1.0],)
    nxt = sample_next(spec, hist, 50, stream(10))
    assert np.all(nxt == 2.0)
    hist2 = ([2.0],)
    assert np.all(sample_next(spec, hist2, 50, stream(11)) == 1.0)


def test_discrete_parent_outside_support_rejected():
    spec = user_discrete((0.0, 1.0), ((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0))))
    with pytest.raises(ValueError):
        sample_next(spec, ([0.5],), 3, stream(12))


@pytest.mark.parametrize(
    "support,transitions",
    [
        ((0.0, 0.0), ((0.5, 0.5),)),                       # duplicate support
        ((0.0, 1.0), ((0.6, 0.6),)),                       # initial law not stochastic
        ((0.0, 1.0), ((0.5, 0.5), ((1.0, 0.1), (0.0, 1.0)))),  # bad row sum
        ((0.0, 1.0), ((0.5, 0.5), ((1.0,), (0.0,)))),      # wrong matrix shape
        ((0.0, 1.0), ((-0.5, 1.5),)),                      # negative probability
        ((), ()),                                          # empty chain
    ],
)
def test_discrete_validation(support, transitions):
    with pytest.raises(ValueError):
        user_discrete(support, transitions)


def test_row_sum_tolerance_is_tight():
    # one part in 1e13 passes, one part in 1e10 does not
    user_discrete((0.0, 1.0), ((0.5 + 5e-14, 0.5),))
    with pytest.raises(ValueError):
        user_discrete((0.0, 1.0), ((0.5 + 1e-10, 0.5),))


# ------------------------------------------------------------ shared pieces


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ProcessSpec(kind="Brownian", dimension=1, horizon=2)


def test_bad_horizon_and_dimension():
    with pytest.raises(ValueError):
        gaussian_iid(horizon=0)
    with pytest.raises(ValueError):
        gaussian_iid(horizon=2, dimension=0)


def test_validate_history_errors():
    spec = gaussian_iid(horizon=2, dimension=2)
    with pytest.raises(ValueError):
        validate_history(spec, ([1.0],))  # wrong dimension
    with pytest.raises(ValueError):
        validate_history(spec, (np.zeros(2),) * 3)  # beyond horizon
    with pytest.raises(ValueError):
        validate_history(spec, ([float("inf"), 0.0],))


def test_sample_next_guards():
    spec = gaussian_iid(horizon=1)
    with pytest.raises(ValueError):
        sample_next(spec, (), 0, stream(13))
    full = ([0.0],)
    with pytest.raises(ValueError):
        sample_next(spec, full, 1, stream(14))


def test_simulate_paths_prefix_consistency():
    """A longer simulation restricted to its first stages matches a shorter one."""
    long = simulate_paths(gaussian_iid(horizon=4), 64, stream(15))
    short = simulate_paths(gaussian_iid(horizon=2), 64, stream(15))
    assert np.array_equal(long[:, :2, :], short)

    chain = user_discrete((0.0, 1.0), ((0.5, 0.5), ((0.5, 0.5), (0.5, 0.5)), ((1.0, 0.0), (0.0, 1.0))))
    two = user_discrete((0.0, 1.0), ((0.5, 0.5), ((0.5, 0.5), (0.5, 0.5))))
    assert np.array_equal(simulate_paths(chain, 32, stream(16))[:, :2, :], simulate_paths(two, 32, stream(16)))


def test_simulate_paths_guards():
    with pytest.raises(ValueError):
        simulate_paths(gaussian_iid(horizon=2), 0, stream(17))


# ----------------------------------------------------------------- loading


def test_process_spec_from_dict_variants():
    g = process_spec_from_dict({"kind": "gaussian-iid", "horizon": 3, "dimension": 2})
    assert g == gaussian_iid(horizon=3, dimension=2)

    b = process_spec_from_dict(
        {"kind": "GBM", "sigma": 0.2, "spot": 100, "gamma": 0.05, "times": [1, 2], "dimension": 5}
    )
    assert b.horizon == 2 and b.times == (1.0, 2.0)

    d = process_spec_from_dict(
        {"kind": "UserDiscrete", "support": [0, 1], "transitions": [[0.5, 0.5], [[1, 0], [0, 1]]]}
    )
    assert d.horizon == 2 and d.support == (0.0, 1.0)
    # what asdict records, written as JSON, reads back as the same spec
    for spec in (g, b, d):
        assert process_spec_from_dict(json.loads(json.dumps(asdict(spec)))) == spec


def test_process_spec_from_dict_errors():
    with pytest.raises(ValueError):
        process_spec_from_dict({"horizon": 2})
    with pytest.raises(ValueError):
        process_spec_from_dict({"kind": "poisson", "horizon": 2})
    with pytest.raises(ValueError, match=r"unknown process kind \['gbm'\]"):  # not read as the string "['gbm']"
        process_spec_from_dict({"kind": ["gbm"], "sigma": 0.2, "spot": 100, "times": [1, 2]})
    with pytest.raises(ValueError, match=r"unknown process config key\(s\): 'dimesion'"):
        process_spec_from_dict({"kind": "gaussian", "horizon": 3, "dimesion": 2})
    # a chain's horizon and dimension, when given, must be its transition count and 1
    chain = {"kind": "UserDiscrete", "support": [0, 1], "transitions": [[0.5, 0.5], [[1, 0], [0, 1]]]}
    with pytest.raises(ValueError, match=r"transitions must have one entry per stage \(7\), got 2"):
        process_spec_from_dict({**chain, "horizon": 7})
    with pytest.raises(ValueError, match="scalar"):
        process_spec_from_dict({**chain, "dimension": 2})
    assert process_spec_from_dict({**chain, "horizon": 2, "dimension": 1}) == process_spec_from_dict(chain)
    for field, value in (("horizon", 2.0), ("dimension", True)):  # equal to the recorded value, but no integer
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got {value}"):
            process_spec_from_dict({**chain, field: value})
    # a field the kind ignores is refused unless it holds the value the spec records
    with pytest.raises(ValueError, match=r"process config field 'sigma' is 5.0, but the GaussianIID spec records 0.0"):
        process_spec_from_dict({"kind": "gaussian", "horizon": 2, "sigma": 5.0})
    with pytest.raises(ValueError, match=r"process config field 'times' is \[1, 2\], but the GaussianIID spec records \(\)"):
        process_spec_from_dict({"kind": "gaussian", "horizon": 2, "times": [1, 2]})
    with pytest.raises(ValueError, match=r"process config field 'spot' is 100"):
        process_spec_from_dict({**chain, "spot": 100})
    assert process_spec_from_dict({"kind": "gaussian", "horizon": 2, "sigma": 0, "times": []}) == gaussian_iid(horizon=2)


@pytest.mark.parametrize("data", [5, [{"kind": "gaussian", "horizon": 2}], "gaussian"])
def test_process_spec_from_dict_refuses_a_non_object(data):
    with pytest.raises(ValueError, match=f"config 'process' must be a JSON object, got {type(data).__name__}"):
        process_spec_from_dict(data)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"kind": "gaussian", "horizon": 2.5}, "horizon"),
        ({"kind": "gaussian", "horizon": 3, "dimension": 1.9}, "dimension"),
        ({"kind": "gaussian", "horizon": True}, "horizon"),
        ({"kind": "gbm", "sigma": 0.2, "spot": 100, "times": [1, 2], "horizon": 2.0}, "horizon"),
        ({"kind": "gbm", "sigma": 0.2, "spot": 100, "times": [1, 2], "dimension": 2.5}, "dimension"),
    ],
)
def test_fractional_integer_fields_are_refused_not_truncated(data, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got"):
        process_spec_from_dict(data)


# ------------------------------------------------- discrete stepper equivalence


class _FixedUniforms:
    """A generator stand-in whose ``random(count)`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, count):
        assert count == self.u.size
        return self.u.copy()


def _gather_compare_sum(spec, stage, parents, u):
    """The reference draw: gather each parent's cumulative row, count the entries at or below u."""
    parents = np.repeat(*parents, axis=0)
    support = np.asarray(spec.support, dtype=float)
    order = np.argsort(support)
    m = support.size
    pos = np.clip(np.searchsorted(support[order], parents[:, 0]), 0, m - 1)
    idx = order[pos]
    assert np.array_equal(support[idx], parents[:, 0])
    rows = np.cumsum(np.asarray(spec.transitions[stage - 1], dtype=float), axis=1)[idx]
    return support[np.minimum((rows <= u[:, None]).sum(axis=1), m - 1)][:, None]


@st.composite
def _discrete_draws(draw):
    m = draw(st.integers(1, 6))
    support = draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m, unique=True))
    weights = st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any)
    # a row scaled by 1 - 5e-13 still passes validation, but its cumulative
    # sum ends below 1, so a u above it counts all m entries
    short = st.sampled_from([1.0, 1.0 - 5e-13])
    init = np.array(draw(weights), dtype=float)
    mats = []
    for _stage in (2, 3):
        mat = []
        for _ in range(m):
            row = np.array(draw(weights), dtype=float)
            mat.append(tuple(row / row.sum() * draw(short)))
        mats.append(tuple(mat))
    spec = user_discrete([float(v) for v in support], (tuple(init / init.sum()), *mats))
    cum = np.cumsum(np.array(mats), axis=2).ravel()
    near_one = np.nextafter(1.0, 0.0)
    pool = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, near_one, 1.0 - 1e-13, *cum.tolist()]))
    count = draw(st.integers(1, 40))
    u = np.array(draw(st.lists(pool, min_size=count, max_size=count)))
    return spec, u, draw(st.sampled_from(spec.support))


@given(_discrete_draws())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_discrete_stepper_matches_gather_compare_sum(case):
    spec, u, parent = case
    step = compile_stepper(spec)
    count = u.size
    mixed = np.repeat(np.array(spec.support)[:, None], -(-count // len(spec.support)), axis=0)[:count]
    for parents in (
        (np.array([[parent]]), count),  # one parent for every draw
        (np.repeat(np.array([[parent]]), count, axis=0), 1),  # the same parent, one row per draw
        (mixed, 1),  # every support point as a parent
    ):
        for stage in (2, 3):
            got = step(stage, parents, count, _FixedUniforms(u))
            want = _gather_compare_sum(spec, stage, parents, u)
            assert got.shape == (count, 1)
            assert got.tobytes() == want.tobytes()


def test_discrete_stepper_never_draws_a_zero_probability_state():
    """u = 0.0 falls on the zero cumulative entry of the row (0, 1), which counts, so state 1 is drawn.

    Stage 1 draws the same row the same way.
    """
    row = (0.0, 1.0)
    spec = user_discrete((0.0, 1.0), (row, (row, row), (row, row)))
    step = compile_stepper(spec)
    assert step(1, None, 1, _FixedUniforms([0.0])).tolist() == [[1.0]]
    for stage in (2, 3):
        for parent in (0.0, 1.0):
            assert step(stage, (np.array([[parent]]), 1), 1, _FixedUniforms([0.0])).tolist() == [[1.0]]


def test_discrete_stepper_rejects_an_out_of_support_parent():
    spec = user_discrete((3.0, 1.0, 2.0), ((1.0, 0.0, 0.0), ((1.0, 0.0, 0.0),) * 3))
    step = compile_stepper(spec)
    for bad in ([[2.0], [2.5]], [[4.0]], [[0.0]], [[float("nan")]]):
        states = np.array(bad)
        for repeats in (1, 3, np.arange(1, len(bad) + 1)):  # alone or among others, by an int or an array
            count = np.repeat(states, repeats, axis=0).shape[0]
            with pytest.raises(ValueError, match="not in the process support"):
                step(2, (states, repeats), count, _FixedUniforms(np.full(count, 0.5)))


_FIXTURE_CHAINS = (two_point_two_stage, skewed_three_stage, mixing_three_stage)
_STEPPER_KINDS = (
    lambda: gaussian_iid(horizon=3, dimension=2),
    lambda: gbm(2, 3, 0.05, 0.1, 0.2, 100.0, (1.0, 2.0, 3.0)),
    *_FIXTURE_CHAINS,
)


@st.composite
def _repeated_parents(draw):
    """A process, a stage after the first, its parent states, and repeats of each form the contract allows."""
    spec = draw(st.sampled_from(_STEPPER_KINDS))()
    stage = draw(st.integers(2, spec.horizon))
    form = draw(st.sampled_from(["int, one state", "int, several states", "array"]))
    rows = 1 if form == "int, one state" else draw(st.integers(2, 6))
    if spec.kind == "UserDiscrete":
        states = np.array(draw(st.lists(st.sampled_from(spec.support), min_size=rows, max_size=rows)))[:, None]
    else:
        value = st.floats(1.0, 200.0)
        states = np.array(draw(st.lists(st.lists(value, min_size=2, max_size=2), min_size=rows, max_size=rows)))
    if form == "array":
        repeats = np.array(draw(st.lists(st.sampled_from([1, 2, 4, 8, 64]), min_size=rows, max_size=rows)))
    else:
        repeats = draw(st.sampled_from([1, 2, 3, 1000]))
    return spec, stage, states, repeats


@given(_repeated_parents(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_repeated_parents_draw_as_their_expanded_rows(case, seed):
    """``(states, r)`` draws the bytes that the expanded rows ``(np.repeat(states, r, axis=0), 1)`` draw."""
    spec, stage, states, repeats = case
    step = compile_stepper(spec)
    expanded = np.repeat(states, repeats, axis=0)
    count = expanded.shape[0]
    got = step(stage, (states, repeats), count, np.random.default_rng(seed))
    want = step(stage, (expanded, 1), count, np.random.default_rng(seed))
    assert got.shape == (count, spec.dimension)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chain", _FIXTURE_CHAINS)
def test_discrete_stage_one_counts_the_initial_law(chain):
    """Stage 1 draws ``searchsorted(side="right")`` on the initial law's cumulative entries,
    at every edge uniform: 0.0, each cumulative entry, and the largest double below 1."""
    spec = chain()
    cum = np.cumsum(np.asarray(spec.transitions[0], dtype=float))
    u = np.array([0.0, *cum, np.nextafter(1.0, 0.0)])
    want = np.asarray(spec.support)[np.searchsorted(cum[:-1], u, side="right")][:, None]
    got = compile_stepper(spec)(1, None, u.size, _FixedUniforms(u))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "spec, reward, digest",
    [
        (gbm(2, 3, 0.05, 0.1, 0.2, 100.0, (1.0, 2.0, 3.0)), basket_put(100.0, 0.05, (1.0, 2.0, 3.0)),
         "59ffd6ea2ca747593778183caf56a2a7e99781db2b367e0630e868954a38717e"),
        (skewed_three_stage(), identity_reward(), "5784b50c914a27a70be62991f70de5cdae280749dc13d828ffb643f6b111079f"),
    ],
    ids=["gbm-d2", "skewed-three-stage"],
)
def test_library_draws_pinned_bytes(spec, reward, digest):
    """``simulate_paths``, ``sample_next`` from a stage-2 history and an arity-3
    ``mc2_forest`` draw these exact bytes at fixed seeds."""
    paths = simulate_paths(spec, 500, stream(80))
    h = hashlib.sha256(paths.tobytes())
    h.update(sample_next(spec, tuple(paths[0, :2]), 1000, stream(81)).tobytes())
    h.update(mc2_forest(spec, reward, TreeSpec(3, 100), stream(82)).tobytes())
    assert h.hexdigest() == digest
