import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musemc.processes import (
    EMPTY_HISTORY,
    ProcessSpec,
    TrajectoryHistory,
    compile_stepper,
    gaussian_iid,
    gbm,
    process_spec_from_dict,
    sample_next,
    simulate_paths,
    user_discrete,
    validate_history,
)
from musemc.streams import derive_substream


def stream(*path, seed=0):
    return derive_substream(seed, path)


# ---------------------------------------------------------------- gaussian


def test_gaussian_sample_shape_and_mean():
    spec = gaussian_iid(horizon=3, dimension=2)
    draws = sample_next(spec, EMPTY_HISTORY, 3, stream(0))
    assert draws.shape == (3, 2)
    big = sample_next(gaussian_iid(horizon=2), EMPTY_HISTORY, 1_000_000, stream(1))
    assert abs(big.mean()) < 0.005


def test_gaussian_ignores_history():
    spec = gaussian_iid(horizon=3)
    hist = EMPTY_HISTORY.extended([4.2])
    a = sample_next(spec, hist, 5, stream(2))
    b = sample_next(spec, EMPTY_HISTORY, 5, stream(2))
    assert np.array_equal(a, b)


# --------------------------------------------------------------------- gbm


def test_gbm_zero_volatility_is_deterministic():
    spec = gbm(dimension=1, horizon=2, gamma=0.05, div_yield=0.0, sigma=0.0, spot=100.0, times=(1.0, 2.0))
    hist = EMPTY_HISTORY.extended([100.0])
    nxt = sample_next(spec, hist, 4, stream(3))
    assert nxt.shape == (4, 1)
    assert np.allclose(nxt, 100.0 * math.exp(0.05), rtol=0, atol=1e-9)
    assert np.unique(nxt).size == 1


def test_gbm_stage_one_mean_and_log_variance():
    # x0=100, gamma=0.05, sigma=0.2, dt=1: E[X_1] = 100 e^0.05, Var(ln X_1) = 0.04
    spec = gbm(dimension=1, horizon=3, gamma=0.05, div_yield=0.0, sigma=0.2, spot=100.0, times=(1.0, 2.0, 3.0))
    x1 = sample_next(spec, EMPTY_HISTORY, 1_000_000, stream(4))
    assert abs(x1.mean() - 100.0 * math.exp(0.05)) < 0.1
    assert abs(np.log(x1).var(ddof=1) - 0.04) < 0.001


def test_gbm_dividend_yield_shifts_drift():
    spec = gbm(dimension=1, horizon=1, gamma=0.05, div_yield=0.05, sigma=0.0, spot=50.0, times=(2.0,))
    x1 = sample_next(spec, EMPTY_HISTORY, 1, stream(5))
    # drift gamma - div - sigma^2/2 = 0: the deterministic path stays flat
    assert np.allclose(x1, 50.0 * math.exp(-0.0), rtol=0, atol=1e-12)


def test_gbm_zero_length_first_step_pins_stage_one():
    spec = gbm(dimension=2, horizon=2, gamma=0.1, div_yield=0.0, sigma=0.3, spot=100.0, times=(0.0, 1.0))
    paths = simulate_paths(spec, 6, stream(6))
    assert np.array_equal(paths[:, 0, :], np.full((6, 2), 100.0))
    assert not np.array_equal(paths[:, 1, :], paths[:, 0, :])


def test_gbm_coordinates_are_independent():
    spec = gbm(dimension=2, horizon=1, gamma=0.0, div_yield=0.0, sigma=0.2, spot=100.0, times=(1.0,))
    x = sample_next(spec, EMPTY_HISTORY, 200_000, stream(7))
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
    draws = sample_next(spec, EMPTY_HISTORY, 100_000, stream(8))[:, 0]
    for value, p in zip((1.0, 2.0, 5.0), (0.2, 0.5, 0.3)):
        assert abs((draws == value).mean() - p) < 0.01


def test_discrete_conditional_row_frequencies():
    spec = user_discrete(
        (0.0, 1.0),
        ((0.5, 0.5), ((0.9, 0.1), (0.25, 0.75))),
    )
    hist = EMPTY_HISTORY.extended([1.0])
    draws = sample_next(spec, hist, 100_000, stream(9))[:, 0]
    assert abs((draws == 0.0).mean() - 0.25) < 0.01


def test_discrete_unsorted_support_lookup():
    # support deliberately out of order: the conditional draw must still
    # resolve each parent to its own transition row
    spec = user_discrete(
        (3.0, 1.0, 2.0),
        ((0.0, 1.0, 0.0), ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))),
    )
    hist = EMPTY_HISTORY.extended([1.0])
    nxt = sample_next(spec, hist, 50, stream(10))
    assert np.all(nxt == 2.0)
    hist2 = EMPTY_HISTORY.extended([2.0])
    assert np.all(sample_next(spec, hist2, 50, stream(11)) == 1.0)


def test_discrete_parent_outside_support_rejected():
    spec = user_discrete((0.0, 1.0), ((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0))))
    with pytest.raises(ValueError):
        sample_next(spec, EMPTY_HISTORY.extended([0.5]), 3, stream(12))


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


def test_history_bookkeeping():
    hist = EMPTY_HISTORY.extended([1.0]).extended([2.0])
    assert hist.stage == 2
    assert np.array_equal(hist.last(), [2.0])
    assert EMPTY_HISTORY.last() is None
    assert EMPTY_HISTORY.stage == 0


def test_validate_history_errors():
    spec = gaussian_iid(horizon=2, dimension=2)
    with pytest.raises(ValueError):
        validate_history(spec, EMPTY_HISTORY.extended([1.0]))  # wrong dimension
    with pytest.raises(ValueError):
        validate_history(spec, TrajectoryHistory((np.zeros(2),) * 3))  # beyond horizon
    with pytest.raises(ValueError):
        validate_history(spec, EMPTY_HISTORY.extended([float("inf"), 0.0]))


def test_sample_next_guards():
    spec = gaussian_iid(horizon=1)
    with pytest.raises(ValueError):
        sample_next(spec, EMPTY_HISTORY, 0, stream(13))
    full = EMPTY_HISTORY.extended([0.0])
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
        np.broadcast_to(np.array([parent]), (count, 1)),  # one parent, repeated as a view
        np.repeat(np.array([[parent]]), count, axis=0),  # the same parent, copied
        mixed,  # every support point as a parent
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
            assert step(stage, np.array([[parent]]), 1, _FixedUniforms([0.0])).tolist() == [[1.0]]


def test_discrete_stepper_rejects_an_out_of_support_parent():
    spec = user_discrete((3.0, 1.0, 2.0), ((1.0, 0.0, 0.0), ((1.0, 0.0, 0.0),) * 3))
    step = compile_stepper(spec)
    for bad in ([[2.0], [2.5]], [[4.0]], [[0.0]], [[float("nan")]]):
        parents = np.array(bad)
        with pytest.raises(ValueError, match="not in the process support"):
            step(2, parents, len(bad), _FixedUniforms(np.full(len(bad), 0.5)))
