import numpy as np
import pytest
from scipy import stats

from musemc.streams import RandomStream, as_generator, as_stream, derive_substream


def test_same_key_same_draws():
    a = RandomStream(42, (7, 3)).generator.random(100)
    b = RandomStream(42, (7, 3)).generator.random(100)
    assert np.array_equal(a, b)


def test_generator_is_cached():
    s = RandomStream(0)
    assert s.generator is s.generator


def test_child_composes_with_direct_path():
    # deriving a then b must be the same stream as deriving (a, b) at once
    root = RandomStream(123)
    nested = root.child(5).child(9).generator.random(50)
    direct = RandomStream(123, (5, 9)).generator.random(50)
    assert np.array_equal(nested, direct)
    assert np.array_equal(nested, derive_substream(123, (5, 9)).generator.random(50))


def test_child_with_multiple_indices():
    assert RandomStream(1).child(2, 3).path == (2, 3)


def test_distinct_paths_disagree():
    a = derive_substream(0, (0,)).generator.random(32)
    b = derive_substream(0, (1,)).generator.random(32)
    c = derive_substream(1, (0,)).generator.random(32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sibling_streams_look_independent():
    """Two-sample KS test on sibling substreams should not reject."""
    a = derive_substream(2024, (0,)).generator.standard_normal(10_000)
    b = derive_substream(2024, (1,)).generator.standard_normal(10_000)
    assert stats.ks_2samp(a, b).pvalue > 0.001


def test_negative_master_seed_rejected():
    with pytest.raises(ValueError):
        RandomStream(-1)


def test_float_and_bool_keys_are_refused_not_truncated():
    for make in (
        lambda: RandomStream(2.5),
        lambda: RandomStream(True),
        lambda: RandomStream(7, (1, -1)),
        lambda: derive_substream(7, (1.9,)),
        lambda: RandomStream(7).child(1.9),
        lambda: RandomStream(7).child(False),
    ):
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            make()
    with pytest.raises(ValueError, match="master_seed"):
        as_stream(True)
    stream = RandomStream(np.int64(7), (np.int32(1),)).child(np.uint8(2))
    assert (stream.master_seed, stream.path) == (7, (1, 2))
    assert all(type(key) is int for key in (stream.master_seed, *stream.path))


def test_as_generator_accepts_all_forms():
    from_stream = as_generator(RandomStream(9))
    from_int = as_generator(9)
    assert np.array_equal(from_stream.random(8), from_int.random(8))
    gen = np.random.default_rng(3)
    assert as_generator(gen) is gen


def test_as_generator_rejects_other_types():
    with pytest.raises(TypeError):
        as_generator("seed")


def test_as_stream_takes_an_int_or_a_stream_only():
    stream = RandomStream(9, (2,))
    assert as_stream(stream) is stream
    root = as_stream(np.int64(9))
    assert (root.master_seed, root.path) == (9, ())
    for bad in (3.7, "seed", np.random.default_rng(3), None):
        with pytest.raises(TypeError):
            as_stream(bad)


def test_repr_mentions_key():
    assert "master_seed=5" in repr(RandomStream(5, (1,)))
    assert "(1,)" in repr(RandomStream(5, (1,)))
