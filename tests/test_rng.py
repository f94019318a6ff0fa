"""Deterministic RNG: cross-checked against an independent pure-python oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semcorrupt.rng import GOLDEN, MASK64, Stream, below_rows, box_muller, derive_seed, mix64

from reference import RefStream, ref_derive_seed, ref_mix64, ref_permutation, ref_seed_with_word


# ---------------------------------------------------------------------------
# raw word stream


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**63, 2**64 - 1])
def test_words_match_oracle(seed):
    s, r = Stream(seed), RefStream(seed)
    for _ in range(200):
        assert s.next_u64() == r.next_u64()


def test_mix64_matches_oracle():
    for x in [0, 1, GOLDEN, MASK64, 0xDEADBEEF, 2**63 + 12345]:
        assert mix64(x) == ref_mix64(x)


def test_state_advances_by_fixed_increment():
    s = Stream(10)
    s.next_u64()
    t = Stream((10 + GOLDEN) & MASK64)
    assert s.next_u64() == t.next_u64()


def test_seeds_wrap_modulo_2_64():
    a, b = Stream(5), Stream(5 + 2**64)
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]


# ---------------------------------------------------------------------------
# uniforms


def test_uniform_matches_oracle_and_unit_interval():
    s, r = Stream(99), RefStream(99)
    for _ in range(500):
        u, v = s.uniform(), r.uniform()
        assert u == v
        assert 0.0 <= u < 1.0


def test_uniform_resolution_is_53_bits():
    # the low 11 bits of the word must not influence the float
    word = Stream(3).next_u64()
    assert Stream(3).uniform() == (word >> 11) * 2.0**-53


def test_uniforms_vectorized_equals_sequential():
    for seed in (0, 42, 777):
        batch = Stream(seed).uniforms(257)
        s = Stream(seed)
        one_by_one = np.array([s.uniform() for _ in range(257)])
        assert batch.dtype == np.float64
        assert np.array_equal(batch, one_by_one)


def test_uniforms_zero_count():
    s = Stream(5)
    assert s.uniforms(0).shape == (0,)
    # drawing nothing must not advance the stream
    assert s.next_u64() == Stream(5).next_u64()


def test_uniforms_negative_count_raises():
    s = Stream(5)
    with pytest.raises(ValueError, match="count >= 0"):
        s.uniforms(-3)
    # a refused count leaves the stream where it was
    assert s.uniform() == Stream(5).uniform()


# ---------------------------------------------------------------------------
# bounded integers


def test_below_matches_oracle():
    s, r = Stream(1234), RefStream(1234)
    bounds = [1, 2, 3, 5, 7, 16, 100, 2**33]
    for i in range(300):
        n = bounds[i % len(bounds)]
        assert s.below(n) == r.below(n)


def test_below_in_range():
    s = Stream(8)
    for n in (1, 2, 3, 10, 1000):
        for _ in range(200):
            assert 0 <= s.below(n) < n


def test_below_one_consumes_nothing():
    s = Stream(21)
    assert s.below(1) == 0
    assert s.next_u64() == Stream(21).next_u64()


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Stream(0).below(0)
    with pytest.raises(ValueError):
        Stream(0).below(-3)


def ref_below_row(seed: int, bounds: list) -> list:
    ref = RefStream(seed)
    return [ref.below(b) for b in bounds]


@given(st.lists(st.integers(-(2**65), 2**65), min_size=1, max_size=6),
       st.lists(st.integers(2, 2**63), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_below_rows_match_oracle(seeds, bounds):
    got = below_rows(seeds, bounds)
    assert got.dtype == np.int64
    assert got.tolist() == [ref_below_row(s, bounds) for s in seeds]


# no bound is a power of two, so each rejects the word 2**64 - 1
REJECTING_BOUNDS = [3, 12, 5, 2**63 - 1, 7, 1000, 2**40 + 1, 6]


@pytest.mark.parametrize("column", range(len(REJECTING_BOUNDS)))
def test_below_rows_redraw_rejected_row(column):
    crafted = ref_seed_with_word(MASK64, column + 1)
    seeds = [0, crafted, -5, 2**64 + 3]
    got = below_rows(seeds, REJECTING_BOUNDS)
    assert got.tolist() == [ref_below_row(s, REJECTING_BOUNDS) for s in seeds]
    # the crafted row rejects one word, so its draws take one word more
    ref = RefStream(crafted)
    assert [ref.below(b) for b in REJECTING_BOUNDS] == got[1].tolist()
    assert ref.state == (crafted + (len(REJECTING_BOUNDS) + 1) * GOLDEN) & MASK64


def test_below_rows_empty_bounds_draw_nothing():
    assert below_rows([3, -1], []).shape == (2, 0)


@pytest.mark.parametrize("bad", [1, 0])
def test_below_rows_reject_bounds_below_two(bad):
    with pytest.raises(ValueError):
        below_rows([7], [5, bad, 3])


def test_below_roughly_uniform():
    s = Stream(5)
    counts = np.bincount([s.below(3) for _ in range(30000)], minlength=3)
    freqs = counts / 30000
    assert np.all(np.abs(freqs - 1 / 3) < 0.02)


# ---------------------------------------------------------------------------
# shuffling


def test_shuffle_matches_oracle():
    for seed in (0, 9, 758, 4242):
        for n in (0, 1, 2, 5, 17):
            items = list(range(n))
            Stream(seed).shuffle(items)
            assert items == ref_permutation(n, seed)


def test_shuffle_is_a_permutation():
    items = list(range(50))
    Stream(3).shuffle(items)
    assert sorted(items) == list(range(50))
    assert items != list(range(50))  # astronomically unlikely to be identity


# ---------------------------------------------------------------------------
# normals


def normals(seed: int, count: int) -> np.ndarray:
    """``count`` normals of the stream seeded ``seed``: box_muller on its
    uniform pairs, an odd count dropping the last pair's second half."""
    return box_muller(Stream(seed).uniforms(2 * ((count + 1) // 2)))[:count]


def test_normals_match_oracle():
    for seed in (0, 11, 202):
        for count in (0, 1, 2, 3, 8, 33):
            got = normals(seed, count)
            want = np.array(RefStream(seed).normals(count))
            assert got.shape == (count,)
            assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_normals_moments():
    x = normals(13, 40000)
    assert abs(x.mean()) < 0.02
    assert abs(x.std() - 1.0) < 0.02


# ---------------------------------------------------------------------------
# seed derivation


def test_derive_seed_matches_oracle():
    cases = [(0,), (1, 2), (2, 1), (1, 2, 3), (7, 0, 0, 9), (2**64 - 1, 5)]
    for parts in cases:
        assert derive_seed(*parts) == ref_derive_seed(*parts)


def test_derive_seed_sensitivity():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(1, 2) != derive_seed(1, 2, 0)
    assert derive_seed(1) != derive_seed(1, 0)
    assert derive_seed(0) != derive_seed()


def test_derive_seed_accepts_negative_parts():
    # negative ints are folded into the 64-bit ring, not rejected
    assert derive_seed(-1) == derive_seed(2**64 - 1)


def test_streams_from_derived_seeds_diverge():
    a = Stream(derive_seed(5, 0)).uniforms(4)
    b = Stream(derive_seed(5, 1)).uniforms(4)
    assert not np.array_equal(a, b)
