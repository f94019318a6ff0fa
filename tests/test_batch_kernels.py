"""Array kernels of the token path, against the scalar oracles.

Bag-of-n-gram hashing, batched n-gram shuffles, vectorized seed derivation
and long-list shuffles must give the bits of the documented scalar
definitions in ``reference.py``, including on the rare words that ``below``
rejects, which are forced here by inverting the SplitMix64 finalizer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semcorrupt.corruptions import (
    CorruptionSpec,
    SentencePair,
    TokenSeq,
    apply,
    apply_all,
    ngram_randomize,
    ngram_source,
)
from semcorrupt.errors import DispatchError
from semcorrupt.families import Dataset
from semcorrupt.learner import FeatureSpec, featurize
from semcorrupt.rng import Stream, derive_seeds
from semcorrupt.scams import corrupted_features

from reference import (
    MASK64,
    RefStream,
    ref_block_shuffle,
    ref_derive_preimage,
    ref_derive_seed,
    ref_ngram_bucket,
    ref_permutation,
    ref_seed_with_word,
)

token_ids = st.integers(min_value=0, max_value=2**63)
token_tuples = st.lists(token_ids, min_size=0, max_size=15).map(tuple)
seeds = st.integers(min_value=-(2**65), max_value=2**65)
pairs = st.builds(lambda p, h: SentencePair(TokenSeq(p), TokenSeq(h)), token_tuples, token_tuples)
specs = st.builds(FeatureSpec, st.just("bag_of_ngrams"), st.integers(1, 3),
                  st.integers(1, 70), st.sampled_from(("concat", "hypothesis_only")))
KERNEL = settings(max_examples=150, deadline=None)

# below(3) rejects exactly the word 2**64 - 1
REJECTED_FOR_3 = MASK64


def ref_bag(tokens: tuple, ngram: int, buckets: int) -> list:
    counts = [0.0] * buckets
    for n in range(1, ngram + 1):
        for i in range(len(tokens) - n + 1):
            counts[ref_ngram_bucket(tokens[i:i + n], buckets)] += 1.0
    return counts


def ref_row(spec: FeatureSpec, cov) -> list:
    if isinstance(cov, TokenSeq):
        return ref_bag(cov.tokens, spec.ngram, spec.buckets)
    hyp = ref_bag(cov.hypothesis.tokens, spec.ngram, spec.buckets)
    if spec.pair_mode == "hypothesis_only":
        return hyp
    return ref_bag(cov.premise.tokens, spec.ngram, spec.buckets) + hyp


def ref_shuffled(cov, n: int, seed: int, index: int):
    """apply(ngram_randomize) from the documented seed chain."""
    ex = ref_derive_seed(seed, index)
    if isinstance(cov, TokenSeq):
        return TokenSeq(ref_block_shuffle(cov.tokens, n, ref_derive_seed(ex, 0)))
    return SentencePair(
        TokenSeq(ref_block_shuffle(cov.premise.tokens, n, ref_derive_seed(ex, 0))),
        TokenSeq(ref_block_shuffle(cov.hypothesis.tokens, n, ref_derive_seed(ex, 1))),
    )


def dataset(covs) -> Dataset:
    return Dataset(covariates=list(covs), labels=np.zeros(len(covs), dtype=np.int64),
                   n_classes=2)


# ---------------------------------------------------------------------------
# seed derivation and long shuffles


@given(st.lists(seeds, min_size=0, max_size=4), st.lists(seeds, min_size=1, max_size=20))
@KERNEL
def test_derive_seeds_matches_scalar_chain(prefix, column):
    got = derive_seeds(*prefix, np.array([c & MASK64 for c in column], dtype=np.uint64), 3)
    assert got.tolist() == [ref_derive_seed(*prefix, c, 3) for c in column]


def test_derive_seeds_wraps_signed_arrays():
    rows = np.arange(-3, 3, dtype=np.int64)
    assert derive_seeds(-7, rows).tolist() == [ref_derive_seed(-7, int(r)) for r in rows]


@pytest.mark.parametrize("n", [31, 32, 33, 200, 1500])
def test_long_shuffle_matches_oracle_and_leaves_stream_in_place(n):
    for seed in (0, 5, 2**64 - 1):
        items, stream, ref = list(range(n)), Stream(seed), RefStream(seed)
        stream.shuffle(items)
        want = list(range(n))
        ref.shuffle(want)
        assert items == want
        assert stream.next_u64() == ref.next_u64()


@pytest.mark.parametrize("position", [1, 7])
def test_long_shuffle_falls_back_on_rejected_word(position):
    # the first 40-item draw is below(40), which rejects words from 2**64 - 16
    seed = ref_seed_with_word(MASK64, position)
    items, stream, ref = list(range(40)), Stream(seed), RefStream(seed)
    stream.shuffle(items)
    assert items == ref_permutation(40, seed)
    ref.shuffle(list(range(40)))
    assert stream.next_u64() == ref.next_u64()


# ---------------------------------------------------------------------------
# n-gram shuffles


@given(st.lists(st.tuples(token_tuples, seeds), min_size=1, max_size=12),
       st.integers(1, 5))
@KERNEL
def test_ngram_source_matches_block_shuffle(rows, n):
    seqs = [toks for toks, _ in rows]
    flat = [t for toks in seqs for t in toks]
    src = ngram_source(np.array([len(t) for t in seqs]), n,
                       np.array([s & MASK64 for _, s in rows], dtype=np.uint64))
    got = [flat[i] for i in src.tolist()]
    want = [t for toks, s in rows for t in ref_block_shuffle(toks, n, s)]
    assert got == want


@given(token_tuples, st.sampled_from((1, 2, 3, 5, 20)), seeds)
@KERNEL
def test_one_row_ngram_randomize_matches_block_shuffle(tokens, n, seed):
    assert ngram_randomize(TokenSeq(tokens), n, seed).tokens == ref_block_shuffle(tokens, n, seed)


@pytest.mark.parametrize("length,n,position", [(5, 2, 1), (3, 1, 1), (4, 1, 2), (8, 3, 2)])
def test_rejected_word_redrawn_by_scalar_stream(length, n, position):
    """The draw at ``position`` is below(3), which rejects 2**64 - 1."""
    seed = ref_seed_with_word(REJECTED_FOR_3, position)
    stream = RefStream(seed)
    for _ in range(position):
        word = stream.next_u64()
    assert word == REJECTED_FOR_3
    tokens = tuple(range(10, 10 + length))
    assert ngram_randomize(TokenSeq(tokens), n, seed).tokens == \
        ref_block_shuffle(tokens, n, seed)
    # the same row inside a batch of rows that draw normally
    lengths = np.array([length, length, length])
    seeds_ = np.array([1, seed, 2], dtype=np.uint64)
    src = ngram_source(lengths, n, seeds_).tolist()
    flat = tokens * 3
    got = [flat[i] for i in src]
    want = [t for s in (1, seed, 2) for t in ref_block_shuffle(tokens, n, s)]
    assert got == want


def test_rejected_word_in_the_redraw_path():
    """A spec seed chosen so example 1's hypothesis sub-seed is a rejection
    seed: corrupted_features and apply_all still match the oracle."""
    target = ref_seed_with_word(REJECTED_FOR_3, 1)
    spec_seed = ref_derive_preimage(ref_derive_preimage(target, 1), 1)
    assert ref_derive_seed(ref_derive_seed(spec_seed, 1), 1) == target
    covs = [SentencePair(TokenSeq((1, 2, 3, 4, 5)), TokenSeq((6, 7, 8, 9, 10)))] * 3
    spec = CorruptionSpec("ngram_randomize", 2, spec_seed)
    want = [ref_shuffled(c, 2, spec_seed, i) for i, c in enumerate(covs)]
    assert apply_all(spec, covs) == want
    fs = FeatureSpec("bag_of_ngrams", ngram=2, buckets=32)
    expect = np.array([ref_row(fs, c) for c in want])
    assert np.array_equal(corrupted_features(dataset(covs), spec, fs), expect)


# ---------------------------------------------------------------------------
# bag-of-n-gram features


@given(st.lists(pairs, min_size=1, max_size=10), specs)
@KERNEL
def test_featurize_pairs_matches_oracle_buckets(covs, spec):
    X = featurize(spec, covs)
    assert X.dtype == np.float64
    assert np.array_equal(X, np.array([ref_row(spec, c) for c in covs]))


@given(st.lists(token_tuples, min_size=1, max_size=10), specs)
@KERNEL
def test_featurize_lone_sequences_matches_oracle_buckets(seqs, spec):
    covs = [TokenSeq(t) for t in seqs]
    assert np.array_equal(featurize(spec, covs), np.array([ref_row(spec, c) for c in covs]))


def test_featurize_wraps_ids_beyond_64_bits():
    spec = FeatureSpec("bag_of_ngrams", ngram=2, buckets=50)
    big = TokenSeq((2**64 + 3, 2**70, 5))
    small = TokenSeq((3, 0, 5))
    assert np.array_equal(featurize(spec, [big]), np.array([ref_row(spec, big)]))
    assert np.array_equal(featurize(spec, [big]), featurize(spec, [small]))


def test_featurize_rejects_mixed_widths_and_grids():
    spec = FeatureSpec("bag_of_ngrams")
    with pytest.raises(DispatchError):
        featurize(spec, [TokenSeq((1,)), SentencePair(TokenSeq((1,)), TokenSeq((2,)))])
    with pytest.raises(DispatchError):
        featurize(spec, [(1.0, 2.0)])


# ---------------------------------------------------------------------------
# the batched redraw path


@given(st.lists(pairs, min_size=1, max_size=8), specs, st.integers(1, 5), seeds)
@KERNEL
def test_corrupted_features_matches_oracle(covs, fspec, n, seed):
    spec = CorruptionSpec("ngram_randomize", n, seed)
    want = np.array([ref_row(fspec, ref_shuffled(c, n, seed, i)) for i, c in enumerate(covs)])
    assert np.array_equal(corrupted_features(dataset(covs), spec, fspec), want)


@given(st.lists(st.one_of(pairs, token_tuples.map(TokenSeq)), min_size=1, max_size=8),
       st.integers(1, 5), seeds)
@KERNEL
def test_apply_all_matches_apply_and_oracle(covs, n, seed):
    spec = CorruptionSpec("ngram_randomize", n, seed)
    got = apply_all(spec, covs)
    assert got == [apply(spec, c, i) for i, c in enumerate(covs)]
    assert got == [ref_shuffled(c, n, seed, i) for i, c in enumerate(covs)]


def test_corrupted_features_keeps_lone_sequence_subseed():
    covs = [TokenSeq((4, 5, 6, 7)), TokenSeq((1, 2, 3))]
    spec = CorruptionSpec("ngram_randomize", 1, 11)
    fs = FeatureSpec("bag_of_ngrams", ngram=2, buckets=16)
    want = np.array([ref_row(fs, ref_shuffled(c, 1, 11, i)) for i, c in enumerate(covs)])
    assert np.array_equal(corrupted_features(dataset(covs), spec, fs), want)
