"""Array kernels of the token and grid paths, against the scalar oracles.

Bag-of-n-gram hashing, batched n-gram shuffles, vectorized seed derivation,
long-list shuffles and the grid corruption kernels must give the bits of
the documented scalar definitions in ``reference.py`` and of their one-row
calls, including on the rare words that ``below`` rejects, which are forced
here by inverting the SplitMix64 finalizer.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semcorrupt.corruptions import (
    GRID_CHUNK,
    CorruptionSpec,
    Grid,
    GridRows,
    SentencePair,
    TokenSeq,
    apply,
    apply_all,
    freq_filter,
    freq_filter_rows,
    gauss_noise,
    gauss_noise_rows,
    grid_rows,
    grid_values,
    intensity_filter,
    intensity_filter_rows,
    ngram_randomize,
    ngram_source,
    pair_rows,
    patch_randomize,
    patch_rows,
    roi_mask,
    roi_mask_rows,
)
from semcorrupt.errors import DispatchError
from semcorrupt import scams
from semcorrupt.families import Dataset, synthetic_image_task, synthetic_nli_task
from semcorrupt.harness import load_dataset, save_dataset
from semcorrupt.learner import FeatureSpec, NgramLayout, featurize
from semcorrupt.rng import Stream, derive_seed, derive_seeds
from semcorrupt.scams import FeatureStore, corrupted_features

from reference import (
    MASK64,
    RefStream,
    ref_block_shuffle,
    ref_derive_preimage,
    ref_derive_seed,
    ref_freq_filter,
    ref_gauss_noise,
    ref_nli_example,
    ref_ngram_bucket,
    ref_permutation,
    ref_seed_with_word,
)

token_ids = st.integers(min_value=0, max_value=2**63)
token_tuples = st.lists(token_ids, min_size=0, max_size=15).map(tuple)
seeds = st.integers(min_value=-(2**65), max_value=2**65)
pairs = st.builds(lambda p, h: SentencePair(TokenSeq(p), TokenSeq(h)), token_tuples, token_tuples)
specs = st.builds(FeatureSpec, st.just("bag_of_ngrams"), st.integers(1, 3), st.integers(1, 70))
KERNEL = settings(max_examples=150, deadline=None)

# below(3) rejects exactly the word 2**64 - 1
REJECTED_FOR_3 = MASK64


def ref_bag(tokens: tuple, ngram: int, buckets: int) -> list:
    counts = [0.0] * buckets
    for n in range(1, ngram + 1):
        for i in range(len(tokens) - n + 1):
            counts[ref_ngram_bucket(tokens[i:i + n], buckets)] += 1.0
    return counts


def ref_row(spec: FeatureSpec, pair: SentencePair) -> list:
    return (ref_bag(pair.premise.tokens, spec.ngram, spec.buckets)
            + ref_bag(pair.hypothesis.tokens, spec.ngram, spec.buckets))


def ref_shuffled(pair: SentencePair, n: int, seed: int, index: int) -> SentencePair:
    """apply(ngram_randomize) from the documented seed chain."""
    ex = ref_derive_seed(seed, index)
    return SentencePair(
        TokenSeq(ref_block_shuffle(pair.premise.tokens, n, ref_derive_seed(ex, 0))),
        TokenSeq(ref_block_shuffle(pair.hypothesis.tokens, n, ref_derive_seed(ex, 1))),
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
# NLI generation and the sentence-pair builder


def assert_nli_matches_reference(seed: int, n: int, rho: float, flip: bool) -> None:
    ds = synthetic_nli_task(rho, n, seed, flip)
    assert len(ds) == n
    for i, pair in enumerate(ds.covariates):
        y, z, premise, hyp = ref_nli_example(seed, i, rho, flip)
        assert (ds.labels[i], ds.nuisances[i]) == (y, z)
        assert (pair.premise.tokens, pair.hypothesis.tokens) == (premise, hyp)
        assert pair == SentencePair(TokenSeq(premise), TokenSeq(hyp))


@given(st.floats(0.0, 1.0), st.integers(0, 40), st.booleans(),
       st.one_of(st.integers(-(2**65), -1), st.integers(2**64, 2**66), seeds))
@KERNEL
def test_nli_examples_match_reference(rho, n, flip, seed):
    assert_nli_matches_reference(seed, n, rho, flip)


@pytest.mark.parametrize("index", [0, 5])
@pytest.mark.parametrize("position", [3, 4, 5, 6, 8, 9])
def test_nli_redraws_rejected_row(position, index):
    """Word ``position`` of example ``index`` is 2**64 - 1, which each of
    below(12), below(11), below(10), below(9) (words 3-6), below(7) (word
    8) and below(5) (word 9) rejects; below(8) (word 7) rejects none."""
    target = ref_seed_with_word(MASK64, position)
    seed = ref_derive_preimage(target, index)
    assert ref_derive_seed(seed, index) == target
    assert_nli_matches_reference(seed, 11, 0.8, position % 2 == 0)


def test_pair_rows_equal_validated_pairs():
    premises = [(1, 2, 3), (), (2**63, 7)]
    hypotheses = [(4,), (5, 6), ()]
    masks = [0, 9, 2**40]
    got = pair_rows(premises, hypotheses, masks)
    want = [SentencePair(TokenSeq(p, m), TokenSeq(h, m))
            for p, h, m in zip(premises, hypotheses, masks)]
    assert got == want
    assert [hash(g) for g in got] == [hash(w) for w in want]
    assert all(type(t) is int for g in got for t in g.premise.tokens + g.hypothesis.tokens)
    assert pair_rows([], [], []) == []


@pytest.mark.parametrize("premises,hypotheses,masks,message", [
    ([(1,), (2, -1)], [(), ()], [0, 0], "token ids must be non-negative"),
    ([(1,), (2,)], [(), (-3,)], [0, 0], "token ids must be non-negative"),
    ([(1,), (2,)], [(), ()], [0, -1], "mask id must be non-negative"),
])
def test_pair_rows_reject_negative_ids(premises, hypotheses, masks, message):
    with pytest.raises(ValueError, match=message):
        pair_rows(premises, hypotheses, masks)


# ---------------------------------------------------------------------------
# bag-of-n-gram features


@given(st.lists(pairs, min_size=1, max_size=10), specs)
@KERNEL
def test_featurize_pairs_matches_oracle_buckets(covs, spec):
    X = featurize(spec, covs)
    assert X.dtype == np.float64
    assert np.array_equal(X, np.array([ref_row(spec, c) for c in covs]))


def test_featurize_wraps_ids_beyond_64_bits():
    spec = FeatureSpec("bag_of_ngrams", ngram=2, buckets=50)
    big = SentencePair(TokenSeq((2**64 + 3, 2**70, 5)), TokenSeq((2**65 + 7, 1)))
    small = SentencePair(TokenSeq((3, 0, 5)), TokenSeq((7, 1)))
    assert np.array_equal(featurize(spec, [big]), np.array([ref_row(spec, big)]))
    assert np.array_equal(featurize(spec, [big]), featurize(spec, [small]))


def test_featurize_builds_no_window_longer_than_every_sentence():
    covs = [SentencePair(TokenSeq((4, 1, 9)), TokenSeq((2,))),
            SentencePair(TokenSeq(()), TokenSeq(())),
            SentencePair(TokenSeq((7, 7)), TokenSeq((3, 5, 3)))]
    long = FeatureSpec("bag_of_ngrams", ngram=10**4)
    assert len(NgramLayout(long, covs).windows) == 3
    assert np.array_equal(featurize(long, covs),
                          featurize(FeatureSpec("bag_of_ngrams", ngram=3), covs))


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


def test_store_ngram_draws_build_no_pairs(monkeypatch):
    """N-gram draws under bag-of-n-gram features count shuffled ids over the
    store's layout, never through apply_all, with the bytes of
    featurize(apply_all(...)) on every request."""
    ds = synthetic_nli_task(0.9, 50, 4)
    fs = FeatureSpec("bag_of_ngrams", ngram=3, buckets=32)
    specs = [CorruptionSpec("ngram_randomize", n, 5) for n in (1, 2, 4)]
    want = [featurize(fs, apply_all(spec, ds.covariates)).tobytes() for spec in specs]
    store = FeatureStore(ds, fs)
    monkeypatch.setattr(scams, "apply_all", None)
    for _ in range(2):
        for spec, expect in zip(specs, want):
            assert store.corrupted(spec).tobytes() == expect, spec


@given(st.lists(pairs, min_size=1, max_size=8), st.integers(1, 5), seeds)
@KERNEL
def test_apply_all_matches_apply_and_oracle(covs, n, seed):
    spec = CorruptionSpec("ngram_randomize", n, seed)
    got = apply_all(spec, covs)
    assert got == [apply(spec, c, i) for i, c in enumerate(covs)]
    assert got == [ref_shuffled(c, n, seed, i) for i, c in enumerate(covs)]


# ---------------------------------------------------------------------------
# grid kernels

grid_batches = st.builds(
    lambda rows, h, w, c, key: np.random.default_rng(key).random((rows, h, w, c)),
    st.integers(1, 5), st.integers(1, 9), st.integers(1, 9), st.integers(1, 3),
    st.integers(0, 2**32 - 1))
row_seeds = st.lists(seeds, min_size=5, max_size=5).map(
    lambda ss: np.array([s & MASK64 for s in ss], dtype=np.uint64))


def divisors(h: int, w: int) -> list:
    return [p for p in range(1, min(h, w) + 1) if h % p == 0 and w % p == 0]


def ref_patch_shuffle(values: np.ndarray, patch: int, seed: int) -> np.ndarray:
    """Output slot i takes input patch ref_permutation(...)[i], row-major."""
    h, w, _ = values.shape
    per_row = w // patch
    out = np.empty_like(values)
    for slot, src in enumerate(ref_permutation((h // patch) * per_row, seed)):
        (tr, tc), (sr, sc) = divmod(slot, per_row), divmod(src, per_row)
        out[tr * patch:(tr + 1) * patch, tc * patch:(tc + 1) * patch] = \
            values[sr * patch:(sr + 1) * patch, sc * patch:(sc + 1) * patch]
    return out


def grid_dataset(n: int, shape: tuple, key: int) -> Dataset:
    rng = np.random.default_rng(key)
    return dataset([Grid(rng.random(shape)) for _ in range(n)])


@given(grid_batches, row_seeds)
@KERNEL
def test_patch_rows_match_one_row_calls_and_oracle(values, seeds_):
    rows, h, w, _ = values.shape
    for patch in divisors(h, w):
        batch = patch_rows(values, patch, seeds_[:rows])
        for r in range(rows):
            one = patch_randomize(Grid(values[r]), patch, int(seeds_[r])).values
            assert batch[r].tobytes() == one.tobytes()
            assert np.array_equal(one, ref_patch_shuffle(values[r], patch, int(seeds_[r])))


def test_patch_rows_gathers_from_non_contiguous_views():
    values = np.random.default_rng(6).random((4, 6, 12, 3))
    stream_seeds = derive_seeds(2, np.arange(4))
    for view in (values[:, :, ::2], values.transpose(0, 2, 1, 3), values[::-1, 1:5]):
        assert not view.flags.c_contiguous
        got = patch_rows(view, 2, stream_seeds[:len(view)])
        want = [ref_patch_shuffle(v, 2, int(s)) for v, s in zip(view, stream_seeds)]
        assert got.tobytes() == np.array(want).tobytes()


def test_chunked_kernels_match_one_row_calls_on_non_contiguous_views():
    """freq_filter_rows and gauss_noise_rows step GRID_CHUNK rows at a
    time; rows on both sides of each step equal their one-row calls, and
    the read-only input is left as it was."""
    n = 2 * GRID_CHUNK + 5
    values = np.random.default_rng(10).random((n, 6, 10, 2))
    view = values[:, :, ::2]
    view.flags.writeable = False
    before = view.copy()
    stream_seeds = derive_seeds(3, np.arange(n))
    cases = [(freq_filter_rows(view, 2), lambda r: freq_filter(Grid(view[r]), 2)),
             (gauss_noise_rows(view, 0.01, stream_seeds),
              lambda r: gauss_noise(Grid(view[r]), 0.01, int(stream_seeds[r])))]
    for batch, one_row in cases:
        assert batch.shape == view.shape and batch.flags.c_contiguous
        for r in range(n):
            assert batch[r].tobytes() == one_row(r).values.tobytes()
    assert view.tobytes() == before.tobytes()


@given(grid_batches, row_seeds, st.sampled_from([0.0, 1e-4, 0.01, 0.5, 25.0]))
@KERNEL
def test_gauss_noise_rows_match_one_row_calls_and_oracle(values, seeds_, variance):
    rows = len(values)
    batch = gauss_noise_rows(values, variance, seeds_[:rows])
    assert batch.shape == values.shape and batch.dtype == np.float64
    for r in range(rows):
        one = gauss_noise(Grid(values[r]), variance, int(seeds_[r])).values
        assert batch[r].tobytes() == one.tobytes()
        want = ref_gauss_noise(values[r].ravel().tolist(), variance, int(seeds_[r]))
        assert np.allclose(one.ravel(), want, rtol=0, atol=1e-12)


@given(grid_batches, st.floats(0.0, 1.0))
@KERNEL
def test_deterministic_grid_kernels_match_one_row_calls(values, threshold):
    rows, h, w, _ = values.shape
    cases = [(roi_mask_rows, roi_mask, size) for size in range(min(h, w) + 1)]
    cases += [(freq_filter_rows, freq_filter, cutoff) for cutoff in range(min(h, w) + 1)]
    cases.append((intensity_filter_rows, intensity_filter, threshold))
    for kernel, one_row, param in cases:
        batch = kernel(values, param)
        assert batch.shape == values.shape and batch.dtype == np.float64
        for r in range(rows):
            assert batch[r].tobytes() == one_row(Grid(values[r]), param).values.tobytes()


@given(grid_batches.filter(lambda v: v.shape[1] * v.shape[2] <= 30), st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_freq_filter_rows_match_dft_oracle(values, cutoff):
    _, h, w, channels = values.shape
    cutoff = min(cutoff, h, w)
    out = freq_filter_rows(values, cutoff)
    for r in range(len(values)):
        for ch in range(channels):
            want = ref_freq_filter(values[r, :, :, ch].tolist(), cutoff)
            assert np.allclose(out[r, :, :, ch], np.array(want), atol=1e-9)


@pytest.mark.parametrize("index", [0, 3])
def test_patch_shuffle_redraws_rejected_row(index):
    """2x2 patches of a 4x6 grid draw below(6) .. below(2); the second word
    of example ``index``'s stream is 2**64 - 1, which below(5) rejects."""
    target = ref_seed_with_word(REJECTED_FOR_3, 2)
    spec_seed = ref_derive_preimage(target, index)
    assert ref_derive_seed(spec_seed, index) == target
    values = np.random.default_rng(5).random((5, 4, 6, 2))
    stream_seeds = np.array([ref_derive_seed(spec_seed, i) for i in range(5)], dtype=np.uint64)
    want = [ref_patch_shuffle(v, 2, int(s)) for v, s in zip(values, stream_seeds)]
    assert np.array_equal(patch_rows(values, 2, stream_seeds), np.array(want))
    grids = [Grid(v) for v in values]
    spec = CorruptionSpec("patch_randomize", 2, spec_seed)
    assert [g.values.tobytes() for g in apply_all(spec, grids)] == [w.tobytes() for w in want]
    fs = FeatureSpec("flatten_grid")
    assert np.array_equal(corrupted_features(dataset(grids), spec, fs),
                          np.array(want).reshape(5, -1))


KIND_PARAMS = [("identity", None), ("patch_randomize", 2), ("roi_mask", 3),
               ("freq_filter", 2), ("intensity_filter", 0.5), ("rand_crop", 0.5),
               ("gauss_noise", 0.01)]


@pytest.mark.parametrize("kind,param", KIND_PARAMS)
def test_corrupted_grid_features_span_chunks(kind, param):
    ds = grid_dataset(GRID_CHUNK + 7, (4, 6, 2), key=3)
    spec = CorruptionSpec(kind, param, 11)
    fs = FeatureSpec("flatten_grid")
    corrupted = apply_all(spec, ds.covariates)
    assert [g.values.tobytes() for g in corrupted] == \
        [apply(spec, g, i).values.tobytes() for i, g in enumerate(ds.covariates)]
    X = corrupted_features(ds, spec, fs)
    assert X.dtype == np.float64
    assert np.array_equal(X, featurize(fs, corrupted))


def test_apply_all_batches_each_shape_apart():
    rng = np.random.default_rng(8)
    grids = [Grid(rng.random((4, 4, 1) if i % 3 else (4, 6, 3))) for i in range(GRID_CHUNK + 3)]
    for kind, param in KIND_PARAMS[1:5]:
        spec = CorruptionSpec(kind, param, 4)
        assert [g.values.tobytes() for g in apply_all(spec, grids)] == \
            [apply(spec, g, i).values.tobytes() for i, g in enumerate(grids)]


def test_grid_kinds_reject_other_covariates():
    spec = CorruptionSpec("freq_filter", 1, 0)
    with pytest.raises(DispatchError):
        apply_all(spec, [Grid(np.zeros((2, 2))), (1.0, 2.0)])
    with pytest.raises(DispatchError):
        corrupted_features(dataset([Grid(np.zeros((2, 2))), (1.0, 2.0)]), spec,
                           FeatureSpec("flatten_grid"))


def test_grid_rows_check_like_grid():
    values = np.full((2, 3, 3, 1), 0.5)
    grids = grid_rows(values)
    assert [g.values.shape for g in grids] == [(3, 3, 1)] * 2
    with pytest.raises(ValueError):
        grids[0].values[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        grid_rows(np.full((2, 3, 3, 1), 1.5))
    assert grid_rows(np.full((2, 3, 3, 1), 1.5), unit_range=False)[1].values.max() == 1.5
    with pytest.raises(ValueError):
        grid_rows(np.full((1, 2, 2, 1), np.nan), unit_range=False)


# ---------------------------------------------------------------------------
# one frozen block per grid dataset, read in place

BATCH_SPECS = [CorruptionSpec(kind, param, 5) for kind, param in
               (("patch_randomize", 8), ("roi_mask", 16), ("freq_filter", 30),
                ("intensity_filter", 0.4), ("gauss_noise", 0.01))]


def block_rows_of_every_maker(tmp_path) -> list:
    """The generator's rows, each batch kind's apply_all rows and the rows
    of a saved and reloaded dataset (single and double precision)."""
    ds = synthetic_image_task(0.9, GRID_CHUNK + 9, 3)
    made = [ds.covariates] + [apply_all(spec, ds.covariates) for spec in BATCH_SPECS]
    for i, covs in enumerate(made[:4]):   # the freq_filter rows leave [0, 1]
        save_dataset(Dataset(covs, ds.labels, 2), str(tmp_path / str(i)))
        made.append(load_dataset(str(tmp_path / str(i))).covariates)
    return made


def test_grid_datasets_are_rows_of_one_block_read_in_place(tmp_path):
    fs = FeatureSpec("flatten_grid")
    for rows in block_rows_of_every_maker(tmp_path):
        assert isinstance(rows, GridRows)
        assert rows.block.shape == (len(rows), 32, 32, 1) and not rows.block.flags.writeable
        assert all(np.shares_memory(g.values, rows.block[i]) for i, g in enumerate(rows))
        X = featurize(fs, rows)
        assert np.shares_memory(X, rows[0].values) and not X.flags.writeable
        assert X.tobytes() == np.stack([g.values.reshape(-1) for g in rows]).tobytes()
        assert grid_values(rows) is rows.block


def test_rows_without_their_block_are_stacked_with_the_same_bits():
    rows = synthetic_image_task(0.9, 40, 4).covariates
    fs = FeatureSpec("flatten_grid")
    for covs in ([Grid(g.values) for g in rows], list(reversed(rows)), rows[3:30]):
        assert not isinstance(covs, GridRows)
        stacked = np.stack([g.values for g in covs])
        assert np.array_equal(grid_values(covs), stacked)
        assert np.array_equal(featurize(fs, covs), stacked.reshape(len(covs), -1))
        for spec in BATCH_SPECS:
            assert [g.values.tobytes() for g in apply_all(spec, covs)] == \
                [apply(spec, g, i).values.tobytes() for i, g in enumerate(covs)]


def test_block_rows_cannot_be_changed():
    rows = synthetic_image_task(0.9, 3, 4).covariates
    with pytest.raises(AttributeError):
        rows.append(rows[0])
    with pytest.raises(TypeError):
        rows[0] = rows[1]
    with pytest.raises(ValueError, match="read-only"):
        rows.block[0, 0, 0, 0] = 0.0


def traced_peak(fn, *args) -> int:
    """Bytes that ``fn(*args)`` held at its peak, numpy buffers included,
    above what was held before the call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()


def test_whole_dataset_readers_copy_no_block(tmp_path):
    """On 1500 generated images (12 MiB of float64 pixels) featurize copies
    nothing and save_dataset holds less than one float64 copy at its peak
    (its single-precision payload and the value checks)."""
    ds = synthetic_image_task(0.9, 1500, 0)
    assert traced_peak(featurize, FeatureSpec("flatten_grid"), ds.covariates) < 2**20
    assert traced_peak(save_dataset, ds, str(tmp_path / "d")) < ds.covariates.block.nbytes


# ---------------------------------------------------------------------------
# the feature store's grid draws: one kernel call over the clean features

STORE_SHAPES = [(4, 6, 2), (6, 4, 3), (8, 8, 1)]


def ref_patch_features(grids: list, patch: int, spec_seed: int) -> np.ndarray:
    return np.array([ref_patch_shuffle(g.values, patch, ref_derive_seed(spec_seed, i)).ravel()
                     for i, g in enumerate(grids)])


@pytest.mark.parametrize("shape", STORE_SHAPES)
def test_store_patch_draws_redraw_rejected_row_past_a_chunk(shape):
    """Example GRID_CHUNK's second word is 2**64 - 1 at epoch 0 under one
    spec seed and at epoch 1 under another; the store draws all rows in one
    call and must still send that row to the scalar stream."""
    ds = grid_dataset(GRID_CHUNK + 3, shape, key=4)
    fs = FeatureSpec("flatten_grid")
    target = ref_seed_with_word(REJECTED_FOR_3, 2)
    at_epoch_0 = ref_derive_preimage(target, GRID_CHUNK)
    at_epoch_1 = ref_derive_preimage(at_epoch_0, 103, 1)
    for spec_seed, epoch in ((at_epoch_0, 0), (at_epoch_1, 1)):
        spec = CorruptionSpec("patch_randomize", 2, spec_seed)
        epoch_seed = spec_seed if epoch == 0 else derive_seed(spec_seed, 103, epoch)
        assert ref_derive_seed(epoch_seed, GRID_CHUNK) == target
        want = ref_patch_features(ds.covariates, 2, epoch_seed)
        store = FeatureStore(ds, fs)
        first = store.corrupted(spec)
        got = store.epoch_features(spec, first)(epoch)
        assert got.tobytes() == want.tobytes()
        epoch_spec = CorruptionSpec("patch_randomize", 2, epoch_seed)
        assert got.tobytes() == corrupted_features(ds, epoch_spec, fs).tobytes()


@pytest.mark.parametrize("shape", STORE_SHAPES)
def test_store_patch_draws_are_read_only_and_leave_clean_untouched(shape, monkeypatch):
    """Every kind with a batch kernel (patch at each divisor) draws from the
    clean features, never through apply_all or corrupted_features, with the
    bytes of featurize(apply_all(...))."""
    ds = grid_dataset(GRID_CHUNK + 3, shape, key=7)
    fs = FeatureSpec("flatten_grid")
    specs = [CorruptionSpec("patch_randomize", patch, 5) for patch in divisors(*shape[:2])]
    specs += [CorruptionSpec(kind, param, 5) for kind, param in
              (("roi_mask", 3), ("freq_filter", 2), ("intensity_filter", 0.5),
               ("gauss_noise", 0.01))]
    want = [featurize(fs, apply_all(spec, ds.covariates)).tobytes() for spec in specs]
    store = FeatureStore(ds, fs)
    monkeypatch.setattr(scams, "apply_all", None)
    monkeypatch.setattr(scams, "corrupted_features", None)
    clean = store.clean().copy()
    for spec, expect in zip(specs, want):
        got = store.corrupted(spec)
        assert got.tobytes() == expect, spec
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 1.0
    assert store.clean().tobytes() == clean.tobytes()


def test_store_patch_draws_of_two_shapes_fall_back():
    rng = np.random.default_rng(9)
    grids = [Grid(rng.random((4, 6, 2) if i % 3 else (6, 4, 2))) for i in range(GRID_CHUNK + 3)]
    ds, fs = dataset(grids), FeatureSpec("flatten_grid")
    spec = CorruptionSpec("patch_randomize", 2, 8)
    got = FeatureStore(ds, fs).corrupted(spec)
    assert got.tobytes() == corrupted_features(ds, spec, fs).tobytes()
    assert got.tobytes() == ref_patch_features(grids, 2, 8).tobytes()
    mixed = dataset([Grid(np.zeros((2, 2))), (1.0, 2.0, 3.0, 4.0)])
    with pytest.raises(DispatchError):
        FeatureStore(mixed, fs).corrupted(spec)
