"""Decoding: fusion arithmetic, greedy/beam identities, the exhaustive
enumeration oracle, and the add-k bigram LM."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from helpers import desk_decode_peak_bytes, desk_grid_peak_bytes, rel_err
from ratn.attention import Phase
from ratn import decoding
from ratn.decoding import (BeamHypothesis, BigramLm, beam_search,
                           beam_search_batch, bigram_lm_train, decode_corpus,
                           decode_grid, greedy_decode, shallow_fusion)
from ratn.rng import RngStream
from ratn.tensor import Tensor
from ratn.transformer import BOS_ID, EOS_ID, ModelConfig, Seq2SeqModel


def small_model(seed, vocab=6, d=8) -> tuple[Seq2SeqModel, Tensor]:
    cfg = ModelConfig(n_enc=1, n_dec=1, n_heads=2, d_model=d, d_ff=16,
                      vocab_size=vocab, max_len=10, dropout_residual=0.0,
                      dropout_activation=0.0, dropout_attention=0.0)
    model = Seq2SeqModel(cfg, seed=seed)
    h = model.encode([3, 4, 3])
    return model, h


# ---------------------------------------------------------------------------
# shallow fusion


def test_fusion_lambda_zero_returns_model_scores():
    log_p = np.array([-1.0, -2.0])
    out = shallow_fusion(log_p, np.array([-9.0, -0.1]), 0.0)
    assert out is log_p


def test_fusion_worked_example():
    out = shallow_fusion(np.array([-1.0, -2.0]), np.array([-2.0, -1.0]), 0.5)
    assert np.array_equal(out, [-2.0, -2.5])


def test_fusion_can_flip_argmax():
    log_p = np.array([-1.0, -1.1])
    log_lm = np.array([-3.0, -0.1])
    assert np.argmax(log_p) == 0
    fused = shallow_fusion(log_p, log_lm, 0.4)
    assert rel_err(fused, [-2.2, -1.14]) < 1e-12
    assert np.argmax(fused) == 1


def test_fusion_rejects_negative_lambda():
    with pytest.raises(ValueError):
        shallow_fusion(np.zeros(2), np.zeros(2), -0.1)


# ---------------------------------------------------------------------------
# bigram LM


def test_bigram_spec_example():
    # Single sequence [1, 2] with D=3: padded path is [BOS, 1, 2, EOS]
    # = [1, 1, 2, 2], so row 1 holds counts {1: 1, 2: 1} and
    # P(2|1) = (1 + 1) / (2 + 1 * 3) = 2/5.
    lm = bigram_lm_train([[1, 2]], vocab_size=3, k=1.0)
    assert abs(math.exp(lm.log_probs([1])[2]) - 2 / 5) < 1e-12


def test_bigram_empty_context_row_is_uniform():
    lm = bigram_lm_train([[1, 2]], vocab_size=3, k=1.0)
    assert rel_err(np.exp(lm.log_probs([0])), [1 / 3] * 3) < 1e-12


def test_bigram_rows_are_normalized():
    rng = RngStream(0, "t")
    corpus = [rng.integers(3, 8, 5).tolist() for _ in range(20)]
    lm = bigram_lm_train(corpus, vocab_size=8, k=0.5)
    for ctx in range(8):
        logsum = np.logaddexp.reduce(lm.log_probs([ctx]))
        assert abs(logsum) < 1e-8


def test_bigram_log_probs_of_a_prefix_batch_equal_per_row_results():
    rng = RngStream(1, "t")
    lm = bigram_lm_train([rng.integers(3, 8, 5).tolist() for _ in range(20)],
                         vocab_size=8, k=0.5)
    prefixes = np.concatenate([np.full((12, 1), BOS_ID),
                               rng.integers(0, 8, (12, 3))], axis=1)
    batched = lm.log_probs(prefixes)
    assert batched.shape == (12, 8)
    assert np.array_equal(batched, np.stack([lm.log_probs(p) for p in prefixes]))


def test_bigram_rejects_bad_k_and_empty_corpus():
    with pytest.raises(ValueError):
        bigram_lm_train([[1]], 4, 0.0)
    with pytest.raises(ValueError):
        bigram_lm_train([], 4, 1.0)


def _loop_bigram_lm(corpus, vocab_size: int, k: float) -> BigramLm:
    """The straight-line count: one increment per transition of every
    BOS + sequence + EOS path."""
    counts = np.zeros((vocab_size, vocab_size))
    for seq in corpus:
        path = [BOS_ID, *map(int, seq), EOS_ID]
        for a, b in zip(path, path[1:]):
            counts[a, b] += 1.0
    return BigramLm(counts, k)


@pytest.mark.parametrize("shape", [(1, 0), (1, 3), (20, 5), (300, 8)])
def test_bigram_counts_equal_the_loop_count(shape):
    corpus = RngStream(2, "t").integers(0, 9, shape)
    for rows in (corpus, corpus.tolist()):
        assert (bigram_lm_train(rows, 9, 0.5)._log_cond.tobytes()
                == _loop_bigram_lm(rows, 9, 0.5)._log_cond.tobytes())


@pytest.mark.parametrize("bad", [-1, 5, 7])
def test_bigram_rejects_a_token_id_outside_the_vocabulary(bad):
    with pytest.raises(ValueError, match=f"token id {bad} out of range "
                                         "for vocabulary of 5"):
        bigram_lm_train([[3, 4], [3, bad]], 5, 1.0)


# ---------------------------------------------------------------------------
# greedy and beam


def test_greedy_is_deterministic():
    model, h = small_model(1)
    assert greedy_decode(model, h, 6) == greedy_decode(model, h, 6)


def test_beam_one_equals_greedy():
    for seed in range(8):
        model, h = small_model(seed)
        hyps = beam_search(model, h, beam=1, max_len=6)
        assert hyps[0].tokens == greedy_decode(model, h, 6)


def test_beam_validation():
    model, h = small_model(2)
    with pytest.raises(ValueError):
        beam_search(model, h, beam=0)
    with pytest.raises(ValueError):
        beam_search(model, Tensor(np.zeros((0, 8))), beam=2)


def test_beam_search_rejects_a_negative_eos_margin():
    # below 0 a source would stop while a live hypothesis still outscores
    # its best finished one
    model, h = small_model(2)
    with pytest.raises(ValueError, match="eos_margin must be >= 0, got -5"):
        beam_search_batch(model, Tensor(h.data[None]), beam=2, eos_margin=-5)


class StubModel:
    """Fixed per-step log-probability tables keyed by prefix length."""

    def __init__(self, tables):
        self.tables = [np.asarray(t, dtype=np.float64) for t in tables]

    def decode_step(self, h, prefix):
        return self.tables[len(prefix) - 1]


def test_greedy_on_hand_built_two_step_model():
    # vocab: 0=pad, 1=bos, 2=eos, 3, 4
    step0 = [0.01, 0.01, 0.05, 0.63, 0.30]
    step1 = [0.01, 0.01, 0.58, 0.2, 0.2]
    stub = StubModel([step0, step1])
    out = greedy_decode(stub, Tensor(np.zeros((1, 2))), 4)
    assert out == [BOS_ID, 3, EOS_ID]


def _enumerate_candidates(vocab: int, max_len: int):
    """Every EOS-terminated sequence up to max_len plus EOS-free full length."""
    alphabet = [t for t in range(vocab) if t != EOS_ID]
    for body_len in range(max_len):
        for body in itertools.product(alphabet, repeat=body_len):
            yield list(body) + [EOS_ID]
    for body in itertools.product(alphabet, repeat=max_len):
        yield list(body)


def _score_candidate(model, h, tokens, lm, lam):
    """Independent accumulation of fused scores along one candidate."""
    prefix = [BOS_ID]
    total = 0.0
    for tok in tokens:
        p = model.decode_step(h, prefix)
        total += math.log(max(p[tok], 1e-300))
        if lm is not None and lam > 0:
            total += lam * lm.log_probs(prefix)[tok]
        prefix = prefix + [tok]
    return total


def test_beam_matches_exhaustive_oracle():
    rng = RngStream(3, "t")
    for seed in range(4):
        cfg = ModelConfig(n_enc=1, n_dec=1, n_heads=2, d_model=8, d_ff=16,
                          vocab_size=4, max_len=8, dropout_residual=0.0,
                          dropout_activation=0.0, dropout_attention=0.0)
        model = Seq2SeqModel(cfg, seed=seed)
        h = model.encode([3, 3])
        lm = BigramLm(np.abs(rng.normal((4, 4))) * 5, k=0.5)
        for lam in (0.0, 0.4):
            candidates = list(_enumerate_candidates(4, 4))
            scored = [(_score_candidate(model, h, c, lm, lam), c)
                      for c in candidates]
            best = max(scored, key=lambda sc: (sc[0] / len(sc[1]), sc[0]))
            # non-truncating margin: equivalence is over all lengths
            hyps = beam_search(model, h, beam=256, lm=lm, lam=lam, max_len=4,
                               eos_margin=1e9)
            assert hyps[0].tokens[1:] == best[1]
            assert abs(hyps[0].score - best[0]) < 1e-10


def test_fusion_linearity_of_accumulated_scores():
    model, h = small_model(5)
    lm = BigramLm(np.abs(RngStream(6, "t").normal((6, 6))) * 3, k=1.0)
    hyps = beam_search(model, h, beam=3, lm=lm, lam=0.3, max_len=5)
    for hyp in hyps[:3]:
        recomputed = _score_candidate(model, h, hyp.tokens[1:], lm, 0.3)
        assert abs(recomputed - hyp.score) < 1e-10


def test_lambda_zero_equals_no_lm_decoding():
    model, h = small_model(7)
    lm = BigramLm(np.abs(RngStream(8, "t").normal((6, 6))), k=1.0)
    with_lm = beam_search(model, h, beam=3, lm=lm, lam=0.0, max_len=5)
    without = beam_search(model, h, beam=3, lm=None, max_len=5)
    assert [h.tokens for h in with_lm] == [h.tokens for h in without]
    assert [h.score for h in with_lm] == [h.score for h in without]


def test_beam_monotonicity_on_seeded_instances():
    # Not a theorem of pruned beam search; verified on this fixed instance set
    # for both the raw best (default margin) and the normalized best under a
    # non-truncating margin.
    for seed in range(12):
        model, h = small_model(seed)
        best_raw, best_norm = -np.inf, -np.inf
        for beam in (1, 2, 4, 8, 16):
            raw = max(hh.score for hh in beam_search(model, h, beam=beam,
                                                     max_len=5))
            assert raw >= best_raw - 1e-12
            best_raw = max(best_raw, raw)
            norm = beam_search(model, h, beam=beam, max_len=5,
                               eos_margin=1e9)[0].normalized_score
            assert norm >= best_norm - 1e-12
            best_norm = max(best_norm, norm)


def test_length_normalization_no_effect_on_equal_lengths():
    scores = [(-1.0, [3, 4, EOS_ID]), (-2.0, [4, 4, EOS_ID])]
    hyps = [BeamHypothesis([BOS_ID] + t, s, True) for s, t in scores]
    by_norm = sorted(hyps, key=lambda hh: -hh.normalized_score)
    by_raw = sorted(hyps, key=lambda hh: -hh.score)
    assert [h.tokens for h in by_norm] == [h.tokens for h in by_raw]


# ---------------------------------------------------------------------------
# batched search against the per-source straight-line reference


def _reference_beam_search(model, h, beam, lm, lam, max_len, eos_margin):
    """Per-source beam search that reruns the decoder over every full prefix.

    The straight-line form of beam_search's contract: one source, a stable
    sort over (parent, token), per-hypothesis bookkeeping.
    """
    live, finished = [BeamHypothesis([BOS_ID], 0.0)], []
    for _ in range(max_len):
        probs = model.decode_step(h, np.array([hyp.tokens for hyp in live]))
        scores = np.log(np.maximum(probs, 1e-300))
        if lm is not None and lam > 0.0:
            scores = scores + lam * np.stack([lm.log_probs(hyp.tokens)
                                              for hyp in live])
        flat = (np.array([hyp.score for hyp in live])[:, None] + scores).reshape(-1)
        new_live = []
        for idx in np.argsort(-flat, kind="stable")[:beam]:
            parent, tok = divmod(int(idx), scores.shape[1])
            hyp = BeamHypothesis(live[parent].tokens + [tok], float(flat[idx]),
                                 tok == EOS_ID)
            (finished if hyp.finished else new_live).append(hyp)
        live = new_live
        if not live:
            break
        if finished and (max(hyp.score for hyp in live)
                         < max(f.score for f in finished) - eos_margin):
            live = []
            break
    pool = finished + live
    pool.sort(key=lambda hyp: (-hyp.normalized_score, -hyp.score, hyp.tokens))
    return pool


def corpus_setup(seed=4):
    """Model, sources and LM whose decodes stop at different steps.

    Cross attention is scaled up and EOS favoured, so that what an untrained
    model emits, and when it ends, depends on the source.
    """
    cfg = ModelConfig(n_enc=1, n_dec=2, n_heads=2, d_model=8, d_ff=16,
                      vocab_size=6, max_len=10, dropout_residual=0.0,
                      dropout_activation=0.0, dropout_attention=0.0)
    model = Seq2SeqModel(cfg, seed=seed)
    for blk in model.dec_blocks:
        blk.cross_attn.w_q.data = blk.cross_attn.w_q.data * 6.0
        blk.cross_attn.w_o.data = blk.cross_attn.w_o.data * 6.0
    model.out_b.data = model.out_b.data + np.eye(6)[EOS_ID]
    rng = RngStream(seed, "corpus")
    sources = rng.integers(3, 6, (9, 4))
    lm = BigramLm(np.abs(rng.normal((6, 6))) * 3, k=0.5)
    return model, sources, lm


@pytest.mark.parametrize("eos_margin", [0.0, 1e9])
@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("beam", [1, 4])
def test_decode_corpus_matches_per_source_search(beam, lam, eos_margin):
    model, sources, lm = corpus_setup()
    batched = decode_corpus(model, sources, beam, lm=lm, lam=lam, max_len=6,
                            eos_margin=eos_margin)
    steps = set()
    for src, (tokens, score) in zip(sources, batched):
        h = model.encode(src)
        single = beam_search(model, h, beam, lm=lm, lam=lam, max_len=6,
                             eos_margin=eos_margin)
        ref = _reference_beam_search(model, h, beam, lm, lam, 6, eos_margin)
        assert [hyp.tokens for hyp in single] == [hyp.tokens for hyp in ref]
        assert [hyp.finished for hyp in single] == [hyp.finished for hyp in ref]
        for a, b in zip(single, ref):
            assert abs(a.score - b.score) < 1e-10
        assert ref[0].output == tokens
        assert abs(ref[0].score - score) < 1e-10
        steps.add(len(ref[0].tokens))
    assert len(steps) > 1  # the sources finish at different steps


def test_decode_corpus_ignores_batch_neighbours_and_row_cap(monkeypatch):
    model, sources, lm = corpus_setup(seed=5)

    def decode(src):
        return json.dumps(decode_corpus(model, src, 4, lm=lm, lam=0.3,
                                        max_len=6))

    whole = decode(sources)
    assert whole == json.dumps(json.loads(decode(sources[:4]))
                               + json.loads(decode(sources[4:])))
    monkeypatch.setattr(decoding, "MAX_ROWS_PER_CALL", 4)  # one source a call
    assert decode(sources) == whole


def test_desk_decode_peak_stays_small():
    # 3,397,160 bytes while every hypothesis row held its own copy of its
    # source's cross-attention keys and values and every cached call copied
    # its keys transposed; 2,585,418 with the cross caches held once per
    # source and the keys stored transposed.
    assert desk_decode_peak_bytes() < 3_000_000


def test_desk_dev_grid_peak_stays_small():
    # 2,548,810 bytes for the 9 fusion points of ilm_cell's dev grid searched
    # together, each call holding at most MAX_ROWS_PER_CALL decoder rows;
    # 4,192,947 for the largest of the 9 searches when each point was
    # searched on its own
    assert desk_grid_peak_bytes() < 1.1 * 2_548_810


def test_decode_corpus_rejects_an_encoder_output_of_other_sources():
    model, sources, lm = corpus_setup()
    h = model.encode(sources[:5])
    with pytest.raises(ValueError, match="h encodes 5 sources, given 3"):
        decode_corpus(model, sources[:3], 4, lm=lm, lam=0.3, max_len=6, h=h)


@pytest.mark.parametrize("lam", [-0.1, math.nan])
def test_beam_search_rejects_a_fusion_weight_below_zero_or_nan(lam):
    model, h = small_model(2)
    with pytest.raises(ValueError, match=f"lambda must be >= 0, got {lam}"):
        beam_search_batch(model, Tensor(h.data[None]), beam=2, lam=lam)


def test_beam_search_rejects_a_nan_eos_margin():
    # NaN compares false, so every source would search on to max_len
    model, h = small_model(2)
    with pytest.raises(ValueError, match="eos_margin must be >= 0, got nan"):
        beam_search_batch(model, Tensor(h.data[None]), beam=2,
                          eos_margin=math.nan)


# ---------------------------------------------------------------------------
# one search for a grid of fusion points


def grid_points(seed=4):
    """The points of a fusion grid: no LM, lm_a at lambda 0, and lm_a and
    lm_b at lambda 0.3. lm_a favours EOS and lm_b all but rules it out, so
    the fused points stop at different steps."""
    counts = np.abs(RngStream(seed, "grid").normal((2, 6, 6))) * 3
    counts[0, :, EOS_ID] += 30.0
    counts[1, :, EOS_ID] = 0.0
    lm_a, lm_b = (BigramLm(c, k=0.01) for c in counts)
    return ((None, 0.0), (lm_a, 0.0), (lm_a, 0.3), (lm_b, 0.3))


def _pool_bits(pool):
    return [(hyp.tokens, hyp.score.hex(), hyp.finished) for hyp in pool]


@pytest.mark.parametrize("eos_margin", [0.0, 1e9])
@pytest.mark.parametrize("beam", [1, 4])
def test_grid_pools_equal_the_one_point_search_and_the_reference(beam,
                                                                 eos_margin):
    model, sources, _ = corpus_setup()
    points = grid_points()
    h = model.encode(sources, Phase.EVAL)
    grid = decoding._search(model, h, beam, points, 6, eos_margin,
                            lambda pool: pool)
    last_steps = []
    for (lm, lam), pools in zip(points, grid):
        alone = beam_search_batch(model, h, beam, lm=lm, lam=lam, max_len=6,
                                  eos_margin=eos_margin)
        assert [_pool_bits(p) for p in pools] == [_pool_bits(p) for p in alone]
        for src, pool in zip(sources, pools):
            ref = _reference_beam_search(model, model.encode(src), beam, lm,
                                         lam, 6, eos_margin)
            assert [(hyp.tokens, hyp.finished) for hyp in pool] == [
                (hyp.tokens, hyp.finished) for hyp in ref]
            for a, b in zip(pool, ref):
                assert abs(a.score - b.score) < 1e-10
        last_steps.append(max(len(hyp.tokens) for pool in pools for hyp in pool))
    if eos_margin == 0.0:
        # a point whose searches have all stopped leaves the others running
        assert len(set(last_steps)) > 1


def test_grid_ignores_batch_neighbours_and_row_cap(monkeypatch):
    model, sources, _ = corpus_setup()
    points = grid_points()
    searched = []

    def search_group(model, h, *args):
        pools = group_search(model, h, *args)
        searched.append((h.shape[0], pools is None))
        return pools

    def decode(src):
        return json.dumps(decode_grid(model, src, 4, points, max_len=6))

    whole = decode(sources)
    halves = zip(json.loads(decode(sources[:4])), json.loads(decode(sources[4:])))
    assert whole == json.dumps([a + b for a, b in halves])
    group_search = decoding._search_group
    monkeypatch.setattr(decoding, "_search_group", search_group)
    monkeypatch.setattr(decoding, "MAX_ROWS_PER_CALL", 4)  # one source a call
    assert decode(sources) == whole
    assert searched == [(1, False)] * 9
    searched.clear()
    # three sources a group, until a group's decoder rows outgrow 12 and
    # it and the rest are searched again one source at a time
    monkeypatch.setattr(decoding, "MAX_ROWS_PER_CALL", 12)
    assert decode(sources) == whole
    assert searched == [(3, False), (3, True)] + [(1, False)] * 6


def test_empty_source_batch_decodes_to_nothing():
    model, _, lm = corpus_setup()
    assert decode_corpus(model, np.zeros((0, 4), dtype=np.int64), 4, lm=lm,
                         lam=0.3, max_len=6) == []
    assert beam_search_batch(model, Tensor(np.zeros((0, 4, 8))), 4) == []
    assert decode_grid(model, np.zeros((0, 4), dtype=np.int64), 4,
                       grid_points(), max_len=6) == [[], [], [], []]
