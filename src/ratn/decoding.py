"""Autoregressive decoding with beam search and shallow LM fusion.

Fused scores are log P(model) + lambda * log P(LM), with a BigramLm as the
LM, accumulated per emitted token and never renormalized. A hypothesis
finishes when it emits EOS; the search for a source stops once its best
unfinished score drops below its best finished score minus eos_margin
(>= 0; at 0 no unfinished hypothesis can still win), or at max_len. Final
ranking divides scores by emitted-token count.

Search runs over a corpus batch: the live hypotheses of every unfinished
source form one decoder batch of rows, and each step runs the decoder on
only the newest token of each row. Earlier positions live in the model's
DecoderState, read by multi_head_attention through its cache argument: per
layer, the projected self-attention keys/values of every row, gathered by
beam parent after every step, and the cross-attention keys/values of the
encoder output, projected once and held once per source, which each step
reaches through the rows' source index. A call holds at most
MAX_ROWS_PER_CALL rows, so a split is searched in groups of sources; the
bookkeeping is per source, so no result depends on a source's neighbours.
beam_search, for one source, is the N=1 case; greedy_decode stays as the
straight-line reference that beam=1 reproduces.
decode_corpus, the one path from a split to output words, encodes the
split without taping; a hypothesis's output is its tokens after the leading
BOS, without a terminal EOS (BeamHypothesis.output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, no_grad
from .transformer import BOS_ID, EOS_ID, Phase, Seq2SeqModel

_LOG_FLOOR = 1e-300  # keeps log() finite; scores this low never win
# Hypothesis rows per decoder call. Bounds the memory of a batched search;
# one call at beam 4 covers 50 sources.
MAX_ROWS_PER_CALL = 200


@dataclass
class BeamHypothesis:
    """A partial decode: tokens start at BOS; score sums fused log-probs."""

    tokens: list[int]
    score: float
    finished: bool = False

    @property
    def output(self) -> list[int]:
        """The tokens after the leading BOS, without a terminal EOS."""
        return self.tokens[1:-1] if self.tokens[-1] == EOS_ID else self.tokens[1:]

    @property
    def normalized_score(self) -> float:
        return self.score / max(1, len(self.tokens) - 1)


class BigramLm:
    """Add-k smoothed bigram LM on a D x D transition count matrix."""

    def __init__(self, counts: np.ndarray, k: float):
        if k <= 0:
            raise ValueError(f"smoothing constant k must be > 0, got {k}")
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"counts must be square, got {counts.shape}")
        d = counts.shape[0]
        totals = counts.sum(axis=1, keepdims=True)
        self._log_cond = np.log(counts + k) - np.log(totals + k * d)

    def log_probs(self, prefixes) -> np.ndarray:
        """Normalized log-distributions [..., D] over all tokens given
        prefixes [..., t]: one [t] prefix or a batch of them."""
        return self._log_cond[np.asarray(prefixes)[..., -1]]


def bigram_lm_train(corpus, vocab_size: int, k: float) -> BigramLm:
    """Count transitions over BOS + sequence + EOS of every row of an
    [N, T] corpus and smooth with add-k.

    Conditionals are (count(a, b) + k) / (sum_b count(a, b) + k * D); a row
    with no observations is uniform.
    """
    if len(corpus) == 0:
        raise ValueError("cannot train a language model on an empty corpus")
    corpus = np.asarray(corpus, dtype=np.int64)  # [N, T]
    bad = corpus[(corpus < 0) | (corpus >= vocab_size)]
    if bad.size:
        raise ValueError(f"token id {bad[0]} out of range for vocabulary "
                         f"of {vocab_size}")
    path = np.pad(corpus, ((0, 0), (1, 1)), constant_values=(BOS_ID, EOS_ID))
    pairs = path[:, :-1] * vocab_size + path[:, 1:]
    counts = np.bincount(pairs.ravel(), minlength=vocab_size * vocab_size)
    return BigramLm(counts.reshape(vocab_size, vocab_size), k)


def shallow_fusion(log_p: np.ndarray, log_p_lm: np.ndarray,
                   lam: float) -> np.ndarray:
    """log_p + lam * log_p_lm, elementwise; scores, not probabilities."""
    if lam < 0:
        raise ValueError(f"fusion weight lambda must be >= 0, got {lam}")
    if lam == 0.0:
        return log_p
    if log_p.shape != log_p_lm.shape:
        raise ValueError(f"score vectors disagree: {log_p.shape} vs {log_p_lm.shape}")
    return log_p + lam * log_p_lm


def greedy_decode(model: Seq2SeqModel, h: Tensor, max_len: int) -> list[int]:
    """Argmax token per step until EOS or max_len; ties take the lowest id.

    Returns the full token list including BOS (and EOS when emitted).
    """
    tokens = [BOS_ID]
    with no_grad():
        for _ in range(max_len):
            p = model.decode_step(h, tokens)
            tok = int(np.argmax(p))
            tokens.append(tok)
            if tok == EOS_ID:
                break
    return tokens


def beam_search(model: Seq2SeqModel, h: Tensor, beam: int,
                lm: BigramLm | None = None, lam: float = 0.0,
                max_len: int = 16, eos_margin: float = 0.0) -> list[BeamHypothesis]:
    """Beam search for one source, h [T, d]: the N=1 case of beam_search_batch.

    The default margin 0 stops as soon as no continuation can beat the best
    finished raw score; since the final ranking is length-normalized, pass a
    large eos_margin (no truncation) when the search should be exhaustive
    over lengths, e.g. when comparing against an enumeration oracle.
    """
    return beam_search_batch(model, Tensor(h.data[None]), beam, lm=lm, lam=lam,
                             max_len=max_len, eos_margin=eos_margin)[0]


def beam_search_batch(model: Seq2SeqModel, h: Tensor, beam: int,
                      lm: BigramLm | None = None, lam: float = 0.0,
                      max_len: int = 16,
                      eos_margin: float = 0.0) -> list[list[BeamHypothesis]]:
    """Beam search for every source of an encoded batch h [N, T, d].

    Returns, per source, its finished hypotheses and any still alive at
    max_len (unfinished), best first. Sources are searched in groups of at
    most MAX_ROWS_PER_CALL // beam; no result depends on its neighbours.
    """
    if beam < 1:
        raise ValueError(f"beam width must be >= 1, got {beam}")
    if lam < 0:
        raise ValueError(f"fusion weight lambda must be >= 0, got {lam}")
    if eos_margin < 0:  # a source would stop while it can still improve
        raise ValueError(f"eos_margin must be >= 0, got {eos_margin}")
    if h.ndim != 3:
        raise ValueError(f"encoder output must be [N, T, d], got {h.shape}")
    if h.shape[-2] == 0:
        raise ValueError("empty encoder output")
    group = max(1, MAX_ROWS_PER_CALL // beam)
    out: list[list[BeamHypothesis]] = []
    with no_grad():
        for start in range(0, h.shape[0], group):
            out += _search_group(model, Tensor(h.data[start:start + group]),
                                 beam, lm, lam, max_len, eos_margin)
    return out


def decode_corpus(model: Seq2SeqModel, sources: np.ndarray, beam: int,
                  lm: BigramLm | None = None, lam: float = 0.0, *,
                  max_len: int, eos_margin: float = 0.0,
                  h: Tensor | None = None) -> list[tuple[list[int], float]]:
    """(output, score) of the best beam hypothesis per source, searched for
    at most max_len steps (every library caller passes the split's reference
    length + 2).

    The sources are encoded as one batch without taping unless h, their
    encoder output, is given: a split decoded repeatedly is encoded once.
    """
    if len(sources) == 0:
        return []
    if h is None:
        with no_grad():
            h = model.encode(sources, Phase.EVAL)
    hyps = beam_search_batch(model, h, beam, lm=lm, lam=lam, max_len=max_len,
                             eos_margin=eos_margin)
    return [(best.output, best.score) for best, *_ in hyps]


def _search_group(model, h, beam, lm, lam, max_len, eos_margin):
    """One decoder batch of every live hypothesis of every unfinished source.

    Live rows are grouped by source in ascending order; the decoder sees
    only each row's newest token and keeps the rest in its DecoderState,
    reordered by beam parent after every step.
    """
    n = h.shape[0]
    state = model.new_decoder_state()
    src = np.arange(n)  # source of each live row
    prefixes = np.full((n, 1), BOS_ID, dtype=np.int64)
    scores = np.zeros(n)
    pools: list[list[BeamHypothesis]] = [[] for _ in range(n)]  # finished
    best_finished = np.full(n, -np.inf)
    for _ in range(max_len):
        probs = model.decode_next(h, prefixes[:, -1], state)
        step = np.log(np.maximum(probs, _LOG_FLOOR))
        if lm is not None and lam > 0.0:
            step = shallow_fusion(step, lm.log_probs(prefixes), lam)
        total = scores[:, None] + step
        vocab = total.shape[1]
        # Per source, the top `beam` of its (parent, token) grid by a stable
        # sort: ties go to the lower parent, then the lower token id (so
        # beam=1 reproduces greedy decoding exactly).
        active, first, inverse, counts = np.unique(
            src, return_index=True, return_inverse=True, return_counts=True)
        slot = np.arange(len(src)) - first[inverse]
        grid = np.full((len(active), counts.max(), vocab), -np.inf)
        grid[inverse, slot] = total
        grid = grid.reshape(len(active), -1)
        order = np.argsort(-grid, axis=1, kind="stable")[:, :beam]
        chosen = order // vocab < counts[:, None]  # not a padding slot
        cand_src = np.broadcast_to(active[:, None], order.shape)[chosen]
        cand_score = np.take_along_axis(grid, order, axis=1)[chosen]
        cand_parent = (first[:, None] + order // vocab)[chosen]
        cand_tok = (order % vocab)[chosen]
        for i in np.nonzero(cand_tok == EOS_ID)[0]:
            s = cand_src[i]
            tokens = prefixes[cand_parent[i]].tolist() + [EOS_ID]
            pools[s].append(BeamHypothesis(tokens, float(cand_score[i]), True))
            best_finished[s] = max(best_finished[s], cand_score[i])
        live = cand_tok != EOS_ID
        # A source stops once its best live score falls below its best
        # finished score minus eos_margin; abandoned prefixes are dropped.
        best_live = np.full(n, -np.inf)
        np.maximum.at(best_live, cand_src[live], cand_score[live])
        live &= ~(best_live[cand_src] < best_finished[cand_src] - eos_margin)
        rows = cand_parent[live]
        prefixes = np.concatenate([prefixes[rows], cand_tok[live][:, None]], axis=1)
        scores, src = cand_score[live], cand_src[live]
        if not len(src):
            break
        state.reorder(rows)
    for row, s in enumerate(src):  # live survivors were cut at max_len
        pools[s].append(BeamHypothesis(prefixes[row].tolist(), float(scores[row])))
    for pool in pools:
        pool.sort(key=lambda hyp: (-hyp.normalized_score, -hyp.score, hyp.tokens))
    return pools
