"""Autoregressive decoding with beam search and shallow LM fusion.

Fused scores are log P(model) + lambda * log P(LM), with a BigramLm as the
LM, accumulated per emitted token and never renormalized. A hypothesis
finishes when it emits EOS; the search for a source stops once its best
unfinished score drops below its best finished score minus eos_margin
(>= 0; at 0 no unfinished hypothesis can still win), or at max_len. Final
ranking divides scores by emitted-token count.

Search runs over a corpus batch and a grid of (lm, lambda) fusion points at
once. Each (point, source) pair keeps its own bookkeeping over its own
hypothesis rows, which index the decoder rows: one per distinct (source,
prefix), shared by the points that agree on it. Each step runs the decoder
on only the newest token of each decoder row. Earlier positions live in the
model's DecoderState, read by multi_head_attention through its cache
argument: per layer, the projected self-attention keys/values of every
decoder row, gathered by parent after every step, and the cross-attention
keys/values of the encoder output, held once per source. A call holds at
most MAX_ROWS_PER_CALL decoder rows, so a split is searched in groups of
sources. No decoder row and no bookkeeping depends on a neighbour, so each
point's result is bit for bit its own search's. beam_search_batch is the one-point case, beam_search its N=1
case; greedy_decode stays as the straight-line reference that beam=1
reproduces. decode_corpus, the one path from a split to output words, is
decode_grid's one-point case; a hypothesis's output is its tokens after
the leading BOS, without a terminal EOS (BeamHypothesis.output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, no_grad
from .transformer import BOS_ID, EOS_ID, Phase, Seq2SeqModel

_LOG_FLOOR = 1e-300  # keeps log() finite; scores this low never win
# Decoder rows per call, bounding a batched search's memory; see _search.
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
    max_len (unfinished), best first. No result depends on its neighbours.
    """
    return _search(model, h, beam, ((lm, lam),), max_len, eos_margin,
                   lambda pool: pool)[0]


def decode_grid(model: Seq2SeqModel, sources: np.ndarray, beam: int,
                points, *, max_len: int, eos_margin: float = 0.0,
                h: Tensor | None = None) -> list[list[tuple[list[int], float]]]:
    """decode_corpus for each (lm, lam) of points, in one search whose
    decoder rows the points share; the sources are encoded as one batch
    without taping unless h, their encoder output, is given."""
    if h is not None and h.shape[0] != len(sources):
        raise ValueError(f"h encodes {h.shape[0]} sources, given {len(sources)}")
    if len(sources) == 0:
        return [[] for _ in points]
    if h is None:
        with no_grad():
            h = model.encode(sources, Phase.EVAL)
    return _search(model, h, beam, tuple(points), max_len, eos_margin,
                   lambda pool: (pool[0].output, pool[0].score))


def decode_corpus(model: Seq2SeqModel, sources: np.ndarray, beam: int,
                  lm: BigramLm | None = None, lam: float = 0.0, *,
                  max_len: int, eos_margin: float = 0.0,
                  h: Tensor | None = None) -> list[tuple[list[int], float]]:
    """(output, score) of the best beam hypothesis per source, searched for
    at most max_len steps (every library caller passes the split's reference
    length + 2): decode_grid's one-point case."""
    return decode_grid(model, sources, beam, ((lm, lam),), max_len=max_len,
                       eos_margin=eos_margin, h=h)[0]


def _search(model, h, beam, points, max_len, eos_margin, keep):
    """keep(pool) of every source per point. A group starts with
    MAX_ROWS_PER_CALL // beam sources; one whose decoder rows would outgrow
    MAX_ROWS_PER_CALL is searched again, with the rest, in groups half as
    large. Each group's pools are reduced by keep before the next starts."""
    if beam < 1:
        raise ValueError(f"beam width must be >= 1, got {beam}")
    for _, lam in points:
        if not lam >= 0:
            raise ValueError(f"fusion weight lambda must be >= 0, got {lam}")
    if not eos_margin >= 0:  # a source would stop while it can still improve
        raise ValueError(f"eos_margin must be >= 0, got {eos_margin}")
    if h.ndim != 3:
        raise ValueError(f"encoder output must be [N, T, d], got {h.shape}")
    if h.shape[-2] == 0:
        raise ValueError("empty encoder output")
    group, start = max(1, MAX_ROWS_PER_CALL // beam), 0
    out: list[list] = [[] for _ in points]
    with no_grad():
        while start < h.shape[0]:
            pools = _search_group(model, Tensor(h.data[start:start + group]),
                                  beam, points, max_len, eos_margin)
            if pools is None:  # search it again, and the rest, in halves
                group //= 2
                continue
            for mine, point_pools in zip(out, pools):
                mine += map(keep, point_pools)
            start += group
    return out


def _search_group(model, h, beam, points, max_len, eos_margin):
    """Every (point, source) unit's search over a group of sources, or None
    once a group of more than one outgrows MAX_ROWS_PER_CALL. Live rows are
    grouped by unit in ascending order and index their decoder rows."""
    n = h.shape[0]
    state = model.new_decoder_state()
    unit = np.arange(len(points) * n)  # unit of each live row: point * n + source
    dec = unit % n  # decoder row of each live row
    prefixes = np.full((n, 1), BOS_ID, dtype=np.int64)  # per decoder row
    scores = np.zeros(len(unit))
    pools: list[list[BeamHypothesis]] = [[] for _ in unit]  # finished
    best_finished = np.full(len(unit), -np.inf)
    for _ in range(max_len):
        probs = model.decode_next(h, prefixes[:, -1], state)
        total = np.log(np.maximum(probs, _LOG_FLOOR))[dec]
        ends = np.searchsorted(unit, np.arange(len(points) + 1) * n)
        for (lm, lam), lo, hi in zip(points, ends, ends[1:]):  # a point's rows
            if lm is not None and lam > 0.0 and hi > lo:
                total[lo:hi] = shallow_fusion(
                    total[lo:hi], lm.log_probs(prefixes[dec[lo:hi]]), lam)
        total += scores[:, None]
        vocab = total.shape[1]
        # Per unit, the top `beam` of its (parent, token) grid by a stable
        # sort: ties go to the lower parent, then the lower token id (so
        # beam=1 reproduces greedy decoding exactly).
        active, first, inverse, counts = np.unique(
            unit, return_index=True, return_inverse=True, return_counts=True)
        slot = np.arange(len(unit)) - first[inverse]
        grid = np.full((len(active), counts.max(), vocab), -np.inf)
        grid[inverse, slot] = total
        grid = grid.reshape(len(active), -1)
        order = np.argsort(-grid, axis=1, kind="stable")[:, :beam]
        chosen = order // vocab < counts[:, None]  # not a padding slot
        cand_unit = np.broadcast_to(active[:, None], order.shape)[chosen]
        cand_score = np.take_along_axis(grid, order, axis=1)[chosen]
        cand_dec = dec[(first[:, None] + order // vocab)[chosen]]
        cand_tok = (order % vocab)[chosen]
        for i in np.nonzero(cand_tok == EOS_ID)[0]:
            u = cand_unit[i]
            tokens = prefixes[cand_dec[i]].tolist() + [EOS_ID]
            pools[u].append(BeamHypothesis(tokens, float(cand_score[i]), True))
            best_finished[u] = max(best_finished[u], cand_score[i])
        live = cand_tok != EOS_ID
        # A unit stops once its best live score falls below its best
        # finished score minus eos_margin; abandoned prefixes are dropped.
        best_live = np.full(len(pools), -np.inf)
        np.maximum.at(best_live, cand_unit[live], cand_score[live])
        live &= ~(best_live[cand_unit] < best_finished[cand_unit] - eos_margin)
        scores, unit = cand_score[live], cand_unit[live]
        if not len(unit):
            break
        # the next decoder rows: the distinct (parent decoder row, token)s
        keys, dec = np.unique(cand_dec[live] * vocab + cand_tok[live],
                              return_inverse=True)
        if len(keys) > MAX_ROWS_PER_CALL and n > 1:
            return None
        prefixes = np.concatenate([prefixes[keys // vocab],
                                   (keys % vocab)[:, None]], axis=1)
        state.reorder(keys // vocab)
    for row, u in enumerate(unit):  # live survivors were cut at max_len
        pools[u].append(BeamHypothesis(prefixes[dec[row]].tolist(),
                                       float(scores[row])))
    for pool in pools:
        pool.sort(key=lambda hyp: (-hyp.normalized_score, -hyp.score, hyp.tokens))
    return [pools[p * n:(p + 1) * n] for p in range(len(points))]
