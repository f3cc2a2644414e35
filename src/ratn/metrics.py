"""Evaluation metrics: WER via edit alignment, corpus BLEU, and
attention-distribution diagnostics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


@dataclass(frozen=True)
class EditAlignment:
    """Counts from a minimal-cost alignment of hypothesis to reference."""

    deletions: int
    insertions: int
    substitutions: int
    ref_len: int

    @property
    def errors(self) -> int:
        return self.deletions + self.insertions + self.substitutions


def edit_align(ref, hyp) -> EditAlignment:
    """Levenshtein alignment with unit costs.

    Among minimal alignments the backtrace prefers the diagonal, i.e. a
    substitution over an insertion+deletion pair, so counts are deterministic.
    The cost table is nested Python lists: element access on a NumPy array
    costs several times more in this loop.
    """
    r, h = list(ref), list(hyp)
    nr, nh = len(r), len(h)
    cost = [list(range(nh + 1))]
    for i in range(1, nr + 1):
        prev, row = cost[-1], [i] * (nh + 1)
        for j in range(1, nh + 1):
            row[j] = min(prev[j - 1] + (r[i - 1] != h[j - 1]), prev[j] + 1,
                         row[j - 1] + 1)
        cost.append(row)
    d = ins = sub = 0
    i, j = nr, nh
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + (r[i - 1] != h[j - 1]):
            sub += int(r[i - 1] != h[j - 1])
            i, j = i - 1, j - 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
            d += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return EditAlignment(deletions=d, insertions=ins, substitutions=sub, ref_len=nr)


def wer(refs, hyps) -> float:
    """Corpus word error rate: summed errors over summed reference length.

    Counts are pooled before dividing, so the value can exceed 1.0 when
    insertions dominate.
    """
    if len(refs) != len(hyps):
        raise ValueError(f"got {len(refs)} references but {len(hyps)} hypotheses")
    totals = [edit_align(r, h) for r, h in zip(refs, hyps)]
    n = sum(a.ref_len for a in totals)
    if n == 0:
        raise ValueError("total reference length is zero")
    return sum(a.errors for a in totals) / n


def _ngrams(seq, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def corpus_bleu(refs, hyps, max_n: int = 4) -> float:
    """Geometric mean of clipped n-gram precisions times brevity penalty.

    No smoothing: any zero precision (or hypotheses too short to contain an
    order-n n-gram) gives 0.0. Single reference per hypothesis.
    """
    if len(hyps) == 0 or len(refs) != len(hyps):
        raise ValueError("need equally many non-empty reference/hypothesis corpora")
    hyp_total = sum(len(h) for h in hyps)
    ref_total = sum(len(r) for r in refs)
    if hyp_total == 0:
        return 0.0
    log_precisions = []
    for n in range(1, max_n + 1):
        matched = 0
        possible = 0
        for r, h in zip(refs, hyps):
            hc = _ngrams(list(h), n)
            rc = _ngrams(list(r), n)
            matched += sum(min(c, rc[g]) for g, c in hc.items())
            possible += max(0, len(h) - n + 1)
        if possible == 0 or matched == 0:
            return 0.0
        log_precisions.append(math.log(matched / possible))
    bp = 1.0 if hyp_total > ref_total else math.exp(1.0 - ref_total / hyp_total)
    return bp * math.exp(sum(log_precisions) / max_n)


def attention_entropy(g) -> np.ndarray:
    """Shannon entropy (nats) of each attention row, with 0 * log 0 := 0."""
    data = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
    safe = np.where(data > 0.0, data, 1.0)
    return -(np.where(data > 0.0, data * np.log(safe), 0.0)).sum(axis=-1)
