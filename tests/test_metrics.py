"""WER/edit alignment against a recursive oracle, BLEU closed forms,
attention entropy."""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from helpers import random_stochastic_rows
from ratn.attention import relax_weights
from ratn.metrics import (EditAlignment, attention_entropy, corpus_bleu,
                          edit_align, wer)
from ratn.rng import RngStream
from ratn.tensor import Tensor


def brute_force_edit_distance(ref: tuple, hyp: tuple) -> int:
    """Independent recursive minimal edit distance."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        return min(go(i + 1, j + 1) + (ref[i] != hyp[j]),
                   go(i + 1, j) + 1,
                   go(i, j + 1) + 1)

    return go(0, 0)


def test_edit_align_identical():
    a = edit_align([1, 2, 3], [1, 2, 3])
    assert (a.deletions, a.insertions, a.substitutions) == (0, 0, 0)
    assert a.ref_len == 3


def test_edit_align_worked_example():
    a = edit_align(["a", "b", "c"], ["a", "x", "c", "d"])
    assert a.substitutions == 1
    assert a.insertions == 1
    assert a.deletions == 0
    assert a.ref_len == 3


def test_edit_align_pure_deletion():
    a = edit_align(["a"], [])
    assert (a.deletions, a.insertions, a.substitutions) == (1, 0, 0)


def test_edit_align_prefers_substitution_over_insert_delete():
    a = edit_align(["a", "b"], ["b", "a"])
    assert a.errors == 2
    assert a.substitutions == 2
    assert a.deletions == 0 and a.insertions == 0


def test_edit_align_counts_are_consistent():
    rng = RngStream(0, "t")
    for _ in range(200):
        ref = rng.integers(0, 4, int(rng.integers(0, 7))).tolist()
        hyp = rng.integers(0, 4, int(rng.integers(0, 7))).tolist()
        a = edit_align(ref, hyp)
        assert a.deletions + a.substitutions <= a.ref_len
        assert len(hyp) == a.ref_len - a.deletions + a.insertions


def test_edit_align_matches_recursive_oracle_exhaustively():
    # all pairs with lengths <= 3 over a 4-symbol vocabulary, exhaustively
    seqs = [tuple(s) for n in range(4) for s in itertools.product(range(4),
                                                                  repeat=n)]
    for ref in seqs:
        for hyp in seqs:
            assert edit_align(ref, hyp).errors == brute_force_edit_distance(ref, hyp)


def test_edit_align_matches_recursive_oracle_sampled_longer():
    # randomized coverage of lengths up to 6 over a 4-symbol vocabulary
    rng = RngStream(1, "t")
    for _ in range(1500):
        ref = tuple(rng.integers(0, 4, int(rng.integers(0, 7))).tolist())
        hyp = tuple(rng.integers(0, 4, int(rng.integers(0, 7))).tolist())
        assert edit_align(ref, hyp).errors == brute_force_edit_distance(ref, hyp)


def test_wer_identity_and_order_invariance():
    refs = [[1, 2], [3], [4, 5, 6]]
    assert wer(refs, refs) == 0.0
    hyps = [[1, 9], [3], [4, 5]]
    assert wer(refs, hyps) == wer(refs[::-1], hyps[::-1])


def test_wer_worked_example():
    assert abs(wer([["a", "b", "c"]], [["a", "x", "c", "d"]]) - 2 / 3) < 1e-15


def test_wer_can_reach_one_with_insertions():
    refs = [[1], [2], [3]]
    hyps = [[1, 9], [2, 9], [3, 9]]
    assert wer(refs, hyps) == 1.0


def test_wer_validation():
    with pytest.raises(ValueError):
        wer([[1]], [[1], [2]])
    with pytest.raises(ValueError):
        wer([[]], [[1]])


def test_bleu_identity():
    corpus = [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]]
    assert corpus_bleu(corpus, corpus) == 1.0


def test_bleu_disjoint_vocabulary():
    assert corpus_bleu([[1, 2, 3, 4]], [[5, 6, 7, 8]]) == 0.0


def test_bleu_worked_brevity_penalty_example():
    ref = [["the", "cat", "sat"]]
    hyp = [["the", "cat"]]
    value = corpus_bleu(ref, hyp, max_n=2)
    assert abs(value - math.exp(1 - 3 / 2)) < 1e-12
    assert abs(value - 0.60653) < 1e-5


def test_bleu_corpus_permutation_invariance():
    refs = [[1, 2, 3], [4, 5, 6, 7], [1, 5, 3]]
    hyps = [[1, 2, 3], [4, 5, 7], [1, 5]]
    assert corpus_bleu(refs, hyps) == corpus_bleu(refs[::-1], hyps[::-1])


def test_bleu_empty_hypothesis_corpus_errors():
    with pytest.raises(ValueError):
        corpus_bleu([], [])


def test_attention_entropy_closed_forms():
    assert abs(attention_entropy(np.full((1, 5), 0.2))[0] - math.log(5)) < 1e-12
    assert attention_entropy(np.array([[0.0, 1.0, 0.0]]))[0] == 0.0
    assert abs(attention_entropy(np.array([[0.5, 0.5, 0.0]]))[0]
               - math.log(2)) < 1e-12


def test_attention_entropy_rises_under_relaxation():
    rng = RngStream(2, "t")
    g = random_stochastic_rows(rng, (64, 6))
    before = attention_entropy(g)
    for gamma in (0.1, 0.5, 1.0):
        after = attention_entropy(relax_weights(Tensor(g), gamma))
        assert np.all(after >= before - 1e-12)
