"""ratn: a desk-scale transformer library built around relaxed attention.

Uniform smoothing of attention weights (with matched-inference and fuzzy
variants), windowed attention with relative position bias, beam search
with shallow LM fusion, and a seeded experiment harness -- all on a small
float64 autodiff core.
"""

from .attention import (MODE_MATCHED, MODE_OFF, MODE_TRAIN_ONLY, MhaParams,
                        Phase, RelaxationConfig, WindowAttnParams, dropout,
                        multi_head_attention, relax_weights, windowed_mha)
from .decoding import (BeamHypothesis, BigramLm, beam_search,
                       beam_search_batch, bigram_lm_train, greedy_decode,
                       shallow_fusion)
from .metrics import EditAlignment, attention_entropy, corpus_bleu, edit_align, wer
from .rng import RngStream
from .tensor import Tensor, backward, finite_diff_grad, no_grad
from .training import TrainConfig, adam_step, label_smoothed_nll, train
from .transformer import BOS_ID, EOS_ID, PAD_ID, ModelConfig, Seq2SeqModel

__version__ = "0.1.0"

__all__ = [
    "BOS_ID", "BeamHypothesis", "BigramLm", "EOS_ID", "EditAlignment",
    "MODE_MATCHED", "MODE_OFF", "MODE_TRAIN_ONLY", "MhaParams", "ModelConfig",
    "PAD_ID", "Phase", "RelaxationConfig", "RngStream", "Seq2SeqModel",
    "Tensor", "TrainConfig", "WindowAttnParams", "adam_step",
    "attention_entropy", "backward", "beam_search", "beam_search_batch",
    "bigram_lm_train", "corpus_bleu", "dropout", "edit_align",
    "finite_diff_grad", "greedy_decode", "label_smoothed_nll",
    "multi_head_attention", "no_grad", "relax_weights", "shallow_fusion",
    "train", "wer", "windowed_mha",
]
