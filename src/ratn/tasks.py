"""Synthetic tasks: their parameter specs and seeded data generators, which
build a SequenceTaskData or a WindowClassifyData. The table that names each
task's spec and generator is experiment.TASKS.

Copy/reverse are seq2seq sanity tasks. The toy translation task is built so
an external language model has something real to contribute: a few source
tokens are ambiguous between two target variants, the correct variant is
fixed by the class of the preceding target (context) token, and the training
corpus only ever shows ambiguous tokens after a small, skewed subset of
contexts. A text-only "extended" corpus exhibits the rule after every
context, so a bigram LM trained on it can resolve cases the translation
model never saw, while an LM trained on the training transcripts alone
cannot add much beyond what the model already internalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .transformer import NUM_SPECIAL


@dataclass
class ParallelCorpus:
    sources: np.ndarray  # [N, T_src] int64
    targets: np.ndarray  # [N, T_tgt] int64

    def __len__(self) -> int:
        return len(self.sources)


@dataclass
class SequenceTaskData:
    """Parallel splits of a seq2seq task and its LM text corpora."""

    train: ParallelCorpus
    dev: ParallelCorpus
    test: ParallelCorpus
    text: dict[str, np.ndarray]  # lm corpus name -> target-side sequences
    vocab_size: int


def _check_split_sizes(spec) -> None:
    """Every split needs a row: an empty dev or test split would fail each
    cell only after training it."""
    for name in ("n_train", "n_dev", "n_test"):
        if getattr(spec, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(spec, name)}")


@dataclass(frozen=True)
class CopyTaskSpec:
    """Vocabulary, sequence length and split sizes of copy and reverse."""

    vocab_size: int = 16
    length: int = 6
    n_train: int = 2048
    n_dev: int = 64
    n_test: int = 128
    data_seed: int = 1234

    def __post_init__(self):
        _check_split_sizes(self)


def gen_copy_task(rng: RngStream, vocab_size: int, length: int,
                  n: int) -> ParallelCorpus:
    """Pairs with target == source, tokens i.i.d. uniform over content ids."""
    if vocab_size <= NUM_SPECIAL:
        raise ValueError(f"vocab_size must exceed {NUM_SPECIAL} reserved ids")
    src = rng.integers(NUM_SPECIAL, vocab_size, (n, length)).astype(np.int64)
    return ParallelCorpus(sources=src, targets=src.copy())


def gen_reverse_task(rng: RngStream, vocab_size: int, length: int,
                     n: int) -> ParallelCorpus:
    """Pairs with target = reversed source."""
    corpus = gen_copy_task(rng, vocab_size, length, n)
    return ParallelCorpus(sources=corpus.sources,
                          targets=corpus.sources[:, ::-1].copy())


def gen_copy_splits(spec: CopyTaskSpec, gen) -> SequenceTaskData:
    """Seeded splits of gen; the LM text is the training targets."""
    rng = RngStream(spec.data_seed, "data")
    train, dev, test = (
        gen(rng.child(label), spec.vocab_size, spec.length, n)
        for label, n in (("train", spec.n_train), ("dev", spec.n_dev),
                         ("test", spec.n_test)))
    return SequenceTaskData(train=train, dev=dev, test=test,
                            text={"in_domain": train.targets},
                            vocab_size=spec.vocab_size)


# ---------------------------------------------------------------------------
# toy translation


@dataclass(frozen=True)
class ToyTranslateSpec:
    """Layout and sampling rates for the toy translation task.

    Sequences alternate context and content tokens: [ctx, word] * slots.
    Context tokens are shared between source and target; regular content
    tokens map through a fixed bijection; ambiguous source tokens map to one
    of two target variants depending on whether the preceding context token
    has even (class A) or odd (class B) index. In the training corpus,
    ambiguous words only ever follow the first n_train_contexts contexts,
    class A with probability train_context_skew; dev/test draw every context
    uniformly everywhere.
    """

    n_contexts: int = 8
    n_train_contexts: int = 2
    n_regular: int = 6
    n_ambiguous: int = 4
    slots: int = 4
    ambiguity_rate: float = 0.35
    train_context_skew: float = 0.75
    n_train: int = 600
    n_dev: int = 100
    n_test: int = 200
    n_text_extended: int = 3000
    data_seed: int = 1234

    def __post_init__(self):
        _check_split_sizes(self)
        if not 0.0 <= self.ambiguity_rate < 0.5:
            raise ValueError(f"ambiguity_rate must be in [0, 0.5), "
                             f"got {self.ambiguity_rate}")
        if not 2 <= self.n_train_contexts <= self.n_contexts:
            raise ValueError("need at least one class-A and one class-B "
                             "training context")

    # id layout: specials | contexts | src regular | src ambiguous
    #            | tgt regular | tgt variants (u_j, v_j interleaved)
    @property
    def ctx_base(self) -> int:
        return NUM_SPECIAL

    @property
    def src_regular_base(self) -> int:
        return self.ctx_base + self.n_contexts

    @property
    def src_ambiguous_base(self) -> int:
        return self.src_regular_base + self.n_regular

    @property
    def tgt_regular_base(self) -> int:
        return self.src_ambiguous_base + self.n_ambiguous

    @property
    def tgt_variant_base(self) -> int:
        return self.tgt_regular_base + self.n_regular

    @property
    def vocab_size(self) -> int:
        return self.tgt_variant_base + 2 * self.n_ambiguous

    def context_is_class_a(self, ctx_id: int) -> bool:
        return (ctx_id - self.ctx_base) % 2 == 0

    def variant_for(self, src_id: int, ctx_id: int) -> int:
        j = src_id - self.src_ambiguous_base
        pick = 0 if self.context_is_class_a(ctx_id) else 1
        return self.tgt_variant_base + 2 * j + pick


def _translate_pair(spec: ToyTranslateSpec, rng: RngStream,
                    restrict_ambiguous_contexts: bool) -> tuple[list[int], list[int]]:
    src: list[int] = []
    tgt: list[int] = []
    for _ in range(spec.slots):
        ambiguous = (spec.ambiguity_rate > 0
                     and rng.uniform() < spec.ambiguity_rate)
        if ambiguous and restrict_ambiguous_contexts:
            # Skewed pick among the training contexts: class A with
            # probability train_context_skew, else class B.
            class_a = rng.uniform() < spec.train_context_skew
            pool_a = [i for i in range(spec.n_train_contexts) if i % 2 == 0]
            pool_b = [i for i in range(spec.n_train_contexts) if i % 2 == 1]
            pool = pool_a if class_a else pool_b
            ctx = spec.ctx_base + pool[int(rng.integers(0, len(pool)))]
        else:
            ctx = spec.ctx_base + int(rng.integers(0, spec.n_contexts))
        if ambiguous:
            word = spec.src_ambiguous_base + int(rng.integers(0, spec.n_ambiguous))
            out = spec.variant_for(word, ctx)
        else:
            word = spec.src_regular_base + int(rng.integers(0, spec.n_regular))
            out = word - spec.src_regular_base + spec.tgt_regular_base
        src += [ctx, word]
        tgt += [ctx, out]
    return src, tgt


def _translate_corpus(spec: ToyTranslateSpec, rng: RngStream, n: int,
                      restrict: bool) -> ParallelCorpus:
    sources = np.empty((n, 2 * spec.slots), dtype=np.int64)
    targets = np.empty_like(sources)
    for i in range(n):  # row by row: n pairs are never held as lists
        sources[i], targets[i] = _translate_pair(spec, rng, restrict)
    return ParallelCorpus(sources=sources, targets=targets)


def gen_toy_translate(spec: ToyTranslateSpec) -> SequenceTaskData:
    """Parallel splits plus both LM text corpora, seeded: "in_domain" (the
    training transcripts) and "extended"."""
    rng = RngStream(spec.data_seed, "data")
    train = _translate_corpus(spec, rng.child("train"), spec.n_train, restrict=True)
    dev = _translate_corpus(spec, rng.child("dev"), spec.n_dev, restrict=False)
    test = _translate_corpus(spec, rng.child("test"), spec.n_test, restrict=False)
    extended = _translate_corpus(spec, rng.child("extended"),
                                 spec.n_text_extended, restrict=False)
    return SequenceTaskData(train=train, dev=dev, test=test,
                            text={"in_domain": train.targets,
                                  "extended": extended.targets},
                            vocab_size=spec.vocab_size)


# ---------------------------------------------------------------------------
# window classification


@dataclass(frozen=True)
class WindowClassifySpec:
    """Tiny feature grids whose class shows as a local window pattern."""

    height: int = 8
    width: int = 8
    channels: int = 8
    window: int = 4
    n_classes: int = 4
    pattern_scale: float = 1.0
    noise_std: float = 0.5
    n_train: int = 512
    n_dev: int = 128
    n_test: int = 256
    data_seed: int = 1234

    def __post_init__(self):
        _check_split_sizes(self)
        if self.height % self.window or self.width % self.window:
            raise ValueError("grid dims must be divisible by the window side")


@dataclass
class ClassifyCorpus:
    inputs: np.ndarray  # [N, h, w, c] float64
    labels: np.ndarray  # [N] int64

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class WindowClassifyData:
    spec: WindowClassifySpec
    train: ClassifyCorpus
    dev: ClassifyCorpus
    test: ClassifyCorpus
    templates: np.ndarray  # [n_classes, window, window, c]


def _classify_corpus(spec: WindowClassifySpec, templates: np.ndarray,
                     rng: RngStream, n: int) -> ClassifyCorpus:
    m = spec.window
    rows, cols = spec.height // m, spec.width // m
    x = rng.normal((n, spec.height, spec.width, spec.channels), 0.0, spec.noise_std)
    labels = rng.integers(0, spec.n_classes, n).astype(np.int64)
    slots = rng.integers(0, rows * cols, n)
    for i in range(n):
        r, c = divmod(int(slots[i]), cols)
        x[i, r * m:(r + 1) * m, c * m:(c + 1) * m, :] += templates[labels[i]]
    return ClassifyCorpus(inputs=x, labels=labels)


def gen_window_classify(spec: WindowClassifySpec) -> WindowClassifyData:
    """Class templates stamped into one window of a noisy grid, seeded."""
    rng = RngStream(spec.data_seed, "data")
    templates = spec.pattern_scale * rng.child("templates").normal(
        (spec.n_classes, spec.window, spec.window, spec.channels))
    return WindowClassifyData(
        spec=spec,
        train=_classify_corpus(spec, templates, rng.child("train"), spec.n_train),
        dev=_classify_corpus(spec, templates, rng.child("dev"), spec.n_dev),
        test=_classify_corpus(spec, templates, rng.child("test"), spec.n_test),
        templates=templates)

