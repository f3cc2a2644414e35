"""Window classifier: probability contract, relaxation wiring, learning."""

import dataclasses

import numpy as np

from ratn.attention import Phase, RelaxationConfig
from ratn.tasks import WindowClassifySpec, gen_window_classify
from ratn.training import TrainConfig
from ratn.window_classifier import (WindowClassifier, WindowClassifierConfig,
                                    train_classifier)

SPEC = WindowClassifySpec(height=4, width=4, channels=8, window=2, n_classes=3,
                          n_train=256, n_dev=48, n_test=96, data_seed=5,
                          pattern_scale=1.5)
CFG = WindowClassifierConfig(channels=8, window=2, n_heads=2, n_classes=3)


def test_forward_is_a_distribution():
    model = WindowClassifier(CFG, seed=0)
    x = gen_window_classify(SPEC).dev.inputs[:5]
    probs = model.forward(x).data
    assert probs.shape == (5, 3)
    assert probs.min() >= 0.0
    assert np.abs(probs.sum(-1) - 1.0).max() < 1e-10


def test_relaxation_mode_gating():
    data = gen_window_classify(SPEC)
    x = data.dev.inputs[:3]
    train_only = WindowClassifier(dataclasses.replace(
        CFG, relax=RelaxationConfig(0.3, mode="train_only")), seed=1)
    off = WindowClassifier(CFG, seed=1)
    assert np.array_equal(train_only.forward(x).data, off.forward(x).data)
    matched = WindowClassifier(dataclasses.replace(
        CFG, relax=RelaxationConfig(0.3, mode="matched")), seed=1)
    assert np.abs(matched.forward(x).data - off.forward(x).data).max() > 1e-9


def test_fuzzy_training_draws_fresh_gammas():
    cfg = dataclasses.replace(
        CFG, relax=RelaxationConfig(0.1, sigma2=0.0009, mode="matched", fuzzy=True))
    model = WindowClassifier(cfg, seed=2)
    x = gen_window_classify(SPEC).dev.inputs[:2]
    gammas = []
    for _ in range(4):
        model.forward(x, Phase.TRAIN)
        gammas.extend(model.last_gammas["window"])
    assert len(gammas) == 4 and len(set(gammas)) == 4
    model.forward(x, Phase.EVAL)
    assert model.last_gammas["window"] == [0.1]


def test_classifier_learns_the_patterns():
    data = gen_window_classify(SPEC)
    model = WindowClassifier(CFG, seed=3)
    before = model.accuracy(data.test.inputs, data.test.labels)
    train_classifier(model, data.train.inputs, data.train.labels,
                     TrainConfig(steps=300, batch_size=16, seed=3, lr=3e-3,
                                 eval_every=300))
    after = model.accuracy(data.test.inputs, data.test.labels)
    assert after > max(before, 0.7)


def test_classifier_training_stops_at_target_eval_acc():
    data = gen_window_classify(SPEC)
    model = WindowClassifier(CFG, seed=5)
    recs = train_classifier(model, data.train.inputs, data.train.labels,
                            TrainConfig(steps=20, batch_size=8, seed=5,
                                        eval_every=5, target_eval_acc=0.0),
                            dev=(data.dev.inputs, data.dev.labels))
    assert [r["step"] for r in recs] == [1, 2, 3, 4, 5]
    assert recs[-1]["eval_acc"] is not None


def test_classifier_training_is_deterministic():
    data = gen_window_classify(SPEC)
    finals = []
    for _ in range(2):
        model = WindowClassifier(CFG, seed=4)
        recs = train_classifier(model, data.train.inputs, data.train.labels,
                                TrainConfig(steps=20, batch_size=8, seed=4))
        finals.append(recs[-1]["loss"])
    assert finals[0] == finals[1]
