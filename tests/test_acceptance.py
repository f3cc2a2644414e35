"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavy criteria (10 and 12) train real models and
dominate the runtime.
"""

import dataclasses
import itertools
import json
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from helpers import rel_err, random_stochastic_rows
from ratn.attention import (MhaParams, Phase, RelaxationConfig,
                            WindowAttnParams, multi_head_attention,
                            relax_weights, sample_fuzzy_gamma, windowed_mha)
from ratn.decoding import BigramLm, beam_search, bigram_lm_train, greedy_decode
from ratn.experiment import (ExperimentSpec, LmSpec, RelaxSetting,
                             build_task_data, gamma_sweep,
                             ilm_suppression_report, run_experiment)
from ratn.metrics import attention_entropy, corpus_bleu, edit_align, wer
from ratn.rng import RngStream
from ratn.tensor import Tensor, backward, finite_diff_grad
from ratn.training import TrainConfig, train
from ratn.transformer import BOS_ID, EOS_ID, ModelConfig, Seq2SeqModel


def _report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


# ---------------------------------------------------------------------------
# 1. relaxation exactness


def test_criterion_01_relaxation_exactness():
    start = time.time()
    rng = RngStream(101, "acceptance")
    ok = True
    for _ in range(10):
        g = random_stochastic_rows(rng, (100, 5, 7))  # 1000 matrices total
        cols = g.shape[-1]
        for gamma in (0.0, 0.25, 0.5, 1.0):
            out = relax_weights(Tensor(g), gamma).data
            ok &= bool(np.abs(out.sum(-1) - 1.0).max() < 1e-12)
            ok &= bool(out.min() >= gamma / cols - 1e-12)
            ok &= bool(out.max() <= 1 - gamma + gamma / cols + 1e-12)
            if gamma == 0.0:
                ok &= bool(np.array_equal(out, g))
            if gamma == 1.0:
                ok &= bool(np.abs(out - 1.0 / cols).max() < 1e-15)
    elapsed = time.time() - start
    _report("criterion 1: relaxation exactness on 1000 random matrices",
            ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_composition_law():
    start = time.time()
    rng = RngStream(102, "acceptance")
    g = random_stochastic_rows(rng, (200, 6))
    ok = True
    for a in np.linspace(0.0, 1.0, 6):
        for b in np.linspace(0.0, 1.0, 6):
            lhs = relax_weights(relax_weights(Tensor(g), a), b).data
            rhs = relax_weights(Tensor(g), a + b - a * b).data
            ok &= bool(np.abs(lhs - rhs).max() < 1e-12)
    elapsed = time.time() - start
    _report("criterion 2: relaxation composition law",
            ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_03_entropy_monotonicity():
    start = time.time()
    rng = RngStream(103, "acceptance")
    g = random_stochastic_rows(rng, (1000, 8))
    before = attention_entropy(g)
    ok = True
    for gamma in (0.1, 0.4, 0.75, 1.0):
        after = attention_entropy(relax_weights(Tensor(g), gamma).data)
        ok &= bool(np.all(after >= before - 1e-12))
        ok &= bool(np.all(after > before))  # rows are non-uniform w.p. 1
    elapsed = time.time() - start
    _report("criterion 3: entropy never decreases under relaxation",
            ok and elapsed < 1.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. MHA gradient suite


def _mha_variant_grad_check(rng, gamma, use_window):
    d, nh, t = 8, 2, 5
    init = RngStream(int(rng.integers(0, 2 ** 31)), "init")
    if use_window:
        params = WindowAttnParams.init(d, nh, 2, init)
        x = Tensor(rng.normal((2, 2, d)))
        probe = rng.normal((2, 2, d))

        def forward():
            return (windowed_mha(x, params, gamma) * probe).sum()

        tensors = params.tensors()
    else:
        params = MhaParams.init(d, nh, init)
        q = Tensor(rng.normal((t, d)))
        kv = Tensor(rng.normal((t, d)))
        probe = rng.normal((t, d))

        def forward():
            return (multi_head_attention(q, kv, params, gamma) * probe).sum()

        tensors = params.tensors()
    for t_param in tensors.values():
        t_param.grad = None
    backward(forward())
    for name, t_param in tensors.items():
        def f(val, t_param=t_param):
            saved = t_param.data
            t_param.data = val.data
            try:
                return forward()
            finally:
                t_param.data = saved

        fd = finite_diff_grad(f, Tensor(t_param.data.copy()))
        if rel_err(t_param.grad, fd) >= 1e-5:
            return False, name
    return True, ""


def test_criterion_04_gradient_suite():
    start = time.time()
    rng = RngStream(104, "acceptance")
    variants = [(0.0, False), (0.3, False), (0.0, True), (0.3, True)]
    ok = True
    for gamma, use_window in variants:
        for _ in range(20):
            good, which = _mha_variant_grad_check(rng, gamma, use_window)
            ok &= good
    elapsed = time.time() - start
    _report("criterion 4: MHA gradient suite (4 variants x 20 instances)",
            ok and elapsed < 30.0, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5-6. teacher forcing and causality


def test_criterion_05_teacher_forcing_equivalence():
    start = time.time()
    cfg = ModelConfig(n_enc=2, n_dec=2, n_heads=2, d_model=16, d_ff=32,
                      vocab_size=12, max_len=12, dropout_residual=0.0,
                      dropout_activation=0.0, dropout_attention=0.0)
    ok = True
    for seed in range(3):
        model = Seq2SeqModel(cfg, seed=seed)
        x = [3, 4, 5, 6, 7]
        y = [BOS_ID, 5, 6, 7, 8, 9, 10]
        h = model.encode(x)
        parallel = model.forward_teacher_forced(x, y).data
        for ell in range(1, len(y) + 1):
            step = model.decode_step(h, y[:ell])
            ok &= bool(np.abs(parallel[ell - 1] - step).max() < 1e-10)
    elapsed = time.time() - start
    _report("criterion 5: parallel forward equals sequential decoding",
            ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_06_causality_exact_zero_gradients():
    cfg = ModelConfig(n_enc=1, n_dec=2, n_heads=2, d_model=16, d_ff=32,
                      vocab_size=12, max_len=12, dropout_residual=0.0,
                      dropout_activation=0.0, dropout_attention=0.0)
    model = Seq2SeqModel(cfg, seed=0)
    h = model.encode([3, 4, 5, 6])
    length = 6
    emb = Tensor(RngStream(106, "acceptance").normal((length, 16)),
                 requires_grad=True)
    ok = True
    for ell in range(length):
        emb.grad = None
        probs = model._decode_from_embeddings(h, emb, Phase.EVAL)
        pick = np.zeros(probs.shape)
        pick[ell, 4] = 1.0  # selects probability (ell, 4)
        backward((probs * -pick).sum())
        ok &= bool(np.all(emb.grad[ell + 1:] == 0.0))
        ok &= bool(np.abs(emb.grad[:ell + 1]).max() > 0)
    _report("criterion 6: exact zero gradient to future target embeddings", ok)


# ---------------------------------------------------------------------------
# 7-8. beam search oracle and identities


def _enumerate_candidates(vocab, max_len):
    alphabet = [t for t in range(vocab) if t != EOS_ID]
    for body_len in range(max_len):
        for body in itertools.product(alphabet, repeat=body_len):
            yield list(body) + [EOS_ID]
    for body in itertools.product(alphabet, repeat=max_len):
        yield list(body)


def _score_candidate(model, h, tokens, lm, lam):
    prefix = [BOS_ID]
    total = 0.0
    for tok in tokens:
        p = model.decode_step(h, prefix)
        total += math.log(max(p[tok], 1e-300))
        if lm is not None and lam > 0:
            total += lam * lm.log_probs(prefix)[tok]
        prefix = prefix + [tok]
    return total


def test_criterion_07_beam_search_oracle():
    start = time.time()
    rng = RngStream(107, "acceptance")
    cfg = ModelConfig(n_enc=1, n_dec=1, n_heads=2, d_model=8, d_ff=16,
                      vocab_size=4, max_len=8, dropout_residual=0.0,
                      dropout_activation=0.0, dropout_attention=0.0)
    ok = True
    for seed in range(10):
        model = Seq2SeqModel(cfg, seed=seed)
        h = model.encode([3, 3, 3])
        lm = BigramLm(np.abs(rng.normal((4, 4))) * 4, k=0.5)
        for lam in (0.0, 0.4):
            scored = [(_score_candidate(model, h, c, lm, lam), c)
                      for c in _enumerate_candidates(4, 4)]
            best = max(scored, key=lambda sc: (sc[0] / len(sc[1]), sc[0]))
            hyps = beam_search(model, h, beam=256, lm=lm, lam=lam, max_len=4,
                               eos_margin=1e9)
            ok &= hyps[0].tokens[1:] == best[1]
            ok &= abs(hyps[0].score - best[0]) < 1e-10
    elapsed = time.time() - start
    _report("criterion 7: beam search equals brute-force enumeration",
            ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_08_fusion_identities():
    cfg = ModelConfig(n_enc=1, n_dec=1, n_heads=2, d_model=8, d_ff=16,
                      vocab_size=8, max_len=10, dropout_residual=0.0,
                      dropout_activation=0.0, dropout_attention=0.0)
    rng = RngStream(108, "acceptance")
    ok = True
    for case in range(100):
        model = Seq2SeqModel(cfg, seed=case % 10)
        src = rng.integers(3, 8, 3).tolist()
        h = model.encode(src)
        lm = BigramLm(np.abs(rng.normal((8, 8))) * 3, k=1.0)
        lam0 = beam_search(model, h, beam=2, lm=lm, lam=0.0, max_len=5)
        no_lm = beam_search(model, h, beam=2, lm=None, max_len=5)
        ok &= [hh.tokens for hh in lam0] == [hh.tokens for hh in no_lm]
        beam1 = beam_search(model, h, beam=1, max_len=5)
        ok &= beam1[0].tokens == greedy_decode(model, h, 5)
    _report("criterion 8: lambda=0 equals no-LM; beam=1 equals greedy "
            "(100 inputs)", ok)


# ---------------------------------------------------------------------------
# 9. WER / BLEU oracles


def _recursive_edit_distance(ref, hyp):
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        return min(go(i + 1, j + 1) + (ref[i] != hyp[j]),
                   go(i + 1, j) + 1, go(i, j + 1) + 1)

    return go(0, 0)


def test_criterion_09_wer_bleu_oracles():
    start = time.time()
    ok = True
    # exhaustive over all pairs with lengths <= 3 of a 4-symbol vocabulary
    seqs = [tuple(s) for n in range(4)
            for s in itertools.product(range(4), repeat=n)]
    for ref in seqs:
        for hyp in seqs:
            ok &= edit_align(ref, hyp).errors == _recursive_edit_distance(ref, hyp)
    # randomized coverage of the remaining lengths up to 6
    rng = RngStream(109, "acceptance")
    for _ in range(3000):
        ref = tuple(rng.integers(0, 4, int(rng.integers(4, 7))).tolist())
        hyp = tuple(rng.integers(0, 4, int(rng.integers(0, 7))).tolist())
        ok &= edit_align(ref, hyp).errors == _recursive_edit_distance(ref, hyp)
    corpus = [[1, 2, 3], [2, 3, 4, 5]]
    ok &= corpus_bleu(corpus, corpus) == 1.0
    ok &= abs(corpus_bleu([["the", "cat", "sat"]], [["the", "cat"]], max_n=2)
              - 0.60653) < 1e-5
    elapsed = time.time() - start
    _report("criterion 9: edit alignment vs recursive oracle; BLEU closed forms",
            ok, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 13. fuzzy relaxation statistics


def test_criterion_13_fuzzy_statistics():
    cfg = RelaxationConfig(gamma0=0.1, sigma2=0.03 ** 2, mode="matched",
                           fuzzy=True)
    rng = RngStream(113, "fuzzy-gamma")
    n = 100000
    draws = np.array([sample_fuzzy_gamma(cfg, rng, Phase.TRAIN)
                      for _ in range(n)])
    ok = bool(draws.min() >= 0.0 and draws.max() <= 1.0)
    ok &= abs(draws.mean() - 0.1) < 3 * 0.03 / math.sqrt(n)
    ok &= sample_fuzzy_gamma(cfg, None, Phase.EVAL) == 0.1
    _report("criterion 13: fuzzy gamma sample statistics and matched eval",
            ok, f"mean={draws.mean():.5f}")


# ---------------------------------------------------------------------------
# 10. copy-task convergence


DESK_MODEL = {"n_enc": 2, "n_dec": 2, "n_heads": 4, "d_model": 32, "d_ff": 64}


def _copy_convergence(relax_self: RelaxationConfig) -> tuple[bool, int]:
    data = build_task_data("copy", {})
    cfg = ModelConfig(**DESK_MODEL, vocab_size=16, max_len=16,
                      relax_self=relax_self)
    model = Seq2SeqModel(cfg, seed=0)
    tcfg = TrainConfig(steps=2000, batch_size=32, seed=0, eval_every=250,
                       target_eval_acc=0.95)
    records = train(model, data.train.sources, data.train.targets, tcfg,
                    dev=(data.dev.sources, data.dev.targets))
    best = max((r["eval_acc"] or 0.0) for r in records)
    return best >= 0.95, records[-1]["step"]


@pytest.mark.slow
def test_criterion_10_copy_task_convergence():
    start = time.time()
    ok_base, steps_base = _copy_convergence(RelaxationConfig())
    ok_relaxed, steps_relaxed = _copy_convergence(
        RelaxationConfig(gamma0=0.01, mode="train_only"))
    elapsed = time.time() - start
    _report("criterion 10: copy task >= 95% sequence accuracy within 2000 "
            "steps, baseline and relaxed",
            ok_base and ok_relaxed and elapsed < 360.0,
            f"steps {steps_base}/{steps_relaxed}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 11. mode contract on a trained model


def test_criterion_11_mode_contract():
    data = build_task_data("copy", {"n_train": 256, "length": 5})
    relax = RelaxationConfig(gamma0=0.2, mode="train_only")
    cfg = ModelConfig(**DESK_MODEL, vocab_size=16, max_len=16,
                      relax_self=relax, relax_cross=relax)
    model = Seq2SeqModel(cfg, seed=0)
    train(model, data.train.sources, data.train.targets,
          TrainConfig(steps=150, batch_size=16, seed=0, eval_every=10 ** 9))
    x = data.test.sources[0]
    y = [BOS_ID] + data.test.targets[0].tolist()

    def eval_with(mode: str) -> np.ndarray:
        alt = ModelConfig(**DESK_MODEL, vocab_size=16, max_len=16,
                          relax_self=RelaxationConfig(0.2, mode=mode),
                          relax_cross=RelaxationConfig(0.2, mode=mode))
        clone = Seq2SeqModel(alt, seed=123)
        for name, t in clone.parameters().items():
            t.data = model.parameters()[name].data
        return clone.forward_teacher_forced(x, y, Phase.EVAL).data

    trained_eval = model.forward_teacher_forced(x, y, Phase.EVAL).data
    off_eval = eval_with("off")
    matched_eval = eval_with("matched")
    ok = bool(np.array_equal(trained_eval, off_eval))
    ok &= bool(np.abs(matched_eval - off_eval).max() > 1e-9)
    _report("criterion 11: train-only eval is bit-identical to off; "
            "matched differs", ok)


# ---------------------------------------------------------------------------
# 14. gamma sweep sanity


def test_criterion_14_gamma_sweep(tmp_path):
    fast = dict(task="copy",
                task_params={"vocab_size": 10, "length": 4, "n_train": 64,
                             "n_dev": 8, "n_test": 8, "data_seed": 5},
                model={"n_enc": 1, "n_dec": 1, "n_heads": 2, "d_model": 16,
                       "d_ff": 32, "dropout_residual": 0.0,
                       "dropout_activation": 0.0, "dropout_attention": 0.0},
                train={"steps": 25, "batch_size": 8, "eval_every": 25},
                seeds=(0, 1), beam=2)
    spec = ExperimentSpec(**fast, relax_grid=(RelaxSetting(site="none"),),
                          gamma_grid={"self": [0.0, 0.01, 0.05],
                                      "cross": [0.0, 0.2]},
                          output_dir=str(tmp_path / "sweep"))
    csv_path = gamma_sweep(spec)
    lines = csv_path.read_text().strip().splitlines()
    n_rows = len(lines) - 1
    ok = n_rows == 5 * 2  # |grid| x |seeds|
    base = run_experiment(ExperimentSpec(
        **fast, relax_grid=(RelaxSetting(site="none"),),
        output_dir=str(tmp_path / "base")))
    base_rows = [json.loads(l) for l in open(base["results"])
                 if json.loads(l).get("type") == "result"]
    base_dev = {r["seed"]: r["value"] for r in base_rows
                if r["split"] == "dev" and r["lm"] == "none"}
    zero_rows = [l for l in lines[1:] if l.split(",")[1] == "0"]
    ok &= len(zero_rows) == 4  # two sites x two seeds
    for line in zero_rows:
        site, gamma, seed, metric, value = line.split(",")
        ok &= float(value) == base_dev[int(seed)]
    _report("criterion 14: gamma sweep rows and bit-identical gamma=0 point",
            ok, f"{n_rows} rows")


# ---------------------------------------------------------------------------
# 15. determinism and persistence


def test_criterion_15_determinism_and_persistence(tmp_path):
    from ratn.checkpoint import load_model, save_model
    fast = dict(task="copy",
                task_params={"vocab_size": 10, "length": 4, "n_train": 64,
                             "n_dev": 8, "n_test": 8, "data_seed": 6},
                model={"n_enc": 1, "n_dec": 1, "n_heads": 2, "d_model": 16,
                       "d_ff": 32},
                train={"steps": 25, "batch_size": 8, "eval_every": 25},
                seeds=(0,), beam=2,
                relax_grid=(RelaxSetting(site="none"),
                            RelaxSetting(site="self", gamma=0.05,
                                         mode="matched")),
                lm=LmSpec(corpora=("in_domain",), lambda_grid=(0.1,)))
    a = run_experiment(ExperimentSpec(**fast, output_dir=str(tmp_path / "a")))
    b = run_experiment(ExperimentSpec(**fast, output_dir=str(tmp_path / "b")))
    ok = a["results"].read_bytes() == b["results"].read_bytes()
    ok &= a["summary"].read_bytes() == b["summary"].read_bytes()

    data = build_task_data("copy", fast["task_params"])
    cfg = ModelConfig(n_enc=1, n_dec=1, n_heads=2, d_model=16, d_ff=32,
                      vocab_size=10, max_len=10)
    model = Seq2SeqModel(cfg, seed=4)
    train(model, data.train.sources, data.train.targets,
          TrainConfig(steps=20, batch_size=8, seed=4, eval_every=20))
    p1, p2 = tmp_path / "m1.ratn", tmp_path / "m2.ratn"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    ok &= p1.read_bytes() == p2.read_bytes()
    _report("criterion 15: byte-identical experiment reruns and "
            "checkpoint round trip", ok)


# ---------------------------------------------------------------------------
# 12. internal-LM suppression analog


@pytest.mark.slow
def test_criterion_12_ilm_suppression_analog(tmp_path):
    """Faithful implementation of the directional ILM criterion.

    Frozen natural configuration: toy-translate defaults, desk model with
    standard dropout, cross relaxation gamma=0.2 in training only, the
    default fusion-weight grid selected on dev, seeds 0..4. The assertion is
    exactly the stated criterion: median extended-LM reduction at least as
    large for the relaxed model, and in-domain reductions near zero for
    both. See the decisions ledger for the calibration record: the paired
    per-seed gap is slightly positive, but the per-model median comparison
    sits inside seed noise at this scale, so this criterion is expected to
    be red on the frozen configuration rather than loosened to pass.
    """
    start = time.time()
    spec = ExperimentSpec(
        task="toy_translate", task_params={},
        model={"n_enc": 2, "n_dec": 2, "n_heads": 4, "d_model": 32,
               "d_ff": 64},
        train={"steps": 1500, "batch_size": 32, "eval_every": 10 ** 9},
        relax_grid=(RelaxSetting(site="none"),
                    RelaxSetting(site="cross", gamma=0.2, mode="train_only")),
        lm=LmSpec(corpora=("in_domain", "extended"), k=0.5,
                  lambda_grid=(0.05, 0.1, 0.15, 0.2)),
        seeds=(0, 1, 2, 3, 4), beam=4, output_dir=str(tmp_path / "ilm"))
    paths = run_experiment(spec, workers=2)
    report = ilm_suppression_report(paths["results"])
    rows = {r["approach"]: r for r in report["rows"]}
    base = rows["baseline"]["with_lm"]
    relaxed = rows["cross_g0.2_train_only"]["with_lm"]
    elapsed = time.time() - start

    directional = (relaxed["extended"]["reduction_median"]
                   >= base["extended"]["reduction_median"])
    in_domain_small = all(
        abs(r["in_domain"]["reduction_median"])
        <= base["extended"]["reduction_median"]
        for r in (rows["baseline"]["with_lm"], relaxed))
    detail = (f"ext median base={base['extended']['reduction_median']:+.4f} "
              f"relaxed={relaxed['extended']['reduction_median']:+.4f}, "
              f"{elapsed:.0f}s")
    _report("criterion 12: extended-LM reduction median relaxed >= baseline; "
            "in-domain near zero", directional and in_domain_small
            and elapsed < 1800.0, detail)
