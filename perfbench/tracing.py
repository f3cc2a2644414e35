"""Span tracing of ratn's layers, done entirely from the benchmark's side.

``Tracer.installed()`` replaces the layer entry points listed in TARGETS by
wrappers that record one span per call (name, start, end, parent span) and,
for a few of them, a count. Functions are replaced in every ``ratn`` module
namespace that holds them (modules import each other's names), methods on
their class. Nothing under ``src/`` changes, the wrappers draw from no
RngStream, and spans stay in memory until the run writes them out.

``layer_metrics`` turns the spans into the per-layer metrics. Per-step
metrics count only spans inside the workload's step span: the benchmark's
own ``bench.step`` for the training workloads, ``transformer.decode_step_batch``
for ilm_cell. A layer that does no work on a workload reads 0 there, and so
does a ratio whose base is empty.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

# (layer module, function or Class.method); the span is named
# "<module>.<function or method>".
TARGETS = (
    ("tensor", "backward"),
    ("rng", "RngStream.bernoulli_mask"),
    ("attention", "multi_head_attention"),
    ("attention", "windowed_mha"),
    ("transformer", "Seq2SeqModel.forward_teacher_forced"),
    ("transformer", "Seq2SeqModel.encode"),
    ("transformer", "Seq2SeqModel.decode_step_batch"),
    ("window_classifier", "WindowClassifier.forward"),
    ("training", "label_smoothed_nll"),
    ("training", "adam_step"),
    ("training", "train"),
    ("decoding", "beam_search"),
    ("decoding", "BigramLm.log_probs"),
    ("metrics", "wer"),
    ("experiment", "run_experiment"),
    ("experiment", "build_task_data"),
    ("experiment", "run_cell"),
    ("experiment", "decode_corpus"),
)


def _count_nodes(tracer, args, kwargs, result):
    # backward's topological sort: every autodiff node of the step's graph
    tracer.event("nodes", len(result))


def _count_positions(tracer, args, kwargs, result):
    prefixes = np.asarray(args[2] if len(args) > 2 else kwargs["prefixes"])
    rows, length = prefixes.shape
    tracer.event("rows", rows)
    tracer.event("positions", rows * length)


def _record_source(tracer, args, kwargs, result):
    tokens = np.asarray(args[1] if len(args) > 1 else kwargs["tokens"])
    tracer.event("source", tokens.tobytes())


HOOKS = {"transformer.encode": _record_source,
         "transformer.decode_step_batch": _count_positions}
# Count-only wrappers (no span), for private helpers whose result is a count.
COUNTERS = (("tensor", "_toposort", _count_nodes),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.events: list[tuple] = []  # (enclosing span index, key, value)
        self._stack: list[int] = []

    def event(self, key: str, value) -> None:
        self.events.append((self._stack[-1] if self._stack else -1, key, value))

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                tracer._stack.append(idx)
                hook(tracer, args, kwargs, result)
                tracer._stack.pop()
            return result

        return wrapper

    def _wrap_counter(self, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, *namespaces):
        """Wrap every target while the block runs; restore them after.

        `namespaces` are extra modules whose imported names are patched too.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ratn" or n.startswith("ratn.")] + list(namespaces)
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        plan = [(mod, path, f"{mod}.{path.split('.')[-1]}", None)
                for mod, path in TARGETS]
        plan += [(mod, path, None, hook) for mod, path, hook in COUNTERS]
        for mod_name, path, span_name, counter in plan:
            owner = sys.modules[f"ratn.{mod_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            fn = owner.__dict__[attr]
            new = (self._wrap_counter(fn, counter) if counter is not None
                   else self._wrap(span_name, fn, HOOKS.get(span_name)))
            if classes:
                patch(owner, attr, new)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        patch(module, name, new)
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER_UNITS = {
    "tensor.nodes_per_step": "nodes",
    "tensor.backward_ms": "ms/step",
    "transformer.forward_ms": "ms/step",
    "attention.mha_calls_per_step": "count",
    "attention.mha_ms": "ms/step",
    "attention.windowed_mha_ms": "ms/step",
    "window_classifier.forward_ms": "ms/step",
    "rng.mask_draws_per_step": "count",
    "rng.mask_ms": "ms/step",
    "training.loss_ms": "ms/step",
    "training.adam_ms": "ms/step",
    "transformer.encode_ms": "ms/call",
    "transformer.decode_step_batch_ms": "ms/call",
    "transformer.decode_step_batch_calls": "calls/sentence",
    "decoding.beam_search_ms": "ms/sentence",
    "decoding.beam_self_ms": "ms/sentence",
    "decoding.lm_calls": "calls/sentence",
    "decoding.lm_ms": "ms/sentence",
    "decoding.steps_per_decode": "steps",
    "decoding.useful_row_share": "ratio",
    "experiment.encode_reuse_share": "ratio",
    "experiment.build_task_data_s": "s/cell",
    "experiment.train_s": "s/cell",
    "experiment.decode_s": "s/cell",
    "experiment.write_s": "s/cell",
    "experiment.overhead_s": "s/cell",
    "metrics.wer_ms": "ms/cell",
    "trace.overhead_ms": "ms/op",
    "trace.overhead_share": "ratio",
}


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


class _Spans:
    """Queries over a span list whose parents precede their children."""

    def __init__(self, spans):
        self.name = [s[0] for s in spans]
        self.dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
        self.end = np.array([s[2] for s in spans], dtype=np.float64)
        self.parent = [s[3] for s in spans]
        self._anc: dict[str, list[int]] = {}

    def nearest(self, name: str) -> list[int]:
        """Per span: index of its nearest ancestor-or-self called `name`."""
        if name not in self._anc:
            out = []
            for i, (n, p) in enumerate(zip(self.name, self.parent)):
                out.append(i if n == name else (out[p] if p >= 0 else -1))
            self._anc[name] = out
        return self._anc[name]

    def select(self, name: str, under: str | None = None,
               outside: str | None = None) -> list[int]:
        idx = [i for i, n in enumerate(self.name) if n == name]
        if under is not None:
            anc = self.nearest(under)
            idx = [i for i in idx if self.parent[i] >= 0 and anc[self.parent[i]] >= 0]
        if outside is not None:
            anc = self.nearest(outside)
            idx = [i for i in idx if self.parent[i] < 0 or anc[self.parent[i]] < 0]
        return idx

    def total(self, idx) -> float:
        return float(self.dur[idx].sum()) if idx else 0.0

    def self_time(self, idx) -> float:
        children = np.zeros(len(self.name))
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += self.dur[i]
        return float((self.dur[idx] - children[idx]).sum()) if idx else 0.0


def layer_metrics(tracer: Tracer, step: str) -> dict[str, float]:
    """Per-layer metrics from one traced run; `step` names the step span."""
    s = _Spans(tracer.spans)
    steps = len(s.select(step))
    step_anc = s.nearest(step)
    cell_anc = s.nearest("experiment.run_cell")

    def per_step_ms(name):
        return _ratio(1e3 * s.total(s.select(name, under=step)), steps)

    def step_count(name):
        return _ratio(len(s.select(name, under=step)), steps)

    def events(key, within=None):
        return [(i, v) for i, k, v in tracer.events
                if k == key and (within is None or (i >= 0 and within[i] >= 0))]

    m = {
        "tensor.nodes_per_step": _ratio(sum(v for _, v in events("nodes", step_anc)),
                                        steps),
        "tensor.backward_ms": per_step_ms("tensor.backward"),
        "transformer.forward_ms": per_step_ms("transformer.forward_teacher_forced"),
        "attention.mha_calls_per_step": step_count("attention.multi_head_attention"),
        "attention.mha_ms": per_step_ms("attention.multi_head_attention"),
        "attention.windowed_mha_ms": per_step_ms("attention.windowed_mha"),
        "window_classifier.forward_ms": per_step_ms("window_classifier.forward"),
        "rng.mask_draws_per_step": step_count("rng.bernoulli_mask"),
        "rng.mask_ms": per_step_ms("rng.bernoulli_mask"),
        "training.loss_ms": per_step_ms("training.label_smoothed_nll"),
        "training.adam_ms": per_step_ms("training.adam_step"),
    }

    # Inference-side calls, per call or per decoded sentence. Encodes made by
    # a teacher-forced forward are training work and are left out.
    encodes = s.select("transformer.encode",
                       outside="transformer.forward_teacher_forced")
    dsb = s.select("transformer.decode_step_batch")
    beams = s.select("decoding.beam_search")
    lm_calls = s.select("decoding.log_probs")
    m["transformer.encode_ms"] = _ratio(1e3 * s.total(encodes), len(encodes))
    m["transformer.decode_step_batch_ms"] = _ratio(1e3 * s.total(dsb), len(dsb))
    m["transformer.decode_step_batch_calls"] = _ratio(len(dsb), len(beams))
    m["decoding.beam_search_ms"] = _ratio(1e3 * s.total(beams), len(beams))
    m["decoding.beam_self_ms"] = _ratio(1e3 * s.self_time(beams), len(beams))
    m["decoding.lm_calls"] = _ratio(len(lm_calls), len(beams))
    m["decoding.lm_ms"] = _ratio(1e3 * s.total(lm_calls), len(beams))
    m["decoding.steps_per_decode"] = _ratio(
        len(s.select("transformer.decode_step_batch", under="decoding.beam_search")),
        len(beams))
    m["decoding.useful_row_share"] = _ratio(sum(v for _, v in events("rows")),
                                            sum(v for _, v in events("positions")))

    # Experiment harness, per cell.
    cells = s.select("experiment.run_cell")
    n_cells = len(cells)
    encoded = set(encodes)
    sources = [(cell_anc[i], v) for i, v in events("source", cell_anc)
               if i in encoded]
    m["experiment.encode_reuse_share"] = _ratio(len(set(sources)), len(sources))
    m["experiment.build_task_data_s"] = _ratio(
        s.total(s.select("experiment.build_task_data")), n_cells)
    m["experiment.train_s"] = _ratio(
        s.total(s.select("training.train", under="experiment.run_cell")), n_cells)
    m["experiment.decode_s"] = _ratio(
        s.total(s.select("experiment.decode_corpus")), n_cells)
    runs = s.select("experiment.run_experiment")
    run_anc = s.nearest("experiment.run_experiment")
    write = 0.0
    for r in runs:
        own = [c for c in cells if run_anc[c] == r]
        write += s.end[r] - (max(s.end[c] for c in own) if own else s.end[r])
    m["experiment.write_s"] = _ratio(write, n_cells)
    m["experiment.overhead_s"] = _ratio(s.total(runs) - s.total(cells), n_cells)
    m["metrics.wer_ms"] = _ratio(1e3 * s.total(s.select("metrics.wer")), n_cells)
    return m
