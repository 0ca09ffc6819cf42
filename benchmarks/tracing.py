"""Operation clock and span tracer, installed from outside the package.

An *op* is one closed-loop unit of work: a training step, an evaluation
batch, or a single-window forecast; each gets wall and process CPU stamps.
Training steps and evaluation batches are timed from outside ``train()``:
``make_windows`` is wrapped in the ``gridcast.train`` namespace so every batch
pull stamps the clocks, and an op lasts from one pull to the next. This is the
only patch an untraced run installs.

A traced run also wraps the public functions of each layer where their
caller looks them up, plus the hot ``Tensor`` ops, and records one span per
call: name, start, end, parent span, phase and op. Every graph node built
inside a span gets a timed vjp, so backward time is charged to the spans
that were open when the node was built.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter, process_time

import numpy as np

# (module, attribute, span name): each public function, patched where its
# caller looks it up.
SPAN_PATCHES = (
    ("gridcast.cli", "main", "cli.main"),
    ("gridcast.cli", "train", "train.train"),
    ("gridcast.cli", "load_csv", "data.load_csv"),
    ("gridcast.cli", "standardize", "data.standardize"),
    ("gridcast.cli", "save_checkpoint", "model.save_checkpoint"),
    ("gridcast.data", "load_csv", "data.load_csv"),
    ("gridcast.data", "standardize", "data.standardize"),
    ("gridcast.train", "forward", "model.forward"),
    ("gridcast.train", "evaluate", "train.evaluate"),
    ("gridcast.train", "adam_step", "train.adam_step"),
    ("gridcast.train", "clip_gradients", "train.clip_gradients"),
    ("gridcast.model", "forward", "model.forward"),
    ("gridcast.model", "load_checkpoint", "model.load_checkpoint"),
    ("gridcast.model", "revin_normalize", "embed.revin_normalize"),
    ("gridcast.model", "pad_tail", "embed.pad_tail"),
    ("gridcast.model", "embed_grid", "embed.embed_grid"),
    ("gridcast.model", "revin_denormalize", "embed.revin_denormalize"),
    ("gridcast.model", "apply_horizontal", "attention.horizontal"),
    ("gridcast.model", "apply_vertical", "attention.vertical"),
    ("gridcast.attention", "batch_norm", "tensor.batch_norm"),
)
TENSOR_SPANS = (
    ("__matmul__", "tensor.matmul"),
    ("softmax", "tensor.softmax"),
    ("gelu", "tensor.gelu"),
    ("backward", "tensor.backward"),
)
ALL_VJPS = ""  # vjp_s label that sums every vjp


class Recorder:
    """Ops, always; spans, node counts and vjp times when tracing."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.phase = "setup"
        # [phase, kind, start, end, windows, cpu start, cpu end]; end None while open
        self.ops = []
        self.op = None  # index of the open op
        self.key = ("setup", None)  # (phase, kind of the open op)
        self.spans = []  # [name, start, end, parent, phase, op]
        self.stack = []
        self.labels = ()  # names of the open spans, outermost first
        self.vjp_s = defaultdict(float)  # (phase, kind, span name) -> seconds
        self.counts = defaultdict(int)  # (phase, kind, counter) -> count
        self._undo = []

    # -- ops -------------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.key = (phase, None)

    def begin(self, kind: str, windows: int = 1) -> None:
        self.ops.append([self.phase, kind, perf_counter(), None, windows, process_time(), None])
        self.op = len(self.ops) - 1
        self.key = (self.phase, kind)

    def end(self) -> None:
        op = self.ops[self.op]
        op[3], op[6] = perf_counter(), process_time()
        self.op = None
        self.key = (self.phase, None)

    def closed_ops(self, phase, kind) -> list:
        """Indices of finished ops of ``kind`` in ``phase`` (None: any phase)."""
        return [
            i
            for i, op in enumerate(self.ops)
            if op[1] == kind and op[3] is not None and phase in (None, op[0])
        ]

    def pulls(self, kind: str, batches):
        """Yield from ``batches``; each batch is one op, ended by the next pull."""
        it = iter(batches)
        try:
            while True:
                self.begin(kind)
                span = self.push("data.make_windows") if self.tracing else None
                try:
                    batch = next(it, None)
                finally:
                    if span is not None:
                        self.pop(span)
                if batch is None:
                    return  # the op never finishes, so no summary counts it
                self.ops[self.op][4] = len(batch.inputs)
                yield batch
                self.end()
        finally:
            self.op = None
            self.key = (self.phase, None)

    # -- spans -----------------------------------------------------------------

    def push(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.phase, self.op])
        index = len(self.spans) - 1
        self.stack.append(index)
        self.labels += (name,)
        return index

    def pop(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()
        self.labels = self.labels[:-1]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop(index)

        traced.__wrapped__ = fn
        return traced

    def node(self, out, parents) -> None:
        """Count a new graph node and time its vjp against the open spans."""
        self.counts[self.key + ("nodes",)] += 1
        labels, vjp = self.labels, out._vjp
        outputs = len(parents)
        useful = sum(1 for p in parents if p.requires_grad)
        vjp_s, counts = self.vjp_s, self.counts

        def timed_vjp(g):
            start = perf_counter()
            grads = vjp(g)
            spent = perf_counter() - start
            key = self.key
            vjp_s[key + (ALL_VJPS,)] += spent
            for label in labels:
                vjp_s[key + (label,)] += spent
            counts[key + ("vjp_outputs",)] += outputs
            counts[key + ("vjp_useful",)] += useful
            return grads

        out._vjp = timed_vjp

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch the package; ``uninstall`` restores every original."""
        train_mod = importlib.import_module("gridcast.train")
        real_windows = train_mod.make_windows

        def make_windows(*args, **kwargs):
            kind = "train" if kwargs.get("shuffle") else "eval"
            return self.pulls(kind, real_windows(*args, **kwargs))

        self._patch(train_mod, "make_windows", make_windows)
        if not self.tracing:
            return
        for module_name, attr, span in SPAN_PATCHES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(span, getattr(module, attr)))

        from gridcast.tensor import Tensor

        for attr, span in TENSOR_SPANS:
            self._patch(Tensor, attr, self.wrap(span, getattr(Tensor, attr)))
        make, permute = Tensor.__dict__["_make"].__func__, Tensor.permute

        def _make(cls, data, parents, vjp):
            out = make(cls, data, parents, vjp)
            if out._vjp is not None:
                self.node(out, parents)
            return out

        def counted_permute(tensor, *axes):
            self.counts[self.key + ("permutes",)] += 1
            return permute(tensor, *axes)

        self._patch(Tensor, "_make", classmethod(_make))
        self._patch(Tensor, "permute", counted_permute)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- per-layer summary ---------------------------------------------------------

PER_OP_SPANS = (
    "tensor.matmul", "tensor.softmax", "tensor.gelu", "tensor.batch_norm",
    "attention.horizontal", "attention.vertical",
)
PER_CALL_SPANS = (
    "train.adam_step", "train.clip_gradients", "train.evaluate",
    "model.save_checkpoint", "model.load_checkpoint",
    "data.load_csv", "data.standardize", "cli.main",
)
EMBED_SPANS = (
    "embed.revin_normalize", "embed.pad_tail", "embed.embed_grid", "embed.revin_denormalize",
)


def span_table(rec: Recorder, ops: list) -> dict:
    """Per span name over the spans opened inside ``ops``: [calls, total
    seconds, self seconds], self being the time no child span covers."""
    wanted = set(ops)
    spans = rec.spans
    table = {}
    child_s = defaultdict(float)
    for name, start, end, parent, _, op in spans:
        if op in wanted and parent >= 0:
            child_s[parent] += end - start
    for index, (name, start, end, _, _, op) in enumerate(spans):
        if op not in wanted:
            continue
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_s[index]
    return table


def self_time_lines(rec: Recorder, kind: str) -> list:
    """One line per span name over the timed ``kind`` ops, by self time."""
    ops = rec.closed_ops("timed", kind)
    n = max(len(ops), 1)
    rows = sorted(span_table(rec, ops).items(), key=lambda item: -item[1][2])
    return [
        f"  {name:<24} {calls / n:>7.4g} calls {total * 1e3 / n:>11.4f} ms "
        f"{own * 1e3 / n:>11.4f} self ms"
        for name, (calls, total, own) in rows
    ]


def _scope_keys(rec: Recorder, phase, kind) -> list:
    phases = {op[0] for op in rec.ops} if phase is None else {phase}
    return [(p, kind) for p in phases]


def per_op_metrics(rec: Recorder, phase, kind) -> dict:
    """Per-op layer metrics over the finished ``kind`` ops of ``phase``.

    A metric whose layer never ran in these ops is None.
    """
    ops = rec.closed_ops(phase, kind)
    if not ops:
        return {}
    n = len(ops)
    table = span_table(rec, ops)
    keys = _scope_keys(rec, phase, kind)

    def vjp(label):
        values = [rec.vjp_s[k + (label,)] for k in keys if k + (label,) in rec.vjp_s]
        return sum(values) * 1000.0 / n if values else None

    def count(counter):
        return sum(rec.counts.get(k + (counter,), 0) for k in keys)

    def ms(name, column=1):
        return table[name][column] * 1000.0 / n if name in table else None

    out = {}
    backward = ms("tensor.backward")
    out["tensor.backward.ms"] = backward
    all_vjp = vjp(ALL_VJPS)
    out["tensor.backward.self_ms"] = (
        backward - all_vjp if backward is not None and all_vjp is not None else None
    )
    for span in PER_OP_SPANS:
        out[span + ".fwd_ms"] = ms(span)
        out[span + ".bwd_ms"] = vjp(span)
    out["tensor.matmul.calls"] = table["tensor.matmul"][0] / n if "tensor.matmul" in table else None
    nodes = count("nodes")
    out["tensor.graph_nodes"] = nodes / n if nodes else None
    outputs = count("vjp_outputs")
    out["tensor.vjp_useful_frac"] = count("vjp_useful") / outputs if outputs else None
    forwards = table.get("model.forward", [0])[0]
    out["attention.permutes"] = count("permutes") / forwards if forwards else None
    out["model.forward.self_ms"] = ms("model.forward", column=2)
    for span in EMBED_SPANS:
        out[span + ".ms"] = ms(span)
    cpu = [rec.ops[i][6] - rec.ops[i][5] for i in ops]
    out["trace.op_ms_p50"] = float(np.median(cpu)) * 1000.0  # CPU, as step_ms_p50
    durations = [rec.ops[i][3] - rec.ops[i][2] for i in ops]
    wanted = set(ops)
    top = sum(
        end - start
        for _, start, end, parent, _, op in rec.spans
        if op in wanted and (parent < 0 or rec.spans[parent][5] != op)
    )
    out["trace.span_frac"] = top / sum(durations)
    return out


def per_call_metrics(rec: Recorder, phase) -> dict:
    """Mean ms per call of set-up and I/O layers over spans in ``phase``."""
    calls = defaultdict(lambda: [0, 0.0])
    for name, start, end, _, span_phase, _ in rec.spans:
        if phase in (None, span_phase) and end is not None:
            row = calls[name]
            row[0] += 1
            row[1] += end - start
    out = {}
    for span in PER_CALL_SPANS:
        row = calls.get(span)
        out[span + ".ms"] = row[1] * 1000.0 / row[0] if row else None
    row = calls.get("data.make_windows")
    out["data.make_windows.batch_ms"] = row[1] * 1000.0 / row[0] if row else None
    return out


def layer_metrics(rec: Recorder, kind: str) -> dict:
    """Every per-layer metric of a traced run.

    Each metric comes from the timed phase, per ``kind`` op or per call. A
    layer the timed phase never runs (backward and Adam in a forecast-only
    workload, checkpoint loading in a training one) is taken from the whole
    run instead: per training step, or per call.
    """
    primary = {**per_op_metrics(rec, "timed", kind), **per_call_metrics(rec, "timed")}
    fallback = {**per_op_metrics(rec, None, "train"), **per_call_metrics(rec, None)}
    merged = {}
    for name in set(primary) | set(fallback):
        value = primary.get(name)
        merged[name] = value if value is not None else fallback.get(name)
    return merged
