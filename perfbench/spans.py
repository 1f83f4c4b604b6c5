"""Span tracing of the randomout engine from outside it.

``Tracer.installed()`` swaps the public callables each layer of the engine
exposes (layer ``forward``/``backward``, the loss head, ``tensor.im2col``/
``col2im``, the experiment loop's calls into the regularizer, optimizers,
initializer, data loading, model building and metrics writers) for wrappers that
record a span per call, then restores the originals. Spans are kept in
memory as ``(trace_id, span_id, parent_id, name, start_ns, end_ns)`` and
written out when the benchmark ends; each training run opens a new trace
id. Self time is a span's duration minus the time its direct child spans
cover. Counts computed from argument shapes (bytes, FLOPs) and from results
(resets) are recorded beside the spans.
"""

import contextlib
import gzip
import json
import os
import time
import weakref
from array import array
from collections import Counter

from randomout import experiments, layers, model, optim, regularizer, tensor

RUN_SPAN = "experiments.run_training"


def _im2col_bytes(args, result):
    return {"tensor.im2col.bytes": args[0].nbytes + result.nbytes}


def _col2im_bytes(args, result):
    return {"tensor.col2im.bytes": args[0].nbytes + result.nbytes}


def _conv_fwd_flops(args, result):
    conv, y = args[0], result[0]
    return {"layers.conv2d.flop": 2 * y.size * conv.fan_in}


def _conv_bwd_flops(args, result):
    conv, dout = args[0], args[1]
    # one GEMM for the kernel gradient and one for the input-patch gradient
    return {"layers.conv2d.flop": 4 * dout.size * conv.fan_in}


def _written_bytes(args, result):
    return {"metrics.bytes_written": os.path.getsize(args[0])}


class _FilterCounts:
    """Filters a scan visits per model, computed once per model object."""

    def __init__(self):
        self._by_model = weakref.WeakKeyDictionary()

    def __call__(self, args, result):
        net, cfg, progress = args[0], args[2], args[3]
        if net not in self._by_model:
            self._by_model[net] = len(model.filter_groups(net))
        scanned = self._by_model[net] if progress < cfg.p_active else 0
        return {"regularizer.filters_scanned": scanned, "regularizer.resets": len(result)}


def _layer_classes():
    return [
        cls
        for cls in vars(layers).values()
        if isinstance(cls, type) and issubclass(cls, layers.Layer) and cls is not layers.Layer
    ]


def targets():
    """(owner, attribute, span name, count function or None) for every wrapped callable.

    A function is wrapped where its caller looks it up: the engine imports
    ``cgn``, ``write_metrics`` and the like by name into ``experiments``, and
    ``xavier_init`` into both ``layers`` and ``regularizer``.
    """
    out = [
        (experiments, "run_training", RUN_SPAN, None),
        (experiments, "load_dataset_pair", "data.load", None),
        (experiments, "build_for", "models.build", None),
        (experiments, "evaluate", "experiments.evaluate", None),
        (experiments, "cgn", "regularizer.cgn_telemetry", None),
        (experiments, "scan_and_reset", "regularizer.scan", _FilterCounts()),
        (experiments, "write_metrics", "metrics.write", _written_bytes),
        (experiments, "write_summary", "metrics.write", _written_bytes),
        (tensor, "im2col", "tensor.im2col", _im2col_bytes),
        (tensor, "col2im", "tensor.col2im", _col2im_bytes),
        (layers, "xavier_init", "rng.xavier_init", None),
        (regularizer, "xavier_init", "rng.xavier_init", None),
        (layers.SoftmaxCrossEntropy, "loss_and_grad", "layers.loss", None),
        (model.Model, "forward", "model.forward", None),
        (model.Model, "backward", "model.backward", None),
        (model.Model, "zero_grads", "model.zero_grads", None),
    ]
    for cls in (optim.SGD, optim.Adam):
        out.append((cls, "step", "optim.step", None))
        out.append((cls, "reset_state_slice", "optim.reset_state_slice", None))
    for cls in _layer_classes():
        conv = cls is layers.Conv2d
        out.append((cls, "forward", f"layers.{cls.kind}.fwd", _conv_fwd_flops if conv else None))
        out.append((cls, "backward", f"layers.{cls.kind}.bwd", _conv_bwd_flops if conv else None))
    return out


COLUMNS = ("trace_id", "span_id", "parent_id", "name", "start_ns", "end_ns")


class Tracer:
    """Spans in flat integer columns (-1 for none; ``name`` numbers the span names).

    Integer arrays are not tracked by the garbage collector, so keeping
    hundreds of thousands of spans does not slow the collections the traced
    code triggers.
    """

    def __init__(self):
        self.columns = {c: array("q") for c in COLUMNS}
        self._name_ids = {}
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._open = []  # span ids of the open spans, innermost last
        self._child_ns = []  # time the child spans of each open span cover
        self._next_span = 0
        self._trace_id = -1
        self._next_trace = 0

    def _wrap(self, fn, name, count):
        tracer = self
        name_index = self._name_ids.setdefault(name, len(self._name_ids))
        new_trace = name == RUN_SPAN
        columns = [self.columns[c] for c in COLUMNS]

        def traced(*args, **kwargs):
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = tracer._open[-1] if tracer._open else -1
            outer_trace = tracer._trace_id
            if new_trace:
                tracer._trace_id = tracer._next_trace
                tracer._next_trace += 1
            tracer._open.append(span_id)
            tracer._child_ns.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._open.pop()
                child_ns = tracer._child_ns.pop()
                dur = end - start
                if tracer._child_ns:
                    tracer._child_ns[-1] += dur
                for col, value in zip(columns, (tracer._trace_id, span_id, parent, name_index, start, end)):
                    col.append(value)
                tracer._trace_id = outer_trace
                tracer.calls[name] += 1
                tracer.total_ns[name] += dur
                tracer.self_ns[name] += dur - child_ns
            if count is not None:
                tracer.counts.update(count(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def coverage(self):
        """Share of training-run wall time that child spans account for."""
        total = self.total_ns[RUN_SPAN]
        return (total - self.self_ns[RUN_SPAN]) / total if total else 0.0

    def write(self, path):
        """Write a header line, then every span as one JSON array per line, gzip-compressed."""
        names = list(self._name_ids)
        name_col = COLUMNS.index("name")
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps(COLUMNS) + "\n")
            for row in zip(*self.columns.values()):
                row = [None if v == -1 else v for v in row]
                row[name_col] = names[row[name_col]]
                f.write(json.dumps(row, separators=(",", ":")) + "\n")
