"""Spans recorded from outside the package, around its public names.

``Tracer.install`` replaces each hooked module attribute with a wrapper
that records a span (invocation id, span id, parent span id, name, start,
end, CPU seconds, counts) and restores the originals on ``uninstall``.
A hook is installed on the module whose global the caller looks up, so
``experiment.encode`` is hooked where ``run_experiment`` calls it. A name
that no longer exists is skipped; its span then records zero calls and
the metrics that depend on it are reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from statistics import median


def _filter_counts(args, kwargs, result):
    """Multiply-accumulates of the direct-form difference equation over the
    padded segment, computed from the coefficient and pad sizes, not measured."""
    coeffs, signal = args[0], args[1]
    plan = args[2] if len(args) > 2 else kwargs.get("plan")
    padded = plan.lead + len(signal) + plan.trail
    return {"macs": padded * (coeffs.numerator.size + coeffs.denominator.size - 1)}


def _read_counts(args, kwargs, result):
    signals = result if isinstance(result, list) else [result]
    return {"bytes": os.path.getsize(args[0]), "samples": sum(len(s) for s in signals)}


def _label_counts(args, kwargs, result):
    segments, skipped, dropped = result
    return {"segments": len(segments), "skipped": skipped, "dropped": dropped}


def _write_counts(args, kwargs, result):
    return {"files": len(result), "bytes": sum(p.stat().st_size for p in result)}


# (module, attribute, span name, counts from (args, kwargs, result), record CPU time)
HOOKS = [
    ("ecgsym.experiment", "run_experiment", "experiment.run", None, True),
    ("ecgsym.experiment", "pairwise_table", "experiment.pairs", None, True),
    ("ecgsym.experiment", "_ingest", "experiment.ingest", None, False),
    ("ecgsym.experiment", "load_features_csv", "experiment.load_csv",
     lambda a, k, r: {"rows": len(r[0])}, False),
    ("ecgsym.experiment", "write_reports", "experiment.write", _write_counts, False),
    ("ecgsym.experiment", "emit_plot_data", "experiment.write", _write_counts, False),
    ("ecgsym.experiment", "read_binary_record", "records.read", _read_counts, False),
    ("ecgsym.experiment", "read_text_signal", "records.read", _read_counts, False),
    ("ecgsym.experiment", "read_label_sidecar", "records.read",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}, False),
    ("ecgsym.experiment", "load_labeled_segments", "records.label", _label_counts, False),
    ("ecgsym.experiment", "filter_compensated", "filtering.filter", _filter_counts, False),
    ("ecgsym.filtering", "alignment_delay", "filtering.alignment_delay", None, False),
    ("ecgsym.experiment", "encode", "encoding.encode", lambda a, k, r: {"symbols": len(r)}, False),
    ("ecgsym.features", "shannon_entropy_normalized", "features.entropy", None, False),
    ("ecgsym.features", "lz_complexity", "features.lz",
     lambda a, k, r: {"symbols": len(a[0]), "phrases": r}, False),
    ("ecgsym.experiment", "evaluate_distribution", "distribution.evaluate",
     lambda a, k, r: {"points": a[0].total}, False),
]

CLI_SPAN = "cli.main"


class Span:
    """One call of a hooked name; ``parent`` is the enclosing span's id."""

    __slots__ = ("invocation", "id", "parent", "name", "start", "end", "cpu", "counts")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Keeps every span of a run in memory; the run writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, counts, cpu in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, counts, cpu))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def wrap(self, fn, name: str, counts=None, cpu: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span()
            span.invocation, span.id, span.name = self.invocation, len(self.spans), name
            span.parent = self._stack[-1] if self._stack else None
            span.counts, span.cpu = None, None
            self.spans.append(span)
            self._stack.append(span.id)
            c0 = time.process_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = time.process_time() - c0
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced


def layer_totals(spans: list[Span]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, CPU seconds, counts."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    totals: dict[str, dict] = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
        dur = s.end - s.start
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child_time.get(s.id, 0.0)
        t["cpu_s"] += s.cpu or 0.0
        for key, value in (s.counts or {}).items():
            t[key] = t.get(key, 0) + value
    return totals


def _per(num: str, den: str, scale: float):
    return lambda t: scale * t[num] / t[den] if t.get(den) else 0.0


# (metric, unit, better, source span, value from that span's totals). Times
# are per invocation; counts are per invocation and must repeat exactly.
LAYER_METRICS = [
    ("features.lz_s", "s", "lower", "features.lz", lambda t: t["s"]),
    ("features.lz_calls", "count", "lower", "features.lz", lambda t: t["calls"]),
    ("features.lz_symbols", "count", "lower", "features.lz", lambda t: t.get("symbols", 0)),
    ("features.lz_phrases", "count", "lower", "features.lz", lambda t: t.get("phrases", 0)),
    ("features.lz_us_per_symbol", "us", "lower", "features.lz", _per("s", "symbols", 1e6)),
    ("features.entropy_s", "s", "lower", "features.entropy", lambda t: t["s"]),
    ("encoding.encode_s", "s", "lower", "encoding.encode", lambda t: t["s"]),
    ("encoding.encode_calls", "count", "lower", "encoding.encode", lambda t: t["calls"]),
    ("encoding.symbols", "count", "lower", "encoding.encode", lambda t: t.get("symbols", 0)),
    ("filtering.filter_s", "s", "lower", "filtering.filter", lambda t: t["s"]),
    ("filtering.ms_per_segment", "ms", "lower", "filtering.filter", _per("s", "calls", 1e3)),
    ("filtering.alignment_delay_s", "s", "lower", "filtering.alignment_delay", lambda t: t["s"]),
    ("filtering.alignment_delay_calls", "count", "lower", "filtering.alignment_delay",
     lambda t: t["calls"]),
    ("filtering.macs_computed", "count", "lower", "filtering.filter", lambda t: t.get("macs", 0)),
    ("records.read_s", "s", "lower", "records.read", lambda t: t["s"]),
    ("records.bytes_read", "bytes", "lower", "records.read", lambda t: t.get("bytes", 0)),
    ("records.samples_read", "count", "lower", "records.read", lambda t: t.get("samples", 0)),
    ("records.label_s", "s", "lower", "records.label", lambda t: t["s"]),
    ("records.windows", "count", "lower", "records.label",
     lambda t: t.get("segments", 0) + t.get("skipped", 0)),
    ("records.segments", "count", "higher", "records.label", lambda t: t.get("segments", 0)),
    ("records.skipped", "count", "lower", "records.label", lambda t: t.get("skipped", 0)),
    ("records.dropped", "count", "lower", "records.label", lambda t: t.get("dropped", 0)),
    ("distribution.eval_s", "s", "lower", "distribution.evaluate", lambda t: t["s"]),
    ("distribution.eval_calls", "count", "lower", "distribution.evaluate", lambda t: t["calls"]),
    ("distribution.points", "count", "lower", "distribution.evaluate",
     lambda t: t.get("points", 0)),
    ("experiment.ingest_s", "s", "lower", "experiment.ingest", lambda t: t["s"]),
    ("experiment.load_csv_s", "s", "lower", "experiment.load_csv", lambda t: t["s"]),
    ("experiment.load_csv_rows", "count", "lower", "experiment.load_csv",
     lambda t: t.get("rows", 0)),
    ("experiment.pairs_s", "s", "lower", "experiment.pairs", lambda t: t["s"]),
    ("experiment.write_s", "s", "lower", "experiment.write", lambda t: t["s"]),
    ("experiment.files_written", "count", "lower", "experiment.write", lambda t: t.get("files", 0)),
    ("experiment.bytes_written", "bytes", "lower", "experiment.write", lambda t: t.get("bytes", 0)),
]

UNITS = {m[0]: m[1] for m in LAYER_METRICS} | {
    "experiment.self_s": "s",
    "experiment.cpu_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
}
COUNT_METRICS = [m[0] for m in LAYER_METRICS if m[1] in ("count", "bytes")] + ["trace.spans"]
EXPERIMENT_SPANS = ("experiment.run", "experiment.pairs", "experiment.ingest")


def invocation_metrics(spans: list[Span]) -> dict[str, float]:
    """Every layer metric of one traced invocation, spans absent counting as zero."""
    totals = layer_totals(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0}
    values = {name: fn(totals.get(src, empty)) for name, _, _, src, fn in LAYER_METRICS}
    exp = [totals.get(n, empty) for n in EXPERIMENT_SPANS]
    values["experiment.self_s"] = sum(t["self_s"] for t in exp)
    values["experiment.cpu_s"] = sum(t["cpu_s"] for t in exp)
    values["cli.self_s"] = totals.get(CLI_SPAN, empty)["self_s"]
    values["trace.spans"] = len(spans)
    return values


def per_layer(tracer: Tracer, expected_spans):
    """Medians over traced invocations, the expected spans that never fired,
    and the counts that differed between invocations of the same inputs
    (those counts are deterministic by construction)."""
    by_invocation: dict[int, list[Span]] = {}
    for s in tracer.spans:
        by_invocation.setdefault(s.invocation, []).append(s)
    per_call = [invocation_metrics(spans) for spans in by_invocation.values()]
    fired = {s.name for s in tracer.spans}
    missing = sorted(set(expected_spans) - fired)
    out, varying = {}, []
    for name in per_call[0]:
        values = [m[name] for m in per_call]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                varying.append(name)
            out[name] = values[0]
        else:
            out[name] = median(values)
    sources = {m[0]: m[3] for m in LAYER_METRICS}
    for name in list(out):
        if sources.get(name) in missing:
            del out[name]
    return out, missing, varying
