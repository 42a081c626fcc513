"""Point-in-time views of the metrics registry, in three wire formats.

A :class:`Snapshot` is a plain-data object (JSON round-trippable) so the
CLI can accumulate one per invocation in ``.orpheus/telemetry.json`` and
``orpheus stats`` can render the merged history. Renderers:

* :meth:`Snapshot.to_json` — machine-readable (``orpheus stats --json``);
* :meth:`Snapshot.render_text` — the human ``orpheus stats`` output;
* :meth:`Snapshot.render_prometheus` — Prometheus text exposition
  format, for scraping a long-running embedding process.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from repro.telemetry.registry import RESERVOIR_CAP, nearest_rank


@dataclass
class Snapshot:
    """Frozen registry contents.

    Attributes:
        counters: name -> monotonically accumulated value.
        gauges: name -> last set value.
        histograms: name -> summary dict (count/total/min/max/p50/p95
            plus the bounded ``values`` reservoir used for merging).
        spans: name -> {count, errors, seconds: histogram summary}.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    spans: dict[str, dict] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "spans": {k: dict(v) for k, v in self.spans.items()},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Snapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={
                k: dict(v) for k, v in data.get("histograms", {}).items()
            },
            spans={k: dict(v) for k, v in data.get("spans", {}).items()},
        )

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        return cls.from_dict(json.loads(text))

    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms or self.spans)

    # ------------------------------------------------------------------
    # Merging (counters add; gauges last-wins; histograms combine)
    # ------------------------------------------------------------------
    def merged(self, other: "Snapshot") -> "Snapshot":
        """This snapshot combined with a later one."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = {**self.gauges, **other.gauges}
        histograms = dict(self.histograms)
        for name, summary in other.histograms.items():
            histograms[name] = (
                _merge_histogram(histograms[name], summary)
                if name in histograms
                else dict(summary)
            )
        spans = dict(self.spans)
        for name, stats in other.spans.items():
            if name in spans:
                merged_span = {
                    "count": spans[name]["count"] + stats["count"],
                    "errors": spans[name]["errors"] + stats["errors"],
                    "seconds": _merge_histogram(
                        spans[name]["seconds"], stats["seconds"]
                    ),
                }
                failed_a = spans[name].get("failed_seconds")
                failed_b = stats.get("failed_seconds")
                if failed_a and failed_b:
                    merged_span["failed_seconds"] = _merge_histogram(
                        failed_a, failed_b
                    )
                elif failed_a or failed_b:
                    merged_span["failed_seconds"] = dict(failed_a or failed_b)
                spans[name] = merged_span
            else:
                spans[name] = dict(stats)
        return Snapshot(
            counters=counters, gauges=gauges, histograms=histograms, spans=spans
        )

    # ------------------------------------------------------------------
    # Renderers
    # ------------------------------------------------------------------
    def render_text(self) -> str:
        lines: list[str] = []
        if self.spans:
            lines.append(
                "spans (count / errors / total s / p50 s / p95 s / p99 s / max s)"
            )
            for name in sorted(self.spans):
                s = self.spans[name]
                h = s["seconds"]
                lines.append(
                    f"  {name:<40} {s['count']:>7} {s['errors']:>4}"
                    f" {_fmt(h['total'])} {_fmt(h.get('p50'))}"
                    f" {_fmt(h.get('p95'))} {_fmt(h.get('p99'))}"
                    f" {_fmt(h.get('max'))}"
                )
        if self.counters:
            lines.append("counters")
            for name in sorted(self.counters):
                lines.append(f"  {name:<52} {_fmt_num(self.counters[name])}")
        if self.gauges:
            lines.append("gauges")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<52} {_fmt_num(self.gauges[name])}")
        if self.histograms:
            lines.append("histograms (count / total / p50 / p95 / p99 / max)")
            for name in sorted(self.histograms):
                h = self.histograms[name]
                lines.append(
                    f"  {name:<40} {h['count']:>7} {_fmt(h['total'])}"
                    f" {_fmt(h.get('p50'))} {_fmt(h.get('p95'))}"
                    f" {_fmt(h.get('p99'))} {_fmt(h.get('max'))}"
                )
        if not lines:
            return "no telemetry recorded\n"
        return "\n".join(lines) + "\n"

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (metric names sanitized)."""
        lines: list[str] = []
        for name in sorted(self.counters):
            _prom_scalar(lines, "counter", _prom_name(name), self.counters[name])
        for name in sorted(self.gauges):
            _prom_scalar(lines, "gauge", _prom_name(name), self.gauges[name])
        for name in sorted(self.histograms):
            lines.extend(_prom_summary(_prom_name(name), self.histograms[name]))
        for name in sorted(self.spans):
            stats = self.spans[name]
            metric = _prom_name(f"span.{name}.seconds")
            lines.extend(_prom_summary(metric, stats["seconds"]))
            failed = stats.get("failed_seconds")
            if failed:
                lines.extend(
                    _prom_summary(
                        _prom_name(f"span.{name}.failed_seconds"), failed
                    )
                )
            _prom_scalar(
                lines, "counter", _prom_name(f"span.{name}.errors"),
                stats["errors"],
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _merge_histogram(first: dict, second: dict) -> dict:
    count = first["count"] + second["count"]
    total = first["total"] + second["total"]
    mins = [v for v in (first["min"], second["min"]) if v is not None]
    maxs = [v for v in (first["max"], second["max"]) if v is not None]
    values = list(first.get("values", ())) + list(second.get("values", ()))
    stride = max(first.get("stride", 1), second.get("stride", 1))
    while len(values) > RESERVOIR_CAP:
        values = values[::2]
        stride *= 2
    ordered = sorted(values)
    return {
        "count": count,
        "total": total,
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
        "p50": nearest_rank(ordered, 0.50),
        "p95": nearest_rank(ordered, 0.95),
        "p99": nearest_rank(ordered, 0.99),
        "values": values,
        "stride": stride,
    }


def _prom_name(name: str, prefix: str = "repro_") -> str:
    """A legal exposition-format metric name.

    The charset is ``[a-zA-Z_:][a-zA-Z0-9_:]*``; dotted telemetry names
    and anything else outside it collapse to underscores. The prefix
    (``repro_`` for folded telemetry, ``orpheusd_`` for the daemon's own
    families) guarantees a legal first character even for names that
    start with a digit.
    """
    return prefix + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prom_label_name(name: str) -> str:
    """A legal label name: ``[a-zA-Z_][a-zA-Z0-9_]*``."""
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "_" + cleaned
    return cleaned


def _prom_label_value(value: object) -> str:
    """Escape a label value per the exposition format (backslash first)."""
    text = str(value)
    return (
        text.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _prom_labels(labels: dict) -> str:
    """``name="value",...`` for a sample's label set (no braces)."""
    return ",".join(
        f'{_prom_label_name(name)}="{_prom_label_value(value)}"'
        for name, value in labels.items()
    )


def _prom_scalar(lines: list[str], kind: str, metric: str, value) -> None:
    """One unlabeled counter or gauge family: TYPE line plus sample."""
    lines.append(f"# TYPE {metric} {kind}")
    lines.append(f"{metric} {_prom_value(value)}")


def _prom_summary(
    metric: str, histogram: dict, labels: dict | None = None
) -> list[str]:
    """Summary lines for one series of ``histogram`` (a summary dict).
    An unlabeled series is its own family and carries the TYPE line;
    labeled series share a family whose TYPE the caller declares once."""
    lines = [] if labels else [f"# TYPE {metric} summary"]
    base = _prom_labels(labels or {})
    prefix = base + "," if base else ""
    for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
        value = histogram.get(key)
        if value is not None:
            lines.append(f'{metric}{{{prefix}quantile="{quantile}"}} {value}')
    series = f"{{{base}}}" if base else ""
    lines.append(f"{metric}_sum{series} {histogram['total']}")
    lines.append(f"{metric}_count{series} {histogram['count']}")
    return lines


def _fmt(value: float | None) -> str:
    if value is None:
        return "      -"
    return f"{value:>9.4g}"


def _fmt_num(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return f"{value:.6g}" if isinstance(value, float) else str(value)
