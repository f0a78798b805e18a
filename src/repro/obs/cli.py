"""The tables behind ``repro obs``: summarise a structured-telemetry JSONL file.

Reads the span stream written by :mod:`repro.obs.telemetry` (export
``REPRO_TELEMETRY=/path/to/file.jsonl`` around any runner, coordinator or
worker invocation) and renders two fixed-width tables in the style of
:mod:`repro.experiments.report`:

* a **span summary** — one row per span name with the record count and,
  for spans that carry a ``duration``, total / mean / max seconds;
* a **worker summary** — one row per emitting worker with its cell count
  and execute-time statistics, so a parallel or distributed run shows at
  a glance how evenly work was spread.

Malformed lines are counted (``repro obs`` reports them on stderr), not
fatal: a telemetry file a crashed worker was writing to mid-line must
still summarise.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.experiments.report import format_table


class _SpanStats(object):
    """Count / total / max accumulator for one summary row."""

    __slots__ = ("count", "timed", "total", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.timed = 0
        self.total = 0.0
        self.maximum = 0.0

    def add(self, duration: Optional[float]) -> None:
        """Record one span occurrence, with its duration when it has one."""
        self.count += 1
        if duration is not None:
            self.timed += 1
            self.total += duration
            self.maximum = max(self.maximum, duration)

    def row(self, name: str) -> List[object]:
        """The table row of this accumulator."""
        if self.timed:
            return [name, self.count, self.total, self.total / self.timed,
                    self.maximum]
        return [name, self.count, "-", "-", "-"]


def read_spans(path: str) -> tuple:
    """Parse a telemetry JSONL file into ``(records, malformed_count)``."""
    records: List[dict] = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                malformed += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                malformed += 1
    return records, malformed


def summarize(records: Sequence[dict]) -> str:
    """Render the span and worker summary tables of a record stream."""
    by_span: Dict[str, _SpanStats] = {}
    by_worker: Dict[str, _SpanStats] = {}
    for record in records:
        span = str(record.get("span", "?"))
        duration = record.get("duration")
        if not isinstance(duration, (int, float)):
            duration = None
        by_span.setdefault(span, _SpanStats()).add(duration)
        if span == "cell_execute":
            worker = str(record.get("worker", "?"))
            by_worker.setdefault(worker, _SpanStats()).add(duration)

    sections = []
    headers = ["span", "n", "total [s]", "mean [s]", "max [s]"]
    rows = [by_span[name].row(name) for name in sorted(by_span)]
    if not rows:
        return "no telemetry spans"
    sections.append(format_table(headers, rows, float_format="{:.3f}"))
    if by_worker:
        worker_headers = ["worker", "cells", "total [s]", "mean [s]", "max [s]"]
        worker_rows = [by_worker[name].row(name) for name in sorted(by_worker)]
        sections.append(format_table(worker_headers, worker_rows,
                                     float_format="{:.3f}"))
    return "\n\n".join(sections)
