"""Open-loop synthetic load generator for orpheusd.

ROADMAP items 2 and 3 ask what the daemon does at "10x the 8-client
workload" and beyond — that needs *offered* load, not closed-loop
clients that politely wait for each response before sending the next.
This module simulates an open-loop population: every simulated client
fires requests on a fixed schedule (``client_rps``) whether or not the
previous one has completed, so when the daemon slows down the queue
pressure is real and BUSY shedding becomes measurable instead of being
masked by client backoff.

Traffic shape follows the DataHub hosted-platform model: dataset
popularity is Zipf-skewed (``zipf_s``), so a few hot datasets absorb
most reads — exactly the shape the materialized-version cache exists
for — while the read/write mix (``read_ratio``) sends the remainder
through the serialized writer queue. The client count ramps through
``ramp`` steps (e.g. 8 → 64), and every step reports offered vs
completed requests, goodput, shed rate, and wall-latency percentiles,
giving ``BENCH_<sha>.json`` a service-scale trajectory per commit.

Reads are inline checkouts of a Zipf-picked dataset; writes are
commits of ``write_file`` into ``write_dataset`` (always branching
from version 1, so concurrent writers never conflict). When no write
file is configured the mix degrades to read-only and the report says
so.
"""

from __future__ import annotations

import random
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.telemetry import nearest_rank

LOADGEN_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Zipf popularity
# ----------------------------------------------------------------------
def zipf_weights(n: int, s: float) -> list[float]:
    """Normalized Zipf popularity for ranks 1..n: weight(k) ∝ 1/k^s."""
    if n <= 0:
        return []
    raw = [1.0 / (k ** s) for k in range(1, n + 1)]
    total = sum(raw)
    return [value / total for value in raw]


def cumulative(weights: list[float]) -> list[float]:
    """Prefix sums for bisect-based sampling; last entry forced to 1."""
    acc, out = 0.0, []
    for weight in weights:
        acc += weight
        out.append(acc)
    if out:
        out[-1] = 1.0
    return out


def pick(rng: random.Random, cumulative_weights: list[float]) -> int:
    """Sample a rank index (0-based) from the cumulative distribution."""
    return bisect_left(cumulative_weights, rng.random())


# ----------------------------------------------------------------------
# Config and accounting
# ----------------------------------------------------------------------
@dataclass
class LoadConfig:
    """One load run: which daemon, what traffic, how hard."""

    datasets: list[str]
    versions: int = 1  # checkout targets: version 1..versions, uniform
    #: Optional per-dataset override of ``versions`` (datasets with a
    #: shorter history than the hot one must not 404 their checkouts).
    versions_by_dataset: dict | None = None
    zipf_s: float = 1.1
    read_ratio: float = 0.95
    ramp: tuple = (8, 16, 32, 64)
    step_seconds: float = 2.0
    client_rps: float = 20.0  # per-client open-loop arrival rate
    write_dataset: str | None = None
    write_file: str | None = None
    root: str | None = None
    socket_path: str | None = None
    user: str = ""
    timeout: float = 30.0
    #: Per-request latency budget propagated in the trace context; the
    #: daemon sheds expired requests with ``deadline_exceeded``, which
    #: the step accounting reports separately from busy sheds.
    deadline_ms: float | None = None
    seed: int = 1234


@dataclass
class Outcome:
    """One issued request, as the accounting sees it."""

    op: str
    status: str  # "ok" | "busy" | "deadline_exceeded" | "error"
    wall_s: float
    dataset: str | None = None
    cached: bool | None = None


@dataclass
class StepStats:
    """Mutable per-step accumulator; ``summary()`` is the report row."""

    clients: int
    planned: int  # offered load: what the open loop scheduled
    outcomes: list[Outcome] = field(default_factory=list)
    duration_s: float = 0.0

    def summary(self) -> dict:
        ok = [o for o in self.outcomes if o.status == "ok"]
        busy = sum(1 for o in self.outcomes if o.status == "busy")
        # Deadline sheds are counted apart from busy: busy means the
        # queue was full, deadline_exceeded means the queue was slow —
        # different capacity stories, different remediations.
        deadline = sum(
            1 for o in self.outcomes if o.status == "deadline_exceeded"
        )
        errors = sum(1 for o in self.outcomes if o.status == "error")
        issued = len(self.outcomes)
        latencies = sorted(o.wall_s for o in ok)
        hits = sum(1 for o in ok if o.cached)
        lookups = sum(1 for o in ok if o.cached is not None)
        return {
            "clients": self.clients,
            "offered": self.planned,
            "issued": issued,
            "ok": len(ok),
            "busy": busy,
            "deadline_exceeded": deadline,
            "errors": errors,
            # Shed rate is busy-over-issued: the fraction of requests
            # that reached the daemon and were turned away.
            "shed_rate": round(busy / issued, 4) if issued else 0.0,
            "duration_s": round(self.duration_s, 4),
            "goodput_rps": (
                round(len(ok) / self.duration_s, 2)
                if self.duration_s > 0
                else 0.0
            ),
            "p50_s": _pct(latencies, 0.50),
            "p95_s": _pct(latencies, 0.95),
            "p99_s": _pct(latencies, 0.99),
            "cache_hit_rate": (
                round(hits / lookups, 4) if lookups else None
            ),
        }


def _pct(sorted_values: list[float], fraction: float) -> float | None:
    value = nearest_rank(sorted_values, fraction)
    return None if value is None else round(value, 6)


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------
class _LoadClient(threading.Thread):
    """One simulated client: its own connection, its own schedule."""

    def __init__(self, config: LoadConfig, rng: random.Random,
                 planned: int, start_at: float) -> None:
        super().__init__(daemon=True)
        self.config = config
        self.rng = rng
        self.planned = planned
        self.start_at = start_at
        self.outcomes: list[Outcome] = []
        self._cumulative = cumulative(
            zipf_weights(len(config.datasets), config.zipf_s)
        )

    def run(self) -> None:
        from repro.service.client import (
            ServiceBusyError,
            ServiceClient,
            ServiceDeadlineError,
            ServiceError,
            ServiceUnavailableError,
        )

        config = self.config
        try:
            client = ServiceClient(
                socket_path=config.socket_path,
                root=config.root,
                user=config.user,
                timeout=config.timeout,
                deadline_ms=config.deadline_ms,
            ).connect()
        except Exception:
            return  # daemon gone: the step's issued count shows it
        interval = 1.0 / max(1e-6, config.client_rps)
        try:
            for i in range(self.planned):
                # Open loop: the schedule never stretches. If the
                # previous request ran long we are already late and
                # fire immediately — that lateness IS the load.
                delay = self.start_at + i * interval - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                writes_on = (
                    config.write_dataset and config.write_file
                    and config.read_ratio < 1.0
                )
                is_read = (
                    not writes_on
                    or self.rng.random() < config.read_ratio
                )
                status, cached, dataset = "ok", None, None
                wall0 = time.monotonic()
                try:
                    if is_read:
                        dataset = config.datasets[
                            pick(self.rng, self._cumulative)
                        ]
                        cap = (config.versions_by_dataset or {}).get(
                            dataset, config.versions
                        )
                        version = self.rng.randint(1, max(1, cap))
                        data = client.checkout(
                            dataset, [version], inline=True
                        )
                        if isinstance(data.get("cached"), bool):
                            cached = data["cached"]
                    else:
                        dataset = config.write_dataset
                        client.request(
                            "commit",
                            dataset=config.write_dataset,
                            file=config.write_file,
                            message="loadgen",
                            parents=[1],
                        )
                except ServiceBusyError:
                    status = "busy"
                except ServiceDeadlineError:
                    # Must precede ServiceError: it is a subclass.
                    status = "deadline_exceeded"
                except ServiceUnavailableError:
                    return
                except ServiceError:
                    status = "error"
                self.outcomes.append(
                    Outcome(
                        op="checkout" if is_read else "commit",
                        status=status,
                        wall_s=time.monotonic() - wall0,
                        dataset=dataset,
                        cached=cached,
                    )
                )
        finally:
            try:
                client.close()
            except Exception:
                pass


def run_step(config: LoadConfig, clients: int, step_index: int) -> dict:
    """One ramp step: ``clients`` open-loop threads for
    ``step_seconds``, joined, summarized."""
    planned_each = max(1, int(config.step_seconds * config.client_rps))
    start_at = time.monotonic() + 0.05
    threads = [
        _LoadClient(
            config,
            random.Random(config.seed + step_index * 10_000 + i),
            planned_each,
            start_at,
        )
        for i in range(clients)
    ]
    wall0 = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = StepStats(clients=clients, planned=planned_each * clients)
    stats.duration_s = time.monotonic() - wall0
    for thread in threads:
        stats.outcomes.extend(thread.outcomes)
    return stats.summary()


def run_load(config: LoadConfig) -> dict:
    """Run the full ramp and return the service-scale report."""
    steps = [
        run_step(config, clients, index)
        for index, clients in enumerate(config.ramp)
    ]
    report = {
        "kind": "orpheus-loadgen",
        "schema_version": LOADGEN_SCHEMA_VERSION,
        "zipf_s": config.zipf_s,
        "read_ratio": config.read_ratio,
        "client_rps": config.client_rps,
        "datasets": list(config.datasets),
        "writes_enabled": bool(
            config.write_dataset and config.write_file
            and config.read_ratio < 1.0
        ),
        "max_clients": max(config.ramp) if config.ramp else 0,
        "steps": steps,
    }
    peaks = [s["p99_s"] for s in steps if s["p99_s"] is not None]
    report["peak_p99_s"] = max(peaks) if peaks else None
    report["peak_shed_rate"] = (
        max(s["shed_rate"] for s in steps) if steps else 0.0
    )
    report["deadline_ms"] = config.deadline_ms
    report["total_deadline_exceeded"] = sum(
        s["deadline_exceeded"] for s in steps
    )
    return report
