"""Deterministic fault injection for crash and chaos testing.

A *failpoint* is a named site where a test can inject a fault. Sites
call :func:`fire`, which is one dict lookup when nothing is armed, so
the hooks stay in production code permanently.

Sites are namespaced by layer:

* storage sites (``journal.*``, ``intent.*``, ``statestore.*``,
  ``pagestore.*``, ``csv.*``, ``telemetry.*``) bracket every
  durability boundary; the crash matrices kill a real process at each;
* ``service.*`` sites sit along a daemon request's path (connection,
  worker, state save, version cache); the chaos matrix drives a real
  daemon into each.

Spec grammar (entries separated by ``,`` or ``;``)::

    ORPHEUS_FAILPOINTS="journal.before_append=crash"
    ORPHEUS_FAILPOINTS="service.state.before_save=error@3;csv.mid_write=delay:0.2"

Each entry is ``site=action[:arg][@count]``:

* ``crash[:code]`` — ``os._exit(code)`` (default :data:`CRASH_EXIT_CODE`),
  simulating SIGKILL or power loss: no finally blocks, no atexit,
  buffers dropped.
* ``error`` — raise :class:`FailpointError`.
* ``delay[:seconds]`` — sleep (default 0.05 s), then continue; widens
  race windows and slows saves or workers.
* ``reset`` / ``torn`` — connection sites: hard-close the socket, or
  send half the response frame and close.
* ``corrupt`` — cache site: mutate the cached entry in place.
* ``@count`` — fire at most ``count`` times, then disarm, so a fault
  can both trip and heal (``service.state.before_save=error@3``).

``reset``/``torn``/``corrupt`` are returned by :func:`fire` for the
call site to act on; sites that cannot act on them ignore the value.

Activation: ``ORPHEUS_FAILPOINTS`` in the environment, parsed at
import (a subprocess under test needs no cooperation beyond inheriting
it), or :func:`configure` / :func:`activate` / :func:`clear` in-process.

Every fireable site must be listed in :data:`REGISTERED`; firing or
arming an unknown name raises, so the crash and chaos matrices can
enumerate ``REGISTERED`` and know they cover every site that exists.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass

from repro import telemetry

ENV_VAR = "ORPHEUS_FAILPOINTS"

#: Exit code used by the ``crash`` action, distinctive so tests can tell
#: "died at the failpoint" from ordinary failure (1) or success (0).
CRASH_EXIT_CODE = 86

#: Every injection point threaded through the codebase.
REGISTERED = frozenset(
    {
        # intent log (repro.resilience.intents)
        "intent.after_begin",
        "intent.before_done",
        # transactional state store (repro.resilience.statestore)
        "statestore.after_temp_write",
        "statestore.before_replace",
        "statestore.after_replace",
        # operation journal (repro.observe.journal)
        "journal.before_append",
        "journal.after_append",
        # CSV writer (repro.core.csvio) — torn checkout files
        "csv.mid_write",
        # telemetry accumulator save (repro.cli)
        "telemetry.before_save",
        # paged state layout (repro.pagestore.store) — dirty-page
        # write-back and the page-directory swap
        "pagestore.before_page_write",
        "pagestore.after_page_write",
        "pagestore.before_directory_swap",
        "pagestore.after_directory_swap",
        # daemon connection path (repro.service.daemon._serve_connection)
        "service.conn.after_recv",  # request decoded, before dispatch
        "service.conn.before_send",  # response built, before the bytes go out
        # daemon worker path (_execute_read / _execute_write)
        "service.worker.before_execute",  # handler not yet run
        "service.worker.mid_execute",  # handler ran, result not yet returned
        # daemon state persistence (_save_state_guarded)
        "service.state.before_save",
        # materialized-version cache (_op_checkout)
        "service.cache.corrupt_entry",
    }
)

#: Actions handed back to the call site instead of acted on here.
_SITE_ACTIONS = frozenset({"reset", "torn", "corrupt"})
_ACTIONS = frozenset({"crash", "error", "delay"}) | _SITE_ACTIONS


class FailpointError(RuntimeError):
    """Raised by the ``error`` action at an armed failpoint."""


@dataclass
class Armed:
    """One armed site: what to do and how many firings remain."""

    kind: str
    arg: float | int | None = None
    remaining: int | None = None  # None = unlimited


_lock = threading.Lock()
_active: dict[str, Armed] = {}
#: Lifetime fired count per site (survives disarm; reset by clear()).
_fired: dict[str, int] = {}


def _armed(name: str, kind: str, arg, count: int | None) -> Armed:
    if name not in REGISTERED:
        raise ValueError(
            f"unknown failpoint {name!r}; registered: "
            f"{', '.join(sorted(REGISTERED))}"
        )
    if kind not in _ACTIONS:
        raise ValueError(
            f"unknown failpoint action {kind!r} for {name!r}; have "
            f"crash[:code], error, delay[:seconds], reset, torn, corrupt "
            f"(suffix @N to limit firings)"
        )
    if count is not None and count <= 0:
        raise ValueError(f"failpoint count for {name!r} must be positive")
    if kind == "crash":
        arg = CRASH_EXIT_CODE if arg in (None, "") else int(arg)
    elif kind == "delay":
        arg = 0.05 if arg in (None, "") else float(arg)
    else:
        arg = None
    return Armed(kind, arg, count)


def parse_spec(spec: str) -> dict[str, Armed]:
    """Parse an ``ORPHEUS_FAILPOINTS`` value into an activation map."""
    parsed: dict[str, Armed] = {}
    for item in spec.replace(";", ",").split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"malformed failpoint spec {item!r}: expected "
                f"site=action[:arg][@count]"
            )
        name, action = (part.strip() for part in item.split("=", 1))
        count = None
        if "@" in action:
            action, _, raw_count = action.rpartition("@")
            count = int(raw_count)
        kind, _, arg = action.partition(":")
        parsed[name] = _armed(name, kind, arg, count)
    return parsed


def configure(spec: str) -> None:
    """Replace the active set from an env-style spec string."""
    parsed = parse_spec(spec)
    with _lock:
        _active.clear()
        _active.update(parsed)


def activate(
    name: str,
    action: str = "error",
    arg: float | int | None = None,
    count: int | None = None,
) -> None:
    """Arm one site programmatically (in-process tests)."""
    armed = _armed(name, action, arg, count)
    with _lock:
        _active[name] = armed


def deactivate(name: str) -> None:
    with _lock:
        _active.pop(name, None)


def clear() -> None:
    """Disarm everything and reset the fired counters."""
    with _lock:
        _active.clear()
        _fired.clear()


def active() -> dict[str, Armed]:
    with _lock:
        return dict(_active)


def stats() -> dict:
    """Armed sites + lifetime fired counts, for ``stats`` payloads."""
    with _lock:
        return {
            "armed": {
                name: armed.kind
                + (f":{armed.arg}" if armed.arg is not None else "")
                + (f"@{armed.remaining}" if armed.remaining is not None else "")
                for name, armed in sorted(_active.items())
            },
            "fired": dict(sorted(_fired.items())),
            "fired_total": sum(_fired.values()),
        }


def fire(name: str) -> str | None:
    """Trigger the failpoint ``name`` if armed.

    ``delay`` sleeps, ``error`` raises :class:`FailpointError`,
    ``crash`` exits the process the way SIGKILL would. Site actions
    (``reset``/``torn``/``corrupt``) are returned. Returns None when
    the site is not armed — one dict lookup, no lock.
    """
    if name not in _active:
        if name not in REGISTERED:
            raise ValueError(f"fired unregistered failpoint {name!r}")
        return None
    with _lock:
        armed = _active.get(name)
        if armed is None:
            return None
        if armed.remaining is not None:
            armed.remaining -= 1
            if armed.remaining <= 0:
                _active.pop(name, None)
        _fired[name] = _fired.get(name, 0) + 1
    telemetry.count("failpoints.fired")
    telemetry.count(f"failpoints.fired.{name}")
    if armed.kind == "delay":
        time.sleep(armed.arg)
        return None
    if armed.kind == "error":
        raise FailpointError(f"failpoint {name} triggered")
    if armed.kind == "crash":
        # Die the way SIGKILL would — no unwinding, no cleanup.
        sys.stderr.write(f"failpoint {name}: crashing (exit {armed.arg})\n")
        sys.stderr.flush()
        os._exit(armed.arg)
    return armed.kind


# Arm from the environment at import so a subprocess under test needs no
# cooperation beyond inheriting ORPHEUS_FAILPOINTS.
_env_spec = os.environ.get(ENV_VAR, "")
if _env_spec:
    configure(_env_spec)
