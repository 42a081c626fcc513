"""The failpoint framework itself: spec parsing, actions, registration."""

from __future__ import annotations

import time

import pytest

from repro.resilience import failpoints
from repro.resilience.failpoints import (
    CRASH_EXIT_CODE,
    FailpointError,
    REGISTERED,
    parse_spec,
)


class TestParseSpec:
    def test_single_crash(self):
        parsed = parse_spec("statestore.after_replace=crash")
        assert set(parsed) == {"statestore.after_replace"}
        armed = parsed["statestore.after_replace"]
        assert (armed.kind, armed.arg) == ("crash", CRASH_EXIT_CODE)

    def test_crash_with_code(self):
        parsed = parse_spec("journal.before_append=crash:99")
        armed = parsed["journal.before_append"]
        assert (armed.kind, armed.arg) == ("crash", 99)

    def test_multiple_separators(self):
        parsed = parse_spec(
            "journal.before_append=error;intent.after_begin=delay:0.25,"
            "csv.mid_write=error"
        )
        kinds = {name: (a.kind, a.arg) for name, a in parsed.items()}
        assert kinds == {
            "journal.before_append": ("error", None),
            "intent.after_begin": ("delay", 0.25),
            "csv.mid_write": ("error", None),
        }

    def test_empty_spec(self):
        assert parse_spec("") == {}
        assert parse_spec(" , ;") == {}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            parse_spec("no.such.point=crash")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint action"):
            parse_spec("csv.mid_write=explode")

    def test_malformed_item_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_spec("justaname")


class TestFire:
    def test_unarmed_is_noop(self):
        failpoints.fire("journal.before_append")  # must not raise

    def test_error_action_raises(self):
        failpoints.activate("journal.before_append", "error")
        with pytest.raises(FailpointError, match="journal.before_append"):
            failpoints.fire("journal.before_append")

    def test_delay_action_sleeps(self):
        failpoints.activate("csv.mid_write", "delay", 0.05)
        started = time.monotonic()
        failpoints.fire("csv.mid_write")
        assert time.monotonic() - started >= 0.04

    def test_deactivate_and_clear(self):
        failpoints.activate("csv.mid_write", "error")
        failpoints.deactivate("csv.mid_write")
        failpoints.fire("csv.mid_write")
        failpoints.activate("csv.mid_write", "error")
        failpoints.clear()
        failpoints.fire("csv.mid_write")
        assert failpoints.active() == {}

    def test_unregistered_fire_raises(self):
        with pytest.raises(ValueError, match="unregistered"):
            failpoints.fire("made.up.site")

    def test_activate_unknown_rejected(self):
        with pytest.raises(ValueError):
            failpoints.activate("made.up.site", "error")

    def test_configure_replaces(self):
        failpoints.activate("csv.mid_write", "error")
        failpoints.configure("journal.after_append=error")
        assert "csv.mid_write" not in failpoints.active()
        assert "journal.after_append" in failpoints.active()


class TestRegistry:
    def test_registered_names_are_namespaced(self):
        for name in REGISTERED:
            component, _, site = name.partition(".")
            assert component and site, name

    def test_every_registered_point_is_wired_into_source(self):
        """Each registered name appears in a fire() call somewhere under
        src/ — a stale registry entry would silently shrink the crash
        matrix."""
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        corpus = "\n".join(
            path.read_text(encoding="utf-8")
            for path in src.rglob("*.py")
            if path.name != "failpoints.py"
        )
        for name in REGISTERED:
            assert f'fire("{name}")' in corpus, (
                f"failpoint {name} registered but never fired in src/"
            )
