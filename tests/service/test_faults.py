"""The failpoint registry at the service-layer sites: the full grammar
(site actions, ``@count``), arming/disarming, count-limited firing, and
the stats surface the daemon embeds in its payloads."""

import pytest

from repro.resilience import failpoints
from repro.resilience.failpoints import FailpointError


class TestParseSpec:
    def test_single_entry(self):
        parsed = failpoints.parse_spec("service.worker.mid_execute=error")
        assert set(parsed) == {"service.worker.mid_execute"}
        armed = parsed["service.worker.mid_execute"]
        assert armed.kind == "error"
        assert armed.remaining is None

    def test_multiple_entries_with_args_and_counts(self):
        parsed = failpoints.parse_spec(
            "service.state.before_save=error@3,"
            "service.worker.before_execute=delay:0.25;"
            "service.conn.before_send=torn@1"
        )
        assert parsed["service.state.before_save"].remaining == 3
        assert parsed["service.worker.before_execute"].kind == "delay"
        assert parsed["service.worker.before_execute"].arg == 0.25
        assert parsed["service.conn.before_send"].kind == "torn"
        assert parsed["service.conn.before_send"].remaining == 1

    def test_crash_default_exit_code(self):
        parsed = failpoints.parse_spec("service.worker.mid_execute=crash")
        armed = parsed["service.worker.mid_execute"]
        assert armed.arg == failpoints.CRASH_EXIT_CODE

    def test_crash_explicit_exit_code(self):
        parsed = failpoints.parse_spec("service.worker.mid_execute=crash:7")
        assert parsed["service.worker.mid_execute"].arg == 7

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            failpoints.parse_spec("no.such.site=error")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint action"):
            failpoints.parse_spec("service.worker.mid_execute=explode")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            failpoints.parse_spec("service.worker.mid_execute")

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            failpoints.parse_spec("service.worker.mid_execute=error@0")

    def test_empty_items_skipped(self):
        assert failpoints.parse_spec(",, ,") == {}


class TestTake:
    def test_unarmed_site_is_noop(self):
        assert failpoints.fire("service.worker.mid_execute") is None

    def test_unregistered_site_raises_even_unarmed(self):
        with pytest.raises(ValueError, match="unregistered"):
            failpoints.fire("not.a.site")

    def test_error_action_raises(self):
        failpoints.activate("service.worker.mid_execute", "error")
        with pytest.raises(FailpointError):
            failpoints.fire("service.worker.mid_execute")

    def test_count_limited_disarms_after_n_firings(self):
        failpoints.activate("service.state.before_save", "error", count=2)
        for _ in range(2):
            with pytest.raises(FailpointError):
                failpoints.fire("service.state.before_save")
        # third firing: disarmed, back to no-op
        assert failpoints.fire("service.state.before_save") is None
        assert "service.state.before_save" not in failpoints.active()

    def test_site_specific_kind_returned_to_caller(self):
        failpoints.activate("service.conn.before_send", "torn")
        assert failpoints.fire("service.conn.before_send") == "torn"
        failpoints.activate("service.cache.corrupt_entry", "corrupt")
        assert failpoints.fire("service.cache.corrupt_entry") == "corrupt"

    def test_delay_sleeps_and_continues(self):
        failpoints.activate("service.worker.before_execute", "delay", arg=0.0)
        assert failpoints.fire("service.worker.before_execute") is None

    def test_deactivate(self):
        failpoints.activate("service.worker.mid_execute", "error")
        failpoints.deactivate("service.worker.mid_execute")
        assert failpoints.fire("service.worker.mid_execute") is None


class TestStats:
    def test_stats_reports_armed_and_fired(self):
        failpoints.activate("service.worker.mid_execute", "error", count=2)
        with pytest.raises(FailpointError):
            failpoints.fire("service.worker.mid_execute")
        stats = failpoints.stats()
        assert stats["armed"] == {"service.worker.mid_execute": "error@1"}
        assert stats["fired"] == {"service.worker.mid_execute": 1}
        assert stats["fired_total"] == 1

    def test_fired_counts_survive_disarm_until_clear(self):
        failpoints.activate("service.conn.after_recv", "reset", count=1)
        assert failpoints.fire("service.conn.after_recv") == "reset"
        assert failpoints.stats()["armed"] == {}
        assert failpoints.stats()["fired_total"] == 1
        failpoints.clear()
        assert failpoints.stats()["fired_total"] == 0

    def test_configure_replaces_active_set(self):
        failpoints.activate("service.conn.after_recv", "reset")
        failpoints.configure("service.worker.mid_execute=error")
        assert set(failpoints.active()) == {"service.worker.mid_execute"}
