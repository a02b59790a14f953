"""Postmortems: the pinned deadlock, crash reports and the CLI.

The headline assertion is the golden digest: `run_pinned_deadlock()`
is fully deterministic (simulated time only, counter-allocated ids,
sorted-key JSON), so the same seed must produce a byte-identical
firefly-crash/1 report forever.  If an intentional change to the
kernel, scheduler or crash schema moves the digest, re-pin it here
and in docs/CAUSAL.md in the same commit.
"""

from __future__ import annotations

import copy
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import (PINNED_DEADLOCK_SEED, capture_crash,
                          extract_crash, find_cycle, render_crash_report,
                          report_digest, run_pinned_deadlock,
                          validate_crash)
from repro.cli import main
from repro.common.errors import ConfigurationError

pytestmark = pytest.mark.causal

PINNED_DIGEST = "3979a83b9eadd4da"


# ---------------------------------------------------------------------------
# cycle finding


class TestFindCycle:
    def test_simple_cycle(self):
        edges = [("a", "lock:x", "b"), ("b", "lock:y", "a")]
        cycle = find_cycle(edges)
        assert [e["waiter"] for e in cycle] == ["a", "b"]
        assert cycle[0] == {"waiter": "a", "resource": "lock:x",
                            "holder": "b"}

    def test_acyclic_graph_is_empty(self):
        edges = [("a", "lock:x", "b"), ("b", "lock:y", "c")]
        assert find_cycle(edges) == []

    def test_rotation_is_deterministic(self):
        # Same cycle listed from different starting points: the result
        # always starts at the lexicographically smallest waiter.
        forward = [("b", "r1", "c"), ("c", "r2", "a"), ("a", "r3", "b")]
        shuffled = list(reversed(forward))
        assert find_cycle(forward) == find_cycle(shuffled)
        assert find_cycle(forward)[0]["waiter"] == "a"

    def test_waiter_without_holder_is_ignored(self):
        assert find_cycle([("a", "event:strobe", "")]) == []


# ---------------------------------------------------------------------------
# the pinned scenario


class TestPinnedDeadlock:
    def test_report_is_deterministic_and_pinned(self):
        first = run_pinned_deadlock()
        second = run_pinned_deadlock()
        assert first == second
        assert report_digest(first) == PINNED_DIGEST

    def test_report_shape(self):
        report = run_pinned_deadlock()
        assert report["schema"] == "firefly-crash/1"
        assert report["error"]["type"] == "DeadlockError"
        cycle = report["wait_for"]["cycle"]
        assert {e["waiter"] for e in cycle} == {"left-fork", "right-fork"}
        assert report["recorder"]["recorded"] > 0
        names = {event["name"] for event in report["recent_events"]}
        assert any(name.startswith("sched.") for name in names)

    def test_other_seed_differs(self):
        other = run_pinned_deadlock(seed=PINNED_DEADLOCK_SEED + 1)
        assert report_digest(other) != PINNED_DIGEST

    def test_render_names_the_cycle(self):
        text = render_crash_report(run_pinned_deadlock())
        assert "wait-for cycle (2 threads):" in text
        assert "left-fork waits on lock:fork-b held by right-fork" in text
        assert "right-fork waits on lock:fork-a held by left-fork" in text
        assert f"report digest: {PINNED_DIGEST}" in text


# ---------------------------------------------------------------------------
# crash capture / extraction plumbing


class TestCaptureAndExtract:
    def test_capture_without_subject_still_reports_error(self):
        report = capture_crash(ValueError("boom"))
        assert report["error"] == {"type": "ValueError",
                                   "message": "boom"}
        assert report["schema"] == "firefly-crash/1"

    def test_extract_bare_report(self):
        report = run_pinned_deadlock()
        assert extract_crash(report) is report

    def test_extract_from_chaos_document(self):
        report = run_pinned_deadlock()
        wrapper = {"scenarios": [{"name": "ok", "crash": None},
                                 {"name": "bad", "crash": report}]}
        assert extract_crash(wrapper) == report

    def test_extract_missing_returns_none(self):
        assert extract_crash({"scenarios": [{"crash": None}]}) is None
        assert extract_crash({"unrelated": 1}) is None


# ---------------------------------------------------------------------------
# validating crash reports read from files


@functools.lru_cache(maxsize=1)
def _pinned_report_json() -> str:
    return json.dumps(run_pinned_deadlock(), sort_keys=True)


def _field_paths(value, prefix=()):
    """Every key/index path in a JSON value (the root excluded)."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


_REMOVE = object()
_PATHS = sorted(_field_paths(json.loads(_pinned_report_json())), key=str)


class TestValidateCrash:
    def test_pinned_report_is_valid(self):
        report = run_pinned_deadlock()
        assert validate_crash(report) is report

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(_PATHS),
           junk=st.sampled_from([None, [], {}, "x", 1, True, _REMOVE]))
    def test_mutated_report_renders_or_names_the_path(self, path, junk):
        """One field replaced by junk (or removed): the report either
        still renders, or fails with a ConfigurationError whose message
        names that field's path or a path below it — never another
        exception type."""
        report = json.loads(_pinned_report_json())
        parent = report
        for key in path[:-1]:
            parent = parent[key]
        if junk is _REMOVE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(junk)
        try:
            render_crash_report(report)
        except ConfigurationError as exc:
            named = "/".join(str(key) for key in path)
            assert str(exc).startswith(f"crash report: {named}"), str(exc)

    @pytest.mark.parametrize("report, fragment", [
        ([], "crash report must be an object"),
        ({"schema": "firefly-chaos/1"}, "schema is 'firefly-chaos/1'"),
        ({"schema": "firefly-crash/1", "time": -1}, "time is -1"),
    ])
    def test_root_level_damage(self, report, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            validate_crash(report)

    def test_cli_names_the_bad_field(self, tmp_path, capsys):
        report = run_pinned_deadlock()
        report["wait_for"]["cycle"][0]["waiter"] = None
        path = tmp_path / "crash.json"
        path.write_text(json.dumps(report))
        assert main(["postmortem", str(path)]) == 1
        err = capsys.readouterr().err
        assert "wait_for/cycle/0/waiter must be a string" in err

    def test_non_list_scenarios_hold_no_crash(self):
        assert extract_crash({"scenarios": 1}) is None


# ---------------------------------------------------------------------------
# the CLI subcommand


class TestPostmortemCli:
    def test_scenario_writes_json_and_renders(self, tmp_path, capsys):
        out = tmp_path / "crash.json"
        rc = main(["postmortem", "--scenario", "deadlock",
                   "--json", str(out)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "wait-for cycle" in captured
        assert "left-fork" in captured and "right-fork" in captured
        assert f"report digest: {PINNED_DIGEST}" in captured
        report = json.loads(out.read_text())
        assert report_digest(report) == PINNED_DIGEST

    def test_render_from_file(self, tmp_path, capsys):
        path = tmp_path / "crash.json"
        path.write_text(json.dumps(run_pinned_deadlock()))
        rc = main(["postmortem", str(path)])
        assert rc == 0
        assert "wait-for cycle" in capsys.readouterr().out

    def test_no_input_is_an_error(self, capsys):
        rc = main(["postmortem"])
        assert rc != 0

    def test_file_without_crash_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "clean.json"
        path.write_text(json.dumps({"scenarios": [{"crash": None}]}))
        rc = main(["postmortem", str(path)])
        assert rc != 0
