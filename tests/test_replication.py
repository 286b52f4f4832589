"""Tests for the replication scenario engine (:mod:`repro.replication`).

Covers the log/decision layer, the resolver contract (including the
couchbase-lite edge cases: local-wins, remote-wins, delete-vs-update
merge, and a resolver that raises), session topology control, the
scenario DSL, the ``repro replay`` CLI, the service decision backend,
and the headline convergence properties:

* seeded random sessions converge under every built-in resolver
  (hypothesis, honoring ``REPRO_DIFF_SEED_BASE``);
* for ``last-writer-wins`` the outcome is invariant under sync order
  and under which replica initiates each sync (the resolver is a pure
  function of the pair);
* the acceptance scenario — 4 replicas, >= 20% certified-conflicting
  pairs — converges identically across two same-seed runs, both
  in-process and against a live service.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.conflicts.semantics import ConflictKind, Verdict
from repro.errors import ConvergenceError, ReplicationError, ScenarioError
from repro.replication import (
    BUILTIN_RESOLVERS,
    ConflictPair,
    Decision,
    InProcessBackend,
    LoggedOp,
    ReplicationSession,
    ServiceBackend,
    concurrent,
    last_writer_wins,
    load_scenario,
    merge_decisions,
    pair_key,
    resolver_by_name,
    run_scenario,
    scenario_from_dict,
    scenario_from_json,
)
from repro.workloads import random_replication_scenario
from repro.xml.isomorphism import canonical_form

SEED_BASE = int(os.environ.get("REPRO_DIFF_SEED_BASE", "0"))

DOC = "<doc><hot><item>0</item></hot><p0/><p1/><p2/><p3/></doc>"
SMOKE_SCENARIO = os.path.join(
    os.path.dirname(__file__), "..", "examples", "scenarios",
    "replication_smoke.json",
)

#: A certified-conflicting pair: the parent insert creates matches for
#: the child delete's pattern (the engine exhibits a witness).
HOT_PARENT = {"op": "insert", "xpath": "doc/hot", "xml": "<item><u/></item>"}
HOT_CHILD = {"op": "delete", "xpath": "doc/hot/item"}
PRIVATE_0 = {"op": "insert", "xpath": "doc/p0", "xml": "<u/>"}
PRIVATE_2 = {"op": "insert", "xpath": "doc/p2", "xml": "<v/>"}
#: Private inserts with a branching pattern: the engine cannot prove that
#: they commute, so the pair stays unproven.
GUARDED_0 = {"op": "insert", "xpath": "doc[p1]/p0", "xml": "<u/>"}
GUARDED_2 = {"op": "insert", "xpath": "doc[p3]/p2", "xml": "<v/>"}


def make_session(resolver="last-writer-wins", replicas=4, **kwargs):
    return ReplicationSession(replicas, DOC, resolver=resolver, **kwargs)


def forms(session):
    return set(session.canonical_forms().values())


# ----------------------------------------------------------------------
# Log layer
# ----------------------------------------------------------------------

class TestLog:
    def test_edit_stamps_and_applies(self):
        session = make_session()
        logged = session.edit(1, PRIVATE_0)
        assert logged.op_id == "r1.1"
        assert logged.origin == 1 and logged.seq == 1 and logged.lamport == 1
        assert logged.vc == ((1, 1),)
        assert "p0" in canonical_form(session.replicas[1].tree)

    def test_causal_edits_are_not_concurrent(self):
        session = make_session()
        first = session.edit(0, PRIVATE_0)
        session.sync(0, 1)
        second = session.edit(1, PRIVATE_2)
        assert second.knows(first)
        assert not concurrent(first, second)

    def test_unsynced_edits_are_concurrent(self):
        session = make_session()
        first = session.edit(0, PRIVATE_0)
        second = session.edit(1, PRIVATE_2)
        assert concurrent(first, second)

    def test_pair_key_is_order_insensitive(self):
        session = make_session()
        a = session.edit(0, PRIVATE_0)
        b = session.edit(1, PRIVATE_2)
        assert pair_key(a, b) == pair_key(b, a) == ("r0.1", "r1.1")

    def test_merge_decisions_is_deterministic_and_symmetric(self):
        mine = Decision(("r0.1", "r1.1"), "local", ("r1.1",), (), 0, "local-wins")
        theirs = Decision(("r0.1", "r1.1"), "remote", ("r0.1",), (), 1, "local-wins")
        winner_ab = merge_decisions(mine, theirs)
        winner_ba = merge_decisions(theirs, mine)
        assert winner_ab == winner_ba == mine  # smaller decided_by wins

    def test_merge_decisions_buries_losing_replacements(self):
        replacement = LoggedOp(
            op_id="m0(r0.1,r1.1)", origin=-1, seq=0, lamport=1,
            vc=((0, 1), (1, 1)), spec=dict(PRIVATE_0),
        )
        keeper = Decision(("r0.1", "r1.1"), "local", ("r1.1",), (), 0, "local-wins")
        merger = Decision(
            ("r0.1", "r1.1"), "merged", ("r0.1", "r1.1"), (replacement,),
            1, "custom",
        )
        merged = merge_decisions(keeper, merger)
        assert merged.outcome == "local"
        assert "m0(r0.1,r1.1)" in merged.dropped  # orphaned replacement dies
        assert "r0.1" not in merged.dropped       # the kept side stays kept

    def test_round_trips_to_dict(self):
        session = make_session()
        logged = session.edit(0, PRIVATE_0)
        payload = logged.to_dict()
        assert payload["op_id"] == "r0.1" and payload["spec"]["op"] == "insert"
        decision = Decision(("a", "b"), "unresolved", ("a", "b"), (), 2, "x", "boom")
        assert decision.to_dict()["note"] == "boom"


# ----------------------------------------------------------------------
# Resolvers (SNIPPETS.md / couchbase-lite edge cases)
# ----------------------------------------------------------------------

def _conflict_pair(session_resolver="last-writer-wins"):
    """A real certified conflict captured via a probe resolver."""
    captured = []

    def probe(conflict):
        captured.append(conflict)
        return last_writer_wins(conflict)

    session = make_session(resolver=probe, replicas=2)
    session.edit(0, HOT_PARENT)
    session.edit(1, HOT_CHILD)
    session.sync(0, 1)
    assert captured, "expected the hot pair to certify as a conflict"
    return captured[0]


class TestResolvers:
    def test_resolver_by_name_and_aliases(self):
        assert resolver_by_name("local_wins") is BUILTIN_RESOLVERS["local-wins"]
        fn = lambda conflict: "local"  # noqa: E731
        assert resolver_by_name(fn) is fn
        with pytest.raises(ReplicationError, match="unknown resolver"):
            resolver_by_name("nope")

    def test_conflict_pair_exposes_delete_vs_update(self):
        conflict = _conflict_pair()
        assert conflict.verdict is Verdict.CONFLICT
        assert conflict.is_delete_vs_update
        assert conflict.deleter.kind == "delete"
        assert conflict.updater.kind == "insert"

    def test_local_wins_keeps_initiator_side(self):
        session = make_session(resolver="local-wins", replicas=2)
        local = session.edit(0, HOT_PARENT)
        remote = session.edit(1, HOT_CHILD)
        session.sync(0, 1)  # replica 0 initiates => its op is local
        decision = session.replicas[0].decisions[pair_key(local, remote)]
        assert decision.outcome == "local"
        assert decision.dropped == (remote.op_id,)
        assert session.converged()

    def test_remote_wins_keeps_incoming_side(self):
        session = make_session(resolver="remote-wins", replicas=2)
        local = session.edit(0, HOT_PARENT)
        session.edit(1, HOT_CHILD)
        session.sync(0, 1)
        decision = next(iter(session.replicas[0].decisions.values()))
        assert decision.outcome == "remote"
        assert decision.dropped == (local.op_id,)
        assert session.converged()

    def test_last_writer_wins_is_a_pure_function_of_the_pair(self):
        conflict = _conflict_pair()
        flipped = ConflictPair(
            local=conflict.remote,
            remote=conflict.local,
            verdict=conflict.verdict,
            kind=conflict.kind,
            local_replica=conflict.remote_replica,
            remote_replica=conflict.local_replica,
        )
        straight = last_writer_wins(conflict)
        mirrored = last_writer_wins(flipped)
        # Same winner op regardless of which side is "local".
        winner = conflict.local if straight == "local" else conflict.remote
        mirrored_winner = flipped.local if mirrored == "local" else flipped.remote
        assert winner.op_id == mirrored_winner.op_id

    def test_delete_vs_update_merge_resolver(self):
        def merge(conflict):
            assert conflict.is_delete_vs_update
            return {"op": "insert", "xpath": "doc/hot", "xml": "<disputed/>"}

        session = make_session(resolver=merge, replicas=3)
        session.edit(0, HOT_PARENT)
        session.edit(1, HOT_CHILD)
        session.quiesce()
        assert session.converged()
        decision = next(iter(session.replicas[2].decisions.values()))
        assert decision.outcome == "merged"
        assert len(decision.added) == 1
        assert decision.added[0].origin == -1
        for rid in range(3):
            assert "disputed" in canonical_form(session.replicas[rid].tree)

    def test_raising_resolver_degrades_to_unresolved(self):
        def broken(conflict):
            raise RuntimeError("resolver exploded")

        session = make_session(resolver=broken, replicas=3)
        a = session.edit(0, HOT_PARENT)
        b = session.edit(1, HOT_CHILD)
        session.quiesce()  # must not raise
        assert session.converged()  # and must not diverge silently
        unresolved = session.unresolved()
        assert [d.pair for d in unresolved] == [pair_key(a, b)]
        assert "resolver exploded" in unresolved[0].note
        # Both sides conservatively withheld from every replica's replay.
        for rep in session.replicas:
            live = {op.op_id for op in rep.live_ops()}
            assert a.op_id not in live and b.op_id not in live
        counters = session.registry.snapshot()["counters"]
        assert counters["replication.resolver_errors"] == 1

    def test_resolver_returning_garbage_degrades(self):
        session = make_session(resolver=lambda conflict: 42, replicas=2)
        session.edit(0, HOT_PARENT)
        session.edit(1, HOT_CHILD)
        session.sync(0, 1)
        assert session.converged()
        assert session.unresolved()


# ----------------------------------------------------------------------
# Session semantics and topology
# ----------------------------------------------------------------------

class TestSession:
    def test_rejects_read_ops_and_bad_replicas(self):
        session = make_session()
        with pytest.raises(ReplicationError, match="insert/delete"):
            session.edit(0, {"op": "read", "xpath": "doc/hot"})
        with pytest.raises(ReplicationError, match="no replica"):
            session.edit(9, PRIVATE_0)
        with pytest.raises(ReplicationError, match="at least one replica"):
            ReplicationSession(0, DOC)

    def test_unknown_policy_validation(self):
        with pytest.raises(ReplicationError, match="unknown_policy"):
            ReplicationSession(2, DOC, unknown_policy="maybe")

    def test_non_conflicting_edits_all_materialize(self):
        session = make_session(replicas=3)
        session.edit(0, PRIVATE_0)
        session.edit(2, PRIVATE_2)
        session.quiesce()
        assert session.converged()
        form = forms(session).pop()
        assert "u" in form and "v" in form  # both payloads survived
        assert session.lost_updates() == []

    def test_unknown_policy_conflict_routes_unproven_pairs(self):
        session = make_session(replicas=2, unknown_policy="conflict")
        session.edit(0, GUARDED_0)
        session.edit(1, GUARDED_2)
        session.sync(0, 1)
        assert session.converged()
        # The unproven private pair went to the resolver instead.
        assert session.replicas[0].decisions
        counters = session.registry.snapshot()["counters"]
        assert "replication.pairs_unproven" not in counters
        assert counters["replication.pairs_conflicting{verdict=unknown}"] >= 1

    def test_partition_blocks_and_heal_restores(self):
        session = make_session(replicas=4)
        session.partition([[0, 1], [2, 3]])
        assert session.sync(0, 2).skipped == "partitioned"
        assert session.sync(0, 1).skipped is None
        session.heal()
        assert session.sync(0, 2).skipped is None
        with pytest.raises(ReplicationError, match="two partition groups"):
            session.partition([[0, 1], [1, 2]])

    def test_crash_blocks_edit_and_sync_until_recover(self):
        session = make_session()
        session.crash(1)
        with pytest.raises(ReplicationError, match="down"):
            session.edit(1, PRIVATE_0)
        assert session.sync(0, 1).skipped == "down"
        session.edit(0, PRIVATE_0)
        session.recover(1)
        session.quiesce()
        assert session.converged()
        assert "u" in canonical_form(session.replicas[1].tree)

    def test_independent_resolutions_converge_after_heal(self):
        # local-wins is asymmetric: under a partition, both islands can
        # rule on the same pair differently once they learn of it; the
        # deterministic decision merge must still converge everyone.
        session = make_session(resolver="local-wins", replicas=4)
        session.edit(0, HOT_PARENT)
        session.edit(2, HOT_CHILD)
        session.partition([[0, 2], [1, 3]])
        session.sync(0, 2)   # island one classifies and resolves
        session.heal()
        session.quiesce()
        assert session.converged()
        rulings = {
            rep.decisions[("r0.1", "r2.1")] for rep in session.replicas
        }
        assert len(rulings) == 1  # every replica holds the same decision

    def test_quiesce_bound_is_loud(self):
        session = make_session(replicas=2)
        with pytest.raises(ReplicationError, match="did not quiesce"):
            session.quiesce(max_rounds=0)


# ----------------------------------------------------------------------
# Scenario DSL
# ----------------------------------------------------------------------

class TestScenarioValidation:
    def test_unknown_step(self):
        with pytest.raises(ScenarioError, match="unknown step"):
            scenario_from_dict(
                {"replicas": 2, "doc": "<d/>", "steps": [{"step": "explode"}]}
            )

    def test_missing_fields_and_bad_types(self):
        with pytest.raises(ScenarioError, match="missing required field"):
            scenario_from_dict({"replicas": 2, "doc": "<d/>"})
        with pytest.raises(ScenarioError, match="must be int"):
            scenario_from_dict({"replicas": "two", "doc": "<d/>", "steps": []})
        with pytest.raises(ScenarioError, match="out of range"):
            scenario_from_dict(
                {
                    "replicas": 2,
                    "doc": "<d/>",
                    "steps": [{"step": "crash", "replica": 5}],
                }
            )

    def test_sync_endpoint_rules(self):
        base = {"replicas": 3, "doc": "<d/>"}
        with pytest.raises(ScenarioError, match="both endpoints"):
            scenario_from_dict({**base, "steps": [{"step": "sync", "a": 0}]})
        with pytest.raises(ScenarioError, match="must differ"):
            scenario_from_dict(
                {**base, "steps": [{"step": "sync", "a": 1, "b": 1}]}
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ScenarioError, match="unknown field"):
            scenario_from_dict(
                {"replicas": 2, "doc": "<d/>", "steps": [], "extra": 1}
            )
        with pytest.raises(ScenarioError, match="unknown field"):
            scenario_from_dict(
                {
                    "replicas": 2,
                    "doc": "<d/>",
                    "steps": [{"step": "heal", "bogus": 1}],
                }
            )

    def test_bad_json_text(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            scenario_from_json("{nope")


class TestScenarioRun:
    def test_canned_smoke_scenario(self):
        result = run_scenario(load_scenario(SMOKE_SCENARIO))
        assert result.converged
        assert result.error is None
        assert result.lost_updates == []
        assert result.pairs_classified > 0
        rate = result.pairs_conflicting / result.pairs_classified
        assert rate >= 0.20  # the acceptance bar
        payload = result.to_dict()
        assert payload["verdict_source"] == "in-process"
        assert json.dumps(payload)  # JSON-serializable throughout

    def test_resolver_override(self):
        scenario = load_scenario(SMOKE_SCENARIO)
        result = run_scenario(scenario, resolver="local-wins")
        assert result.converged and result.resolver == "local-wins"

    def test_mid_scenario_divergence_is_loud(self):
        # An assert_converged forbidden to quiesce, while a partition is
        # still up and the islands have diverged, must raise.
        scenario = scenario_from_dict(
            {
                "replicas": 2,
                "doc": DOC,
                "steps": [
                    {"step": "partition", "groups": [[0], [1]]},
                    {"step": "edit", "replica": 0, "op": PRIVATE_0},
                    {"step": "assert_converged", "quiesce": False},
                ],
            }
        )
        with pytest.raises(ConvergenceError, match="diverged"):
            run_scenario(scenario)
        result = run_scenario(scenario, strict=False)
        assert not result.converged and result.error is not None


class TestReplayCLI:
    def test_replay_human_output(self, capsys):
        code = cli_main(["replay", SMOKE_SCENARIO])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out and "resolutions" in out

    def test_replay_json_output(self, capsys):
        code = cli_main(["replay", SMOKE_SCENARIO, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["converged"] is True
        assert payload["lost_updates"] == []
        assert payload["pairs_conflicting"] >= 1

    def test_replay_missing_file_is_usage_error(self, capsys):
        assert cli_main(["replay", "/nonexistent.json"]) == 64

    def test_replay_diverged_exits_one(self, tmp_path, capsys):
        scenario = {
            "replicas": 2,
            "doc": "<d><p0/><p1/></d>",
            "steps": [
                {"step": "partition", "groups": [[0], [1]]},
                {"step": "edit", "replica": 0,
                 "op": {"op": "insert", "xpath": "d/p0", "xml": "<u/>"}},
                {"step": "assert_converged", "quiesce": False},
            ],
        }
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(scenario))
        assert cli_main(["replay", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is False


# ----------------------------------------------------------------------
# Convergence properties
# ----------------------------------------------------------------------

RESOLVER_NAMES = sorted(BUILTIN_RESOLVERS)


class TestConvergenceProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        resolver=st.sampled_from(RESOLVER_NAMES),
        replicas=st.integers(min_value=2, max_value=4),
        conflict_rate=st.sampled_from([0.0, 0.3, 0.8]),
        partition=st.booleans(),
    )
    def test_random_sessions_converge(
        self, seed, resolver, replicas, conflict_rate, partition
    ):
        scenario = random_replication_scenario(
            replicas=replicas,
            edits=10,
            conflict_rate=conflict_rate,
            seed=SEED_BASE + seed,
            resolver=resolver,
            bursts=2,
            partition=partition,
        )
        result = run_scenario(scenario)
        assert result.converged
        assert result.lost_updates == []
        assert result.error is None

    @pytest.mark.parametrize("resolver", RESOLVER_NAMES)
    def test_same_seed_runs_are_identical(self, resolver):
        scenario = random_replication_scenario(
            replicas=4, edits=16, conflict_rate=0.5,
            seed=SEED_BASE + 99, resolver=resolver,
        )
        first = run_scenario(scenario).to_dict()
        second = run_scenario(scenario).to_dict()
        for payload in (first, second):
            payload.pop("sync_ms")  # wall-clock, legitimately varies
        assert first == second

    def _lww_outcome(self, schedule):
        session = make_session(resolver="last-writer-wins", replicas=3)
        session.edit(0, HOT_PARENT)
        session.edit(1, HOT_CHILD)
        session.edit(2, PRIVATE_2)
        for a, b in schedule:
            session.sync(a, b)
        session.quiesce()
        assert session.converged()
        return forms(session).pop()

    def test_lww_is_sync_order_invariant(self):
        ordered = self._lww_outcome([(0, 1), (0, 2), (1, 2)])
        reversed_order = self._lww_outcome([(1, 2), (0, 2), (0, 1)])
        assert ordered == reversed_order

    def test_lww_is_initiator_invariant(self):
        # Which replica plays "local" must not change the outcome.
        straight = self._lww_outcome([(0, 1), (0, 2), (1, 2)])
        flipped = self._lww_outcome([(1, 0), (2, 0), (2, 1)])
        assert straight == flipped


# ----------------------------------------------------------------------
# Service decision backend (live in-process service)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def live_service():
    from repro.service import ConflictService, ServiceConfig

    service = ConflictService(ServiceConfig(port=0, workers=2))
    service.start_background()
    yield service
    service.drain(snapshot=False)


class TestServiceBackend:
    def test_acceptance_scenario_both_backends_agree(self, live_service):
        """The ISSUE acceptance criterion, end to end.

        A seeded 4-replica scenario with >= 20% certified-conflicting
        pairs converges under every built-in resolver, identically
        across two same-seed runs, in-process and via a live service.
        """
        scenario = load_scenario(SMOKE_SCENARIO)
        for resolver in RESOLVER_NAMES:
            in_process = run_scenario(
                scenario, resolver=resolver, backend=InProcessBackend()
            )
            backend = ServiceBackend(port=live_service.port)
            try:
                via_service = run_scenario(
                    scenario, resolver=resolver, backend=backend
                )
            finally:
                backend.close()
            for result in (in_process, via_service):
                assert result.converged, resolver
                assert result.lost_updates == []
                rate = result.pairs_conflicting / result.pairs_classified
                assert rate >= 0.20
            assert in_process.pairs_conflicting == via_service.pairs_conflicting
            assert via_service.verdict_source == "service"
            # Determinism across same-seed service-backed runs too.
            backend = ServiceBackend(port=live_service.port)
            try:
                again = run_scenario(scenario, resolver=resolver, backend=backend)
            finally:
                backend.close()
            a, b = via_service.to_dict(), again.to_dict()
            a.pop("sync_ms"), b.pop("sync_ms")
            assert a == b

    def test_backend_requires_endpoint(self):
        with pytest.raises(ValueError, match="client or a port"):
            ServiceBackend()
