"""Tests for the static pattern index (:mod:`repro.conflicts.index`).

Three layers: unit tests for the discharge rules and the marker-aware
result-containment check, property/metamorphic tests tying every
discharged pair back to the exact decision procedure, and the
index-on/index-off differential oracle over seeded catalogues (the
soundness arbiter ``docs/INDEXING.md`` leans on).
"""

from __future__ import annotations

import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conflicts import batch, index
from repro.conflicts.batch import BatchAnalyzer, CanonicalOp, reference_matrix
from repro.conflicts.matrix import ConflictMatrix
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.index import (
    PatternIndex,
    discharge,
    profile_pattern,
    result_containment,
)
from repro.conflicts.semantics import ConflictKind, Verdict
from repro.operations.ops import Delete, Insert, Read
from repro.patterns.embedding import evaluate
from repro.patterns.pattern import WILDCARD, Axis, TreePattern, ValueTest
from repro.resilience import faults
from repro.workloads.generators import (
    random_branching_pattern,
    random_delete,
    random_insert,
    random_read,
)
from repro.xml.enumerate import enumerate_trees


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.uninstall()
    yield
    faults.uninstall()


def chain_pattern(*labels: str) -> TreePattern:
    """A linear CHILD-only pattern with the leaf as output."""
    pattern = TreePattern(labels[0])
    node = pattern.root
    for label in labels[1:]:
        node = pattern.add_child(node, label, Axis.CHILD)
    pattern.set_output(node)
    return pattern


def catalogue() -> dict:
    return {
        "titles": Read("bib/book/title"),
        "prices": Read("bib//price"),
        "restock": Insert("bib/book", "<note>x</note>"),
        "purge": Delete("bib/book"),
        "trim": Delete("bib//title"),
        "poison": Delete("bib/poisonlabel/entry"),
    }


#: Shifts the randomized catalogues into a disjoint seed region per CI
#: matrix entry, same convention as tests/test_differential.py.
SEED_BASE = int(os.environ.get("REPRO_DIFF_SEED_BASE", "0"))


def mixed_catalogue(seed: int, total: int = 18) -> dict:
    """A seeded read-heavy catalogue over a small alphabet."""
    rng = random.Random(1_000_003 * SEED_BASE + seed)
    ops = {}
    for index in range(total):
        roll = rng.random()
        if roll < 0.6:
            op = random_read(rng.randint(2, 4), linear=True, seed=rng)
        elif roll < 0.8:
            op = random_insert(rng.randint(2, 3), subtree_size=2, seed=rng)
        else:
            op = random_delete(rng.randint(2, 3), seed=rng)
        ops[f"op{index:03d}"] = op
    return ops


#: A small cap keeps random update-update witness searches fast while the
#: linear reads stay exact — the configuration the index's exactness gate
#: has to respect either way.
FAST = DetectorConfig(exhaustive_cap=4)


def fast_detector() -> ConflictDetector:
    return ConflictDetector(config=FAST)


def analyzer_pair(ops: dict) -> tuple[BatchAnalyzer, BatchAnalyzer]:
    """Two fresh serial analyzers over ``ops``: index on, index off."""
    on = BatchAnalyzer(detector=fast_detector(), jobs=1)
    off = BatchAnalyzer(
        detector=fast_detector(), jobs=1, index=False, containment=False
    )
    on.analyze(ops)
    off.analyze(ops)
    return on, off


class TestStaticProfile:
    def test_chain_follows_deterministic_prefix(self):
        profile = profile_pattern("Read", Read("bib/book/title").pattern)
        assert profile.chain == ("bib", "book", "title")
        assert profile.is_linear and profile.descendant_free
        assert profile.trunk_closed and profile.trunk_len == 3
        assert profile.max_depth == 3

    def test_chain_stops_at_descendant_edge(self):
        profile = profile_pattern("Read", Read("bib//price").pattern)
        assert profile.chain == ("bib",)
        assert profile.trunk_det == ("bib",)
        assert not profile.trunk_closed
        assert not profile.descendant_free

    def test_chain_stops_at_branch(self):
        pattern = chain_pattern("a", "b")
        pattern.add_child(pattern.root, "c", Axis.CHILD)
        profile = profile_pattern("Read", pattern)
        assert profile.chain == ("a",)

    def test_wildcards_are_none_in_chain(self):
        pattern = TreePattern("a")
        node = pattern.add_child(pattern.root, WILDCARD, Axis.CHILD)
        pattern.set_output(node)
        profile = profile_pattern("Read", pattern)
        assert profile.chain == ("a", None)

    def test_min_test_depth(self):
        pattern = chain_pattern("a", "b", "c")
        test_node = [n for n in pattern.nodes() if pattern.label(n) == "c"][0]
        pattern.set_value_test(test_node, ValueTest("<", 5.0))
        profile = profile_pattern("Read", pattern)
        assert profile.has_tests
        assert profile.min_test_depth == 3

    def test_profile_rides_on_canonical_op(self):
        canon = CanonicalOp.from_operation(Read("bib/book/title"))
        assert canon.profile is not None
        assert canon.profile.chain == ("bib", "book", "title")


class TestDischargeRules:
    NODE = ConflictKind.NODE

    def _discharge(self, first, second, kind=None, cap=64):
        return discharge(
            profile_pattern(type(first).__name__, first.pattern),
            profile_pattern(type(second).__name__, second.pattern),
            kind=kind or self.NODE,
            exhaustive_cap=cap,
        )

    def test_chain_clash_discharges(self):
        reason = self._discharge(
            Read("bib/book/title"), Delete("bib/poisonlabel/entry")
        )
        assert reason == "index:chain"

    def test_no_clash_no_discharge(self):
        assert self._discharge(Read("bib//price"), Delete("bib/poisonlabel/entry")) is None

    def test_wildcard_never_clashes(self):
        pattern = TreePattern("a")
        node = pattern.add_child(pattern.root, WILDCARD, Axis.CHILD)
        node = pattern.add_child(node, "c", Axis.CHILD)
        pattern.set_output(node)
        # The wildcard at position 1 never clashes with "b"; position 2
        # agrees, and the delete is too shallow for depth separation.
        assert self._discharge(Read(pattern), Delete("a/b/c")) is None

    def test_update_update_never_discharged(self):
        assert self._discharge(Delete("a/b/c"), Insert("a/x/y", "<z/>")) is None

    def test_read_read_never_discharged(self):
        assert self._discharge(Read("a/b"), Read("a/x")) is None

    def test_depth_separation_discharges_node_kind(self):
        assert self._discharge(Read("a/b"), Delete("a/b/c/d")) == "index:depth"

    def test_depth_separation_boundary(self):
        # Delete threshold for a test-free read is max_depth + 1 = 3.
        assert self._discharge(Read("a/b"), Delete("a/b/c")) == "index:depth"
        assert self._discharge(Read("a/b"), Delete("a/b")) is None

    def test_depth_separation_insert_threshold(self):
        # Insert threshold for a test-free read is max_depth = 2.
        assert self._discharge(Read("a/b"), Insert("a/b", "<z/>")) == "index:depth"

    def test_depth_rule_requires_node_kind(self):
        reason = self._discharge(
            Read("a/b"), Delete("a/b/c/d"), kind=ConflictKind.TREE
        )
        assert reason is None

    def test_depth_rule_refuses_open_trunk(self):
        assert self._discharge(Read("a/b"), Delete("a//deep/deeper")) is None

    def test_value_test_blocks_clash_at_horizon(self):
        read_pattern = chain_pattern("a", "b", "c")
        read_pattern.set_value_test(read_pattern.root, ValueTest("<", 5.0))
        # Test on the root: horizon is 1, the clash at position 1 is not
        # strictly above it, so the rule must refuse.
        assert self._discharge(Read(read_pattern), Delete("a/x/y")) is None

    def test_value_test_deep_enough_allows_clash(self):
        read_pattern = chain_pattern("a", "b", "c")
        leaf = [n for n in read_pattern.nodes() if read_pattern.label(n) == "c"][0]
        read_pattern.set_value_test(leaf, ValueTest("<", 5.0))
        # Horizon is 3; the clash at position 1 sits strictly above it.
        assert self._discharge(Read(read_pattern), Delete("a/x/y")) == "index:chain"

    def test_branching_read_gated_by_cap(self):
        pattern = TreePattern("a")
        pattern.add_child(pattern.root, "b", Axis.CHILD)
        node = pattern.add_child(pattern.root, "c", Axis.CHILD)
        pattern.set_output(node)
        read = Read(pattern)
        update = Delete("z/x/y")
        assert self._discharge(read, update, cap=None) is None
        assert self._discharge(read, update, cap=10_000) == "index:chain"

    def test_pattern_index_memoizes(self):
        index = PatternIndex(kind=self.NODE, exhaustive_cap=64)
        read = profile_pattern("Read", Read("bib/book/title").pattern)
        update = profile_pattern("Delete", Delete("bib/poisonlabel/entry").pattern)
        assert index.discharge(read, update) == "index:chain"
        assert index.discharge(update, read) == "index:chain"
        assert len(index._memo) == 1


class TestResultContainment:
    def test_descendant_generalizes_child_chain(self):
        general = TreePattern("a")
        out = general.add_child(general.root, "c", Axis.DESCENDANT)
        general.set_output(out)
        specific = chain_pattern("a", "b", "c")
        assert result_containment(general, specific)

    def test_reflexive(self):
        pattern = chain_pattern("a", "b", "c")
        assert result_containment(pattern, pattern)

    def test_wildcard_generalizes_label(self):
        general = TreePattern("a")
        out = general.add_child(general.root, WILDCARD, Axis.CHILD)
        general.set_output(out)
        specific = chain_pattern("a", "b")
        assert result_containment(general, specific)

    def test_label_mismatch_fails(self):
        assert not result_containment(chain_pattern("a", "b"), chain_pattern("a", "c"))

    def test_extra_branch_must_map(self):
        general = chain_pattern("a", "b")
        general.add_child(general.root, "q", Axis.CHILD)
        specific = chain_pattern("a", "b")
        assert not result_containment(general, specific)

    def test_marker_restriction_blocks_wildcard_laundering(self):
        """``a[*]`` does NOT result-contain ``a``: the wildcard leaf must
        not be allowed to map onto the artificial marker node."""
        general = TreePattern("a")
        general.add_child(general.root, WILDCARD, Axis.CHILD)
        general.set_output(general.root)
        specific = TreePattern("a")
        specific.set_output(specific.root)
        assert not result_containment(general, specific)

    def test_output_positions_must_align(self):
        general = chain_pattern("a", "b")  # outputs b
        specific = chain_pattern("a", "b")
        specific.set_output(specific.root)  # outputs a
        assert not result_containment(general, specific)

    @staticmethod
    def _no_search(general, specific):
        raise AssertionError("the refutation should have answered")

    def test_root_label_clash_is_refuted_before_marking(self, monkeypatch):
        general, specific = chain_pattern("a", "b"), chain_pattern("b", "b")
        assert not index._marked_homomorphism(general, specific)
        monkeypatch.setattr(index, "_marked_homomorphism", self._no_search)
        assert not result_containment(general, specific)

    def test_deeper_general_output_is_refuted_before_marking(self, monkeypatch):
        """``a/b/c`` does not contain ``a//c``: the specific output may sit
        one edge below the root, where ``a/b/c`` selects nothing."""
        general = chain_pattern("a", "b", "c")
        specific = TreePattern("a")
        specific.set_output(specific.add_child(specific.root, "c", Axis.DESCENDANT))
        assert result_containment(specific, general)  # the converse holds
        assert not index._marked_homomorphism(general, specific)
        monkeypatch.setattr(index, "_marked_homomorphism", self._no_search)
        assert not result_containment(general, specific)

    @staticmethod
    def _random_pattern(rng: random.Random) -> TreePattern:
        """A pattern over ``a``, ``b`` and ``*`` with both axes, branches,
        and its output at any node: the root, an inner node or a leaf."""
        pattern = random_branching_pattern(
            rng.randint(1, 4), ("a", "b"), p_wildcard=0.3, max_children=2, seed=rng
        )
        pattern.set_output(rng.choice(list(pattern.nodes())))
        return pattern

    @pytest.mark.parametrize("seed", range(3))
    def test_refutation_keeps_every_containment_and_each_is_sound(self, seed):
        """The refutation answers exactly as the marked homomorphism, and
        every certified containment holds on every tree of up to 5 nodes."""
        rng = random.Random(1_000_003 * SEED_BASE + 7919 * seed)
        trees = list(enumerate_trees(5, ("a", "b", "c")))
        certified = 0
        refuted = {"root": 0, "output": 0, "depth": 0}
        for _ in range(150):
            general, specific = self._random_pattern(rng), self._random_pattern(rng)
            contained = result_containment(general, specific)
            assert contained == index._marked_homomorphism(general, specific)
            if not index._label_ok(general, general.root, specific, specific.root):
                refuted["root"] += 1
            elif not index._label_ok(
                general, general.output, specific, specific.output
            ):
                refuted["output"] += 1
            elif general.depth(general.output) > specific.depth(specific.output):
                refuted["depth"] += 1
            if contained:
                certified += 1
                for tree in trees:
                    assert evaluate(specific, tree) <= evaluate(general, tree), (
                        general.sketch(),
                        specific.sketch(),
                        tree,
                    )
        assert certified > 0
        assert all(refuted.values()), refuted


class TestBatchDischarge:
    def test_discharge_reasons_in_matrix(self):
        analyzer = BatchAnalyzer(detector=fast_detector(), jobs=1)
        matrix = analyzer.analyze(catalogue())
        assert matrix.discharge_reason("titles", "poison") == "index:chain"
        assert matrix.verdict("titles", "poison") is Verdict.NO_CONFLICT
        assert matrix.discharge_reason("titles", "prices") == "trivial"
        assert matrix.discharge_reason("titles", "titles") == "trivial"
        assert matrix.discharge_reason("titles", "purge") == "decided"
        counts = matrix.discharge_counts()
        assert counts["index"] >= 1
        assert counts["decided"] >= 1
        assert sum(counts.values()) == sum(matrix.counts().values())

    def test_discharged_pairs_listing(self):
        analyzer = BatchAnalyzer(detector=fast_detector(), jobs=1)
        matrix = analyzer.analyze(catalogue())
        discharged = matrix.discharged_pairs()
        assert ("titles", "poison", "index:chain") in discharged or (
            "poison",
            "titles",
            "index:chain",
        ) in discharged
        for _, _, reason in discharged:
            assert reason.startswith(("index:", "containment:"))

    def test_discharge_reason_unknown_name_raises(self):
        analyzer = BatchAnalyzer(detector=fast_detector(), jobs=1)
        matrix = analyzer.analyze(catalogue())
        with pytest.raises(KeyError):
            matrix.discharge_reason("titles", "nope")

    def test_metrics_count_discharges(self):
        analyzer = BatchAnalyzer(detector=fast_detector(), jobs=1)
        matrix = analyzer.analyze(catalogue())
        counters = analyzer.metrics()["counters"]
        index_count = counters.get("batch.pairs_discharged{reason=index}", 0)
        assert index_count == matrix.discharge_counts()["index"]

    def test_every_discharged_pair_is_no_conflict_exactly(self):
        ops = catalogue()
        analyzer = BatchAnalyzer(detector=fast_detector(), jobs=1)
        matrix = analyzer.analyze(ops)
        reference = reference_matrix(ops, fast_detector())
        for first, second, _reason in matrix.discharged_pairs():
            assert matrix.verdict(first, second) is Verdict.NO_CONFLICT
            assert reference.verdict(first, second) is Verdict.NO_CONFLICT


class TestDifferentialOracle:
    @pytest.mark.parametrize("seed", [0, 1, 7, 1031, 2063])
    def test_index_on_off_byte_identical(self, seed):
        ops = mixed_catalogue(seed)
        on, off = analyzer_pair(ops)
        on_dict, off_dict = on.matrix.to_dict(), off.matrix.to_dict()
        # Discharge annotations differ by design; verdicts must not.
        for entry_on, entry_off in zip(on_dict["verdicts"], off_dict["verdicts"]):
            assert entry_on["first"] == entry_off["first"]
            assert entry_on["second"] == entry_off["second"]
            assert entry_on["verdict"] == entry_off["verdict"]
        assert json.dumps(
            {k: v for k, v in on_dict["stats"].items() if k != "discharged"},
            sort_keys=True,
        ) == json.dumps(
            {k: v for k, v in off_dict["stats"].items() if k != "discharged"},
            sort_keys=True,
        )

    def test_shuffle_invariance(self):
        ops = mixed_catalogue(42)
        base = BatchAnalyzer(detector=fast_detector(), jobs=1)
        base_matrix = base.analyze(ops)
        rng = random.Random(9)
        names = list(ops)
        for _ in range(3):
            rng.shuffle(names)
            shuffled = {name: ops[name] for name in names}
            analyzer = BatchAnalyzer(detector=fast_detector(), jobs=1)
            matrix = analyzer.analyze(shuffled)
            assert matrix.discharge_counts() == base_matrix.discharge_counts()
            for a, b in itertools.combinations(ops, 2):
                assert matrix.verdict(a, b) is base_matrix.verdict(a, b), (a, b)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_discharged_pairs_re_decide_no_conflict(self, seed):
        ops = mixed_catalogue(seed, total=10)
        analyzer = BatchAnalyzer(detector=fast_detector(), jobs=1)
        matrix = analyzer.analyze(ops)
        reference = reference_matrix(ops, fast_detector())
        for first, second, _reason in matrix.discharged_pairs():
            assert matrix.verdict(first, second) is Verdict.NO_CONFLICT
            assert reference.verdict(first, second) is Verdict.NO_CONFLICT


class TestContainmentPlanner:
    def test_refutation_leaves_the_planner_unchanged(self, monkeypatch):
        """Planning containment on the bare marked homomorphism and on the
        refuting check yields the same matrix, origins and counters."""

        def outcome(containment) -> dict:
            with monkeypatch.context() as patch:
                patch.setattr(batch, "result_containment", containment)
                analyzer = BatchAnalyzer(DetectorConfig(exhaustive_cap=1), jobs=1)
                matrix = analyzer.analyze(ops)
            with monkeypatch.context() as patch:
                patch.setattr(ConflictMatrix, "PAIR_LISTING_LIMIT", 0)
                grouped = matrix.to_dict()
            counters = analyzer.metrics()["counters"]
            return {
                "per_pair": matrix.to_dict(),
                "grouped": grouped,
                "discharge_counts": matrix.discharge_counts(),
                "discharged": matrix.discharged_pairs(),
                "counters": {
                    key: count
                    for key, count in counters.items()
                    if key.startswith("batch.")
                },
            }

        origins = 0
        for seed in range(40):
            ops = mixed_catalogue(seed)
            bare = outcome(index._marked_homomorphism)
            refuting = outcome(index.result_containment)
            assert refuting == bare, seed
            origins += sum(
                origin.startswith("containment:")
                for _, _, origin in refuting["discharged"]
            )
        assert origins > 0


class TestJsonShapes:
    @pytest.mark.parametrize("max_steps", [None, 200])
    @pytest.mark.parametrize("seed", [3, 5, 42])
    def test_grouped_listing_expands_to_pair_listing(self, seed, max_steps, monkeypatch):
        """Both ``to_dict()`` shapes list the same name pairs: each grouped
        entry, expanded over its ``groups`` members, yields ``multiplicity``
        per-pair entries with its verdict, reason and discharge."""
        ops = mixed_catalogue(seed)
        # Repeat every third shape under a new name, so groups have several
        # members; the step limit degrades some pairs, so reasons vary too.
        ops.update({f"{name}-copy": op for name, op in list(ops.items())[::3]})
        config = DetectorConfig(exhaustive_cap=FAST.exhaustive_cap, max_steps=max_steps)
        matrix = BatchAnalyzer(config, jobs=1).analyze(ops)
        per_pair = matrix.to_dict()
        assert "sparse" not in per_pair
        monkeypatch.setattr(ConflictMatrix, "PAIR_LISTING_LIMIT", len(ops) - 1)
        grouped = matrix.to_dict()
        assert grouped["sparse"] is True
        assert grouped["names"] == per_pair["names"]
        assert grouped["stats"] == per_pair["stats"]
        assert len(grouped["verdicts"]) < len(per_pair["verdicts"])
        group_of = {
            name: members for members in grouped["groups"] for name in members
        }
        position = {name: index for index, name in enumerate(matrix.names)}
        expanded = []
        for entry in grouped["verdicts"]:
            first, second = group_of[entry["first"]], group_of[entry["second"]]
            if first is second:
                pairs = list(itertools.combinations(first, 2))
            else:
                pairs = [(a, b) for a in first for b in second]
            assert len(pairs) == entry["multiplicity"]
            for a, b in pairs:
                if position[a] > position[b]:
                    a, b = b, a
                expanded.append(
                    {
                        "first": a,
                        "second": b,
                        "verdict": entry["verdict"],
                        "reason": entry["reason"],
                        "discharge": entry["discharge"],
                    }
                )
        expanded.sort(key=lambda entry: (entry["first"], entry["second"]))
        assert expanded == per_pair["verdicts"]


class TestFaultInterplay:
    def test_index_discharged_pairs_survive_worker_crashes(self):
        """With the index on, statically-independent poison pairs are
        discharged before they reach the crashing pool; the rest of the
        poison pairs are quarantined as usual."""
        ops = catalogue()
        faults.install(
            faults.FaultInjector.parse("worker_crash:1:only=poisonlabel", seed=5)
        )
        analyzer = BatchAnalyzer(FAST, jobs=2, retries=1, retry_backoff_s=0.001)
        matrix = analyzer.analyze(ops)
        assert matrix.verdict("titles", "poison") is Verdict.NO_CONFLICT
        assert matrix.discharge_reason("titles", "poison") == "index:chain"
        assert matrix.verdict("prices", "poison") is Verdict.UNKNOWN
        assert matrix.reason("prices", "poison") == "worker_crash"
