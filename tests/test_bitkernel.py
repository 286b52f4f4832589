"""Battery for the bit-parallel automata kernel, the one decision path.

:mod:`repro.automata.bitkernel` re-represents NFA subsets as machine
integers; correctness rests on the bitset step being *exactly* the set
step of NFA subset simulation.  This battery pins that down from four
directions:

* **Mask-table soundness** — ``MaskTable.from_pattern`` agrees with
  ``from_nfa(linear_pattern_nfa(...))`` on every symbol, and a hypothesis
  property over *random* NFAs checks ``BitsetAutomaton.step`` against
  subset simulation symbol by symbol.
* **Decision agreement** — the joint-shortest-word loop equals the eager
  NFA product, including the exact (length, lex)-least witness word, and
  the packed matching profile equals one NFA product per read prefix.
* **Metamorphic invariants** — relabeling NFA states and swapping
  operand order never flip a verdict.
* **Boundary + transport** — automata spanning the 63/64/65-state
  machine-word boundaries, spawn pool workers that build their own
  tables, and budget/fault interaction.

Seeds honor ``REPRO_DIFF_SEED_BASE`` like ``tests/test_differential.py``
so CI can shift the whole battery into disjoint input regions.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Budget, budget_scope
from repro.automata.bitkernel import (
    BitsetAutomaton,
    MaskTable,
    bitset_matching_profile,
    joint_shortest_word_bits,
    spine_spec,
)
from repro.automata.matching import linear_pattern_nfa, matching_alphabet
from repro.automata.nfa import NFA
from repro.compile.compiler import PatternCompiler
from repro.conflicts.detector import ConflictDetector
from repro.conflicts.semantics import Verdict
from repro.errors import BudgetExceeded
from repro.operations.ops import Delete, Insert, Read
from repro.patterns.xpath import parse_xpath
from repro.resilience import faults
from repro.workloads.generators import random_linear_pattern
from repro.xml.random_trees import random_tree
from repro.xml.tree import build_tree
from tests.oracles import nfa_profile

SEED_BASE = int(os.environ.get("REPRO_DIFF_SEED_BASE", "0"))
ALPHABET = ("a", "b")


def _rng(offset: int, seed: int) -> random.Random:
    return random.Random(1_000_003 * SEED_BASE + offset + seed)


def _random_nfa(rng: random.Random, states: int, alphabet) -> NFA:
    nfa = NFA(alphabet)
    for index in range(states):
        nfa.add_state(
            start=(index == 0), accepting=(rng.random() < 0.3 or index == states - 1)
        )
    for source in range(states):
        for symbol in alphabet:
            for target in range(states):
                if rng.random() < 0.25:
                    nfa.add_transition(source, symbol, target)
    return nfa


# ----------------------------------------------------------------------
# Mask-table construction
# ----------------------------------------------------------------------


class TestMaskConstruction:
    @pytest.mark.parametrize("seed", range(60))
    def test_from_pattern_equals_from_nfa(self, seed):
        """The NFA-free builder mirrors linear_pattern_nfa state by state."""
        rng = _rng(0, seed)
        pattern = random_linear_pattern(
            rng.randint(1, 6), ALPHABET, p_wildcard=0.3, seed=rng
        )
        other = random_linear_pattern(
            rng.randint(1, 3), ALPHABET, p_wildcard=0.3, seed=rng
        )
        alphabet = matching_alphabet(pattern, other)
        direct = MaskTable.from_pattern(pattern)
        via_nfa = MaskTable.from_nfa(linear_pattern_nfa(pattern, alphabet))
        assert direct.size == via_nfa.size
        assert direct.start == via_nfa.start
        assert direct.accepting == via_nfa.accepting
        for symbol in alphabet:
            assert direct.rows(symbol) == via_nfa.rows(symbol), (
                f"seed {seed}: rows differ on {symbol!r}"
            )

    @pytest.mark.parametrize("seed", range(30))
    def test_with_any_suffix_matches_nfa_weak_closure(self, seed):
        rng = _rng(5_000, seed)
        pattern = random_linear_pattern(
            rng.randint(1, 5), ALPHABET, p_wildcard=0.3, seed=rng
        )
        alphabet = matching_alphabet(pattern, pattern)
        table = MaskTable.from_pattern(pattern).with_any_suffix()
        nfa = linear_pattern_nfa(pattern, alphabet).with_any_suffix()
        auto = BitsetAutomaton(table)
        for _ in range(40):
            word = [rng.choice(alphabet) for _ in range(rng.randint(0, 7))]
            assert auto.accepts(word) == nfa.accepts(word), (
                f"seed {seed}: weak closure disagrees on {word!r}"
            )

    def test_rows_falls_back_to_any_rows_for_unknown_label(self):
        table = MaskTable.from_pattern(parse_xpath("a//b"))
        assert table.rows("zzz") == table.any_rows
        assert table.rows(None) == table.any_rows


# ----------------------------------------------------------------------
# The document walk == subset simulation on every root-to-node path
# ----------------------------------------------------------------------


class TestSelectWalk:
    @pytest.mark.parametrize("seed", range(60))
    def test_select_equals_nfa_on_every_path(self, seed):
        """A node is selected iff the NFA accepts its root-to-node labels."""
        rng = _rng(9_000, seed)
        pattern = random_linear_pattern(
            rng.randint(1, 6), ALPHABET, p_wildcard=0.3, p_descendant=0.5,
            seed=rng,
        )
        tree = random_tree(rng.randint(1, 40), (*ALPHABET, "c"), seed=rng)
        alphabet = tuple(sorted(tree.labels() | pattern.labels()))
        nfa = linear_pattern_nfa(pattern, alphabet)
        selected = BitsetAutomaton(MaskTable.from_pattern(pattern)).select(tree)
        for node in tree.nodes():
            assert (node in selected) == nfa.accepts(tree.path_labels(node)), (
                f"seed {seed}: node {node} on {tree.path_labels(node)}"
            )

    def test_dead_subtrees_are_not_visited(self):
        """Once the subset is empty the walk skips the whole subtree."""
        tree = build_tree(("a", ("x", ("b", "b")), ("b", "b")))
        stepped: list[tuple[int, str | None]] = []
        auto = BitsetAutomaton(MaskTable.from_pattern(parse_xpath("a/b/b")))
        step = auto.step

        def spy(subset, symbol):
            stepped.append((subset, symbol))
            return step(subset, symbol)

        auto.step = spy  # every memo miss goes through step
        assert len(auto.select(tree)) == 1
        assert (auto.start_mask, "a") in stepped
        assert all(subset for subset, _ in stepped)  # never from the dead state

    def test_foreign_labels_share_one_memo_entry(self):
        auto = BitsetAutomaton(MaskTable.from_pattern(parse_xpath("a//b")))
        tree = build_tree(("a", *(f"x{i}" for i in range(50)), ("b",)))
        assert auto.select(tree) == {tree.size - 1}
        assert {symbol for _, symbol in auto._steps} == {"a", "b", None}


# ----------------------------------------------------------------------
# Bitset step == set step (hypothesis, arbitrary NFAs)
# ----------------------------------------------------------------------


class TestStepSoundness:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bitset_step_equals_set_step(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        states = data.draw(st.integers(1, 12), label="states")
        nfa = _random_nfa(rng, states, ALPHABET)
        auto = BitsetAutomaton(MaskTable.from_nfa(nfa))
        subset = data.draw(
            st.integers(1, (1 << states) - 1), label="subset"
        )
        for symbol in ALPHABET:
            expected = 0
            for state in range(states):
                if subset >> state & 1:
                    for target in nfa.successors(state, symbol):
                        expected |= 1 << target
            assert auto.step(subset, symbol) == expected

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_acceptance_equals_subset_simulation(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        nfa = _random_nfa(rng, data.draw(st.integers(1, 10)), ALPHABET)
        auto = BitsetAutomaton(MaskTable.from_nfa(nfa))
        word = data.draw(
            st.lists(st.sampled_from(ALPHABET), max_size=8), label="word"
        )
        assert auto.accepts(word) == nfa.accepts(word)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_emptiness_and_shortest_word_agree_with_nfa_product(self, data):
        """Product emptiness + canonical word vs the eager NFA reference."""
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        left = _random_nfa(rng, rng.randint(1, 7), ALPHABET)
        right = _random_nfa(rng, rng.randint(1, 7), ALPHABET)
        reference = left.intersect(right).shortest_accepted_word()
        left_auto = BitsetAutomaton(MaskTable.from_nfa(left))
        right_auto = BitsetAutomaton(MaskTable.from_nfa(right))
        word = joint_shortest_word_bits(left_auto, right_auto, ALPHABET)
        assert word == reference


# ----------------------------------------------------------------------
# Metamorphic invariants
# ----------------------------------------------------------------------


class TestMetamorphic:
    @pytest.mark.parametrize("seed", range(40))
    def test_state_relabeling_never_flips_a_verdict(self, seed):
        """Permuting NFA state numbers permutes bits but not the language."""
        rng = _rng(20_000, seed)
        states = rng.randint(2, 8)
        base = _random_nfa(rng, states, ALPHABET)
        perm = list(range(states))
        rng.shuffle(perm)
        relabeled = NFA(ALPHABET)
        for index in range(states):
            relabeled.add_state()
        relabeled.start = perm[base.start]
        relabeled.accepting = {perm[s] for s in base.accepting}
        for source in range(states):
            for symbol in ALPHABET:
                for target in base.successors(source, symbol):
                    relabeled.add_transition(perm[source], symbol, perm[target])
        other = _random_nfa(rng, rng.randint(1, 6), ALPHABET)
        other_auto = BitsetAutomaton(MaskTable.from_nfa(other))
        base_word, word = (
            joint_shortest_word_bits(
                BitsetAutomaton(MaskTable.from_nfa(nfa)), other_auto, ALPHABET
            )
            for nfa in (base, relabeled)
        )
        assert word == base_word, f"seed {seed}: relabeling changed the verdict"

    @pytest.mark.parametrize("seed", range(40))
    def test_operand_order_never_flips_a_verdict(self, seed):
        rng = _rng(30_000, seed)
        left = random_linear_pattern(
            rng.randint(1, 5), ALPHABET, p_wildcard=0.3, seed=rng
        )
        right = random_linear_pattern(
            rng.randint(1, 5), ALPHABET, p_wildcard=0.3, seed=rng
        )
        # Strong matching is intersection of two exact languages — symmetric.
        comp = PatternCompiler()
        assert comp.match(left, right, weak=False) == comp.match(
            right, left, weak=False
        ), f"seed {seed}: operand order flipped the strong verdict"
        word = comp.matching_word(left, right, weak=False)
        flipped = comp.matching_word(right, left, weak=False)
        assert word == flipped, f"seed {seed}: operand order changed the word"


# ----------------------------------------------------------------------
# Machine-word boundaries
# ----------------------------------------------------------------------


class TestWordBoundaries:
    """Python ints are unbounded, but 63/64/65 states is where a fixed-width
    implementation would break — pin exactness there."""

    @pytest.mark.parametrize("states", (63, 64, 65, 129))
    def test_long_chain_automaton(self, states):
        nfa = NFA(ALPHABET)
        for index in range(states):
            nfa.add_state(start=(index == 0), accepting=(index == states - 1))
        for index in range(states - 1):
            nfa.add_transition(index, "a", index + 1)
        # Descendant-style self-loop in the middle, spanning the boundary.
        nfa.add_any_transitions(states // 2, states // 2)
        auto = BitsetAutomaton(MaskTable.from_nfa(nfa))
        accepted = ["a"] * (states - 1)
        assert auto.accepts(accepted)
        assert not auto.accepts(accepted[:-1])
        assert auto.accepts(["a"] * (states // 2) + ["b"] * 3 + ["a"] * (states - 1 - states // 2))
        word = joint_shortest_word_bits(auto, auto, ALPHABET)
        assert word == accepted

    @pytest.mark.parametrize("spine", (32, 33, 40))
    def test_long_pattern_spans_word_boundary(self, spine):
        # The root edge costs one state, every descendant step two:
        # 32 spine nodes put the strong table exactly on the 64-bit
        # boundary and its weak closure one past it (65 states).
        pattern = parse_xpath("//".join("a" * spine))
        table = MaskTable.from_pattern(pattern)
        assert table.size == 2 * spine
        assert table.with_any_suffix().size == 2 * spine + 1
        other = parse_xpath("/".join("a" * spine))
        comp = PatternCompiler()
        word = comp.matching_word(pattern, other, weak=False)
        assert word == ["a"] * spine
        assert comp.match(pattern, other, weak=True)


# ----------------------------------------------------------------------
# Matching profile (the (i, j) DP)
# ----------------------------------------------------------------------


class TestBitsetProfile:
    @pytest.mark.parametrize("seed", range(120))
    def test_profile_equals_reference_dp(self, seed):
        """The one-pass profile equals one NFA product per read prefix."""
        rng = _rng(40_000, seed)
        trunk = random_linear_pattern(
            rng.randint(1, 5), ALPHABET, p_wildcard=0.3, seed=rng
        )
        read = random_linear_pattern(
            rng.randint(1, 5), ALPHABET, p_wildcard=0.3, seed=rng
        )
        expected = nfa_profile(trunk, read)
        strong, weak = bitset_matching_profile(spine_spec(trunk), spine_spec(read))
        assert (frozenset(strong), frozenset(weak)) == expected, (
            f"seed {seed}: profiles differ"
        )


# ----------------------------------------------------------------------
# Transport: spawn pool workers
# ----------------------------------------------------------------------


class TestTransport:
    def test_spawn_pool_round_trip(self, monkeypatch):
        """Spawn workers inherit no tables; the ones they build agree."""
        from repro.conflicts.batch import BatchAnalyzer, reference_matrix

        catalogue = {
            "titles": Read("bib/book/title"),
            "purge": Delete("bib/book[author]"),
            "trim": Delete("bib//title"),
            "restock": Insert("bib/book", "<note>x</note>"),
        }
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        analyzer = BatchAnalyzer(jobs=2)
        matrix = analyzer.analyze(catalogue)
        if analyzer.metrics()["counters"].get("batch.pool_failures"):
            pytest.skip("process pool unavailable in this environment")
        reference = reference_matrix(catalogue)
        for first in catalogue:
            for second in catalogue:
                assert matrix.verdict(first, second) is reference.verdict(
                    first, second
                ), f"spawn pool disagrees on ({first}, {second})"


# ----------------------------------------------------------------------
# Kernel x resilience
# ----------------------------------------------------------------------


class TestKernelResilience:
    """Armed budgets and injected faults degrade kernel decisions cleanly."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        faults.uninstall()
        yield
        faults.uninstall()

    PAIR = (Read("a[b]/c"), Delete("a/c"))

    def test_step_limit_degrades(self):
        detector = ConflictDetector(max_steps=1)
        report = detector.read_delete(*self.PAIR)
        assert report.verdict is Verdict.UNKNOWN
        assert report.reason == "step_limit"
        assert report.degraded
        assert report.method == "budget"

    def test_deadline_degrades(self):
        detector = ConflictDetector(deadline_s=0.0)
        report = detector.read_delete(*self.PAIR)
        assert report.verdict is Verdict.UNKNOWN
        assert report.reason == "timeout"

    def test_bitwise_loops_hit_checkpoints(self):
        """The kernel's own loops trip an armed step budget (they do not
        run uninterruptible)."""
        with budget_scope(Budget(max_steps=2)):
            with pytest.raises(BudgetExceeded) as info:
                PatternCompiler().matching_word(
                    parse_xpath("a//b//c"),
                    parse_xpath("*//*//*"),
                    weak=True,
                )
        assert "bitkernel" in str(info.value)

    def test_profile_loop_hits_checkpoints(self):
        spec = spine_spec(parse_xpath("a//b//c//d"))
        with budget_scope(Budget(max_steps=1)):
            with pytest.raises(BudgetExceeded) as info:
                bitset_matching_profile(spec, spec)
        assert "bitkernel.profile" in str(info.value)

    def test_mask_build_hits_checkpoints(self):
        with budget_scope(Budget(max_steps=1)):
            with pytest.raises(BudgetExceeded) as info:
                MaskTable.from_pattern(parse_xpath("a/b/c/d/e"))
        assert "bitkernel.mask_build" in str(info.value)

    def test_slow_decide_fault_fires(self):
        """A ``slow_decide`` stall past the chunk timeout quarantines the
        poisoned pairs with reason ``timeout``, and every healthy pair
        still matches the serial reference."""
        from repro.conflicts.batch import BatchAnalyzer, reference_matrix

        ops = {
            "titles": Read("bib/book/title"),
            "prices": Read("bib//price"),
            "names": Read("bib/book/author/name"),
            "trim": Delete("bib//title"),
            "poison": Delete("bib/poisonlabel/entry"),
        }
        reference = reference_matrix(ops)
        faults.install(
            faults.FaultInjector.parse(
                "slow_decide:1:only=poisonlabel:delay=2.0"
            )
        )
        analyzer = BatchAnalyzer(
            jobs=2,
            retries=0,
            chunk_timeout_s=0.75,
            retry_backoff_s=0.001,
        )
        matrix = analyzer.analyze(ops)
        if analyzer.metrics()["counters"].get("batch.pool_failures"):
            pytest.skip("process pool unavailable in this environment")
        degraded = matrix.degraded_pairs()
        assert degraded, "slow_decide did not fire"
        for first, second, reason in degraded:
            assert "poison" in (first, second)
            assert reason == "timeout"
        for a, b, verdict in reference.pairs():
            if "poison" not in (a, b):
                assert matrix.verdict(a, b) is verdict, (
                    f"healthy pair ({a}, {b}) diverged"
                )
