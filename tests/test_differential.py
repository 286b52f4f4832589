"""Differential oracle suite for the engine's one decision path.

The linear detectors decide on the bit-parallel kernel behind the
compile cache (:mod:`repro.compile`).  This suite holds that path to two
independent oracles with seeded randomized tests:

* **Brute force** — every seeded case (at least 200 per update
  semantics) is decided for all three conflict kinds: a reported witness
  must pass the Lemma 1 check, and a NO_CONFLICT verdict must survive
  exhaustive witness search up to a cap that is conclusive for these
  instance sizes.
* **Brute-force chain rule** — seeded random branching reads against
  linear and branching deletes and inserts are decided by the trunk
  prefilter and the chain rule alone (no search): a ``CONFLICT`` witness
  must pass the Lemma 1 check, and no tree of up to
  ``min(BRANCHING_SEARCH_CAP, bound)`` nodes may refute a
  ``NO_CONFLICT``.
* **Brute-force commutation** — seeded random linear update pairs
  (delete/delete, delete/insert, insert/insert) are decided by the exact
  Section 6 commutation rules: a ``CONFLICT`` witness must pass
  :func:`is_commutativity_witness`, and no tree of up to
  ``UPDATE_SEARCH_CAP`` nodes may refute a ``NO_CONFLICT``.
* **NFA subset simulation** — :class:`tests.oracles.NFAOracleCompiler`
  reruns the same detectors on the eager NFA product; the reports must be
  byte-identical (verdict, canonical witness, method), every matching
  word must equal the product's shortest word exactly, and the
  automaton-free :func:`match_dp` must agree on every edge.  A cold
  compiler must also answer exactly like the warm shared one, so the
  compile cache stays semantically invisible.

Seeds are deterministic.  CI shifts the whole suite into disjoint regions
of the input space via the ``REPRO_DIFF_SEED_BASE`` environment variable
(see the ``differential`` job in ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.automata.bitkernel import (
    BitsetAutomaton,
    MaskTable,
    joint_shortest_word_bits,
)
from repro.automata.matching import (
    linear_pattern_nfa,
    match_dp,
    matching_alphabet,
)
from repro.compile.compiler import PatternCompiler
from repro.conflicts.complex import (
    detect_update_update,
    find_commutativity_witness_exhaustive,
    is_commutativity_witness,
)
from repro.conflicts.general import (
    decide_conflict,
    find_witness_exhaustive,
    witness_size_bound,
)
from repro.conflicts.linear import (
    detect_read_delete_linear,
    detect_read_insert_linear,
)
from repro.conflicts.semantics import ConflictKind, Verdict, is_witness
from repro.operations.ops import Delete, Insert, Read
from repro.workloads.generators import (
    random_branching_pattern,
    random_delete,
    random_insert,
    random_linear_pattern,
    random_read,
)
from repro.xml.isomorphism import canonical_form
from repro.xml.random_trees import random_tree
from tests.oracles import (
    NFAOracleCompiler,
    nfa_product_word,
    per_edge_read_delete,
    per_edge_read_insert,
)

SEED_BASE = int(os.environ.get("REPRO_DIFF_SEED_BASE", "0"))
CASES = 200
ALPHABET = ("a", "b")
SEARCH_CAP = 4
KINDS = (ConflictKind.NODE, ConflictKind.TREE, ConflictKind.VALUE)
UPDATE_CASES = 60
UPDATE_SEARCH_CAP = 5
BRANCHING_CASES = 150
BRANCHING_SEARCH_CAP = 5

# One warm production compiler for the whole module: repeated patterns
# across the seed range exercise real cache hits, which is exactly the
# path under test.  The NFA oracle compiler must match it byte for byte.
COMPILED = PatternCompiler()
ORACLE = NFAOracleCompiler()


def _case_rng(offset: int, seed: int) -> random.Random:
    return random.Random(1_000_003 * SEED_BASE + offset + seed)


def _read_delete_case(seed: int):
    rng = _case_rng(0, seed)
    read = random_read(
        rng.randint(1, 3), ALPHABET, linear=True, seed=rng, p_wildcard=0.25
    )
    delete = random_delete(
        rng.randint(2, 3), ALPHABET, linear=True, seed=rng, p_wildcard=0.2
    )
    return read, delete


def _read_insert_case(seed: int):
    rng = _case_rng(10_000, seed)
    read = random_read(
        rng.randint(1, 3), ALPHABET, linear=True, seed=rng, p_wildcard=0.25
    )
    insert = random_insert(
        rng.randint(1, 2),
        subtree_size=rng.randint(1, 2),
        alphabet=ALPHABET,
        linear=True,
        seed=rng,
        p_wildcard=0.2,
    )
    return read, insert


def _update_pair_case(seed: int):
    """A random linear update pair, its kinds picked by ``seed % 3``.

    Patterns over 2–3 labels with ``*`` steps and ``//`` edges; half of
    the inserted trees carry a text child.
    """
    rng = _case_rng(20_000, seed)
    labels = ALPHABET + ("c",) if rng.random() < 0.3 else ALPHABET
    kinds = (("delete", "delete"), ("delete", "insert"), ("insert", "insert"))
    ops = []
    for kind in kinds[seed % 3]:
        if kind == "delete":
            pattern = random_linear_pattern(
                rng.randint(2, 3), labels, p_wildcard=0.25, seed=rng
            )
            ops.append(Delete(pattern))
            continue
        pattern = random_linear_pattern(
            rng.randint(1, 3), labels, p_wildcard=0.25, seed=rng
        )
        subtree = random_tree(rng.randint(1, 2), labels, seed=rng)
        if rng.random() < 0.5:
            subtree.add_child(subtree.root, "#text:x")
        ops.append(Insert(pattern, subtree))
    return ops


def _branching_read_case(seed: int):
    """A branching read of 3–4 nodes against a random update.

    Reads over ``a``, ``b`` and ``*`` with both axes, their output at the
    root, an inner node or a leaf; the update is a linear or branching
    delete or insert, half each.
    """
    rng = _case_rng(30_000, seed)
    output = rng.choice(("root", "any", "leaf"))
    while True:
        pattern = random_branching_pattern(
            rng.randint(3, 4), ALPHABET, p_wildcard=0.25, seed=rng,
            output=output,
        )
        if not pattern.is_linear:
            break
    linear = rng.random() < 0.5
    if rng.random() < 0.5:
        update = random_delete(
            rng.randint(2, 3), ALPHABET, linear=linear, seed=rng,
            p_wildcard=0.2,
        )
    else:
        update = random_insert(
            rng.randint(1, 3),
            subtree_size=rng.randint(1, 2),
            alphabet=ALPHABET,
            linear=linear,
            seed=rng,
            p_wildcard=0.2,
        )
    return Read(pattern), update


def _check_against_oracle(report, read, update, kind, seed):
    if report.verdict is Verdict.CONFLICT:
        assert is_witness(report.witness, read, update, kind), (
            f"seed {seed} ({kind.value}): reported witness fails the "
            f"Lemma 1 check"
        )
    else:
        cap = min(SEARCH_CAP, witness_size_bound(read, update))
        witness = find_witness_exhaustive(read, update, kind, max_size=cap)
        assert witness is None, (
            f"seed {seed} ({kind.value}): compiled path says no conflict "
            f"but brute force found a witness:\n{witness.sketch()}"
        )


def _report_fingerprint(report):
    """Everything two deciders must agree on, byte for byte."""
    witness = (
        canonical_form(report.witness) if report.witness is not None else None
    )
    return (report.verdict, witness, report.method, report.reason)


#: Per update semantics: (case generator, linear detector, per-edge oracle).
DELETE = (_read_delete_case, detect_read_delete_linear, per_edge_read_delete)
INSERT = (_read_insert_case, detect_read_insert_linear, per_edge_read_insert)


def _bruteforce(side, seed):
    case, detect, _ = side
    read, update = case(seed)
    for kind in KINDS:
        report = detect(read, update, kind, compiler=COMPILED)
        _check_against_oracle(report, read, update, kind, seed)


def _warm_cold_and_per_edge(side, seed):
    """Warm shared cache vs a cold compiler; profile scan vs per edge."""
    case, detect, per_edge = side
    read, update = case(seed)
    cold = PatternCompiler()
    for kind in KINDS:
        warm = detect(read, update, kind, compiler=COMPILED)
        fresh = detect(read, update, kind, compiler=cold)
        assert _report_fingerprint(warm) == _report_fingerprint(fresh), (
            f"seed {seed} ({kind.value}): warm and cold compilers differ"
        )
    node = detect(read, update, compiler=COMPILED)
    assert per_edge(read, update) is (node.verdict is Verdict.CONFLICT), (
        f"seed {seed}: one-pass profile disagrees with the per-edge scan"
    )


def _three_way(side, seed):
    case, detect, per_edge = side
    read, update = case(seed)
    for kind in KINDS:
        kernel = detect(read, update, kind, compiler=COMPILED)
        oracle = detect(read, update, kind, compiler=ORACLE)
        assert _report_fingerprint(kernel) == _report_fingerprint(oracle), (
            f"seed {seed} ({kind.value}): kernel and NFA oracle disagree"
        )
    node = detect(read, update, compiler=COMPILED)
    assert per_edge(read, update, matches=match_dp) is (
        node.verdict is Verdict.CONFLICT
    ), f"seed {seed}: match_dp per-edge scan disagrees"


class TestReadDeleteDifferential:
    @pytest.mark.parametrize("seed", range(CASES))
    def test_compiled_path_vs_bruteforce_oracle(self, seed):
        _bruteforce(DELETE, seed)

    @pytest.mark.parametrize("seed", range(CASES))
    def test_compiled_uncached_and_dp_paths_agree(self, seed):
        _warm_cold_and_per_edge(DELETE, seed)


class TestReadInsertDifferential:
    @pytest.mark.parametrize("seed", range(CASES))
    def test_compiled_path_vs_bruteforce_oracle(self, seed):
        _bruteforce(INSERT, seed)

    @pytest.mark.parametrize("seed", range(CASES))
    def test_compiled_uncached_and_dp_paths_agree(self, seed):
        _warm_cold_and_per_edge(INSERT, seed)


class TestUpdateUpdateDifferential:
    """The exact commutation rules for linear updates vs brute force."""

    @pytest.mark.parametrize("seed", range(UPDATE_CASES))
    def test_commutation_rules_vs_bruteforce_oracle(self, seed):
        op1, op2 = _update_pair_case(seed)
        report = detect_update_update(
            op1, op2, exhaustive_cap=None, compiler=COMPILED
        )
        if report.verdict is Verdict.CONFLICT:
            assert is_commutativity_witness(report.witness, op1, op2), (
                f"seed {seed}: {op1} x {op2}: the reported witness does "
                f"not separate the two orders"
            )
        elif report.verdict is Verdict.NO_CONFLICT:
            assert report.method.startswith("commute-")
            witness = find_commutativity_witness_exhaustive(
                op1, op2, max_size=UPDATE_SEARCH_CAP
            )
            assert witness is None, (
                f"seed {seed}: {op1} x {op2} reported commuting, but brute "
                f"force found a witness:\n{witness.sketch()}"
            )


class TestBranchingReadChainDifferential:
    """The chain rule for branching reads vs brute force (node semantics).

    Decided with the search switched off, so every definitive verdict
    comes from the trunk prefilter or the chain rule.
    """

    @pytest.mark.parametrize("seed", range(BRANCHING_CASES))
    def test_chain_rule_vs_bruteforce_oracle(self, seed):
        read, update = _branching_read_case(seed)
        report = decide_conflict(
            read, update, exhaustive_cap=None, use_heuristics=False,
            compiler=COMPILED,
        )
        if report.verdict is Verdict.CONFLICT:
            assert report.method == "read-chains"
            assert is_witness(report.witness, read, update), (
                f"seed {seed}: {read} x {update}: the chain-rule witness "
                f"fails the Lemma 1 check"
            )
        elif report.verdict is Verdict.NO_CONFLICT:
            assert report.method in ("trunk-prefilter", "read-chains")
            cap = min(BRANCHING_SEARCH_CAP, witness_size_bound(read, update))
            witness = find_witness_exhaustive(read, update, max_size=cap)
            assert witness is None, (
                f"seed {seed}: {read} x {update}: {report.method} says no "
                f"conflict, but brute force found a witness:\n"
                f"{witness.sketch()}"
            )


class TestKernelDifferential:
    """3-way agreement: bitset kernel vs NFA product vs automaton-free DP.

    The NFA oracle compiler rebuilds every report from eager-product
    words and per-prefix profiles, so the kernel's reports must match it
    in verdict, canonical witness tree, method tag and (absent)
    degradation reason; the node verdict must also match a per-edge scan
    decided by :func:`match_dp`, which builds no automaton at all.
    """

    @pytest.mark.parametrize("seed", range(CASES))
    def test_read_delete_three_way(self, seed):
        _three_way(DELETE, seed)

    @pytest.mark.parametrize("seed", range(CASES))
    def test_read_insert_three_way(self, seed):
        _three_way(INSERT, seed)

    @pytest.mark.parametrize("seed", range(100))
    def test_matching_word_identical_across_kernels(self, seed):
        rng = _case_rng(900_000, seed)
        left = random_linear_pattern(
            rng.randint(1, 5), ALPHABET, p_wildcard=0.3, seed=rng
        )
        right = random_linear_pattern(
            rng.randint(1, 5), ALPHABET, p_wildcard=0.3, seed=rng
        )
        for weak in (False, True):
            expected = nfa_product_word(left, right, weak)
            for name, comp in (
                ("warm", COMPILED), ("cold", PatternCompiler()), ("oracle", ORACLE)
            ):
                assert comp.matching_word(left, right, weak=weak) == expected, (
                    f"seed {seed} (weak={weak}): {name} word differs from "
                    f"the NFA product's {expected!r}"
                )


class TestMatchingEquivalence:
    """Production automata vs NFA subset simulation, per random pattern."""

    @pytest.mark.parametrize("seed", range(100))
    def test_lazy_dfa_accepts_same_language_as_nfa(self, seed):
        """The compiler's lazily determinized bitset automata, both sides."""
        rng = _case_rng(600_000, seed)
        pattern = random_linear_pattern(
            rng.randint(1, 5), ALPHABET, p_wildcard=0.3, seed=rng
        )
        other = random_linear_pattern(
            rng.randint(1, 5), ALPHABET, p_wildcard=0.3, seed=rng
        )
        alphabet = matching_alphabet(pattern, other)
        strong = linear_pattern_nfa(pattern, alphabet)
        for weak, nfa in ((False, strong), (True, strong.with_any_suffix())):
            automaton = COMPILED.bitset_automaton(pattern, weak)
            for _ in range(40):
                word = [
                    rng.choice(alphabet) for _ in range(rng.randint(0, 7))
                ]
                assert nfa.accepts(word) == automaton.accepts(word), (
                    f"seed {seed} (weak={weak}): NFA and bitset automaton "
                    f"disagree on {word!r}"
                )

    @pytest.mark.parametrize("seed", range(100))
    def test_joint_shortest_word_agrees_with_nfa_product(self, seed):
        rng = _case_rng(700_000, seed)
        left = random_linear_pattern(
            rng.randint(1, 4), ALPHABET, p_wildcard=0.3, seed=rng
        )
        right = random_linear_pattern(
            rng.randint(1, 4), ALPHABET, p_wildcard=0.3, seed=rng
        )
        weak = rng.random() < 0.5
        right_table = MaskTable.from_pattern(right)
        got = joint_shortest_word_bits(
            BitsetAutomaton(MaskTable.from_pattern(left)),
            BitsetAutomaton(right_table.with_any_suffix() if weak else right_table),
            matching_alphabet(left, right),
        )
        reference = nfa_product_word(left, right, weak)
        assert got == reference, (
            f"seed {seed} (weak={weak}): kernel word {got!r}, NFA product "
            f"word {reference!r}"
        )

    @pytest.mark.parametrize("seed", range(100))
    def test_compiled_matching_agrees_with_dp(self, seed):
        rng = _case_rng(800_000, seed)
        left = random_linear_pattern(
            rng.randint(1, 4), ALPHABET, p_wildcard=0.3, seed=rng
        )
        right = random_linear_pattern(
            rng.randint(1, 4), ALPHABET, p_wildcard=0.3, seed=rng
        )
        for weak in (False, True):
            word = COMPILED.matching_word(left, right, weak=weak)
            assert (word is not None) == match_dp(left, right, weak=weak), (
                f"seed {seed}: compiled matching_word disagrees with DP "
                f"(weak={weak})"
            )
