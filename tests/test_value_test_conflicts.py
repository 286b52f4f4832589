"""Exact value-test handling in linear conflict detection.

Value tests (``quantity < 10``) are *existential* over text children, so
when detecting conflicts — an existential question over documents — they
never constrain the witness we construct; they only constrain embeddings
into the **fixed** inserted tree ``X``.  These tests pin down both sides:

* test-incompatible ``X`` content must turn a would-be conflict into
  NO_CONFLICT (the old stripped analysis would have reported a spurious
  conflict here);
* tests on witness-side nodes must not block detection (the witness is
  decorated with satisfying text children, and re-verified against the
  original, test-carrying operations).
"""

from __future__ import annotations

import pytest

from repro.conflicts.detector import ConflictDetector
from repro.conflicts.semantics import ConflictKind, Verdict, is_witness
from repro.operations.ops import Delete, Insert, Read
from repro.patterns.embedding import evaluate, evaluate_sets
from repro.patterns.pattern import Axis, TreePattern, ValueTest
from repro.patterns.xpath import parse_xpath
from repro.xml.parser import parse


def _read_with_test(op: str, value: float) -> Read:
    """The linear read ``* // q[test]`` with the test on the spine leaf."""
    pattern = TreePattern("*")
    q = pattern.add_child(pattern.root, "q", Axis.DESCENDANT)
    pattern.set_value_test(q, ValueTest(op, value))
    pattern.set_output(q)
    return Read(pattern)


class TestInsertXRespectsTests:
    def test_satisfying_x_conflicts(self):
        read = _read_with_test("<", 10)
        insert = Insert("*/b", "<q>5</q>")
        report = ConflictDetector().read_insert(read, insert)
        assert report.verdict is Verdict.CONFLICT
        assert is_witness(report.witness, read, insert, ConflictKind.NODE)

    def test_violating_x_does_not_conflict(self):
        """The stripped analysis would flag this; the exact one must not."""
        read = _read_with_test("<", 10)
        insert = Insert("*/b", "<q>50</q>")
        report = ConflictDetector().read_insert(read, insert)
        assert report.verdict is Verdict.NO_CONFLICT
        assert not report.notes  # no over-approximation note: it's exact

    def test_textless_x_does_not_conflict(self):
        read = _read_with_test("<", 10)
        insert = Insert("*/b", "<q/>")
        report = ConflictDetector().read_insert(read, insert)
        assert report.verdict is Verdict.NO_CONFLICT

    @pytest.mark.parametrize(
        "op,bound,text,expected",
        [
            ("<", 10, 5, Verdict.CONFLICT),
            ("<", 10, 10, Verdict.NO_CONFLICT),
            ("<=", 10, 10, Verdict.CONFLICT),
            (">", 3, 4, Verdict.CONFLICT),
            (">", 3, 3, Verdict.NO_CONFLICT),
            ("=", 7, 7, Verdict.CONFLICT),
            ("!=", 7, 7, Verdict.NO_CONFLICT),
        ],
    )
    def test_operator_matrix(self, op, bound, text, expected):
        read = _read_with_test(op, bound)
        insert = Insert("*/b", f"<q>{text}</q>")
        assert ConflictDetector().read_insert(read, insert).verdict is expected

    def test_deep_x_with_mixed_values(self):
        # X holds two q's; only the deep one satisfies.
        read = _read_with_test("<", 10)
        insert = Insert("*/b", "<w><q>99</q><inner><q>2</q></inner></w>")
        report = ConflictDetector().read_insert(read, insert)
        assert report.verdict is Verdict.CONFLICT


class TestWitnessSideTests:
    def test_update_pattern_tests_do_not_block(self):
        """Tests on the (branching) insert pattern are witness-side: the
        detector decorates the witness so the insert still fires."""
        read = Read("*//c")
        pattern = TreePattern("*")
        b = pattern.add_child(pattern.root, "b", Axis.CHILD)
        pattern.set_value_test(b, ValueTest("<", 10))
        pattern.set_output(b)
        insert = Insert(pattern, "<c/>")
        report = ConflictDetector().read_insert(read, insert)
        assert report.verdict is Verdict.CONFLICT
        assert is_witness(report.witness, read, insert, ConflictKind.NODE)

    def test_delete_pattern_tests_do_not_block(self):
        read = Read("*//c")
        pattern = TreePattern("*")
        b = pattern.add_child(pattern.root, "b", Axis.CHILD)
        pattern.set_value_test(b, ValueTest(">", 100))
        pattern.set_output(b)
        delete = Delete(pattern)
        report = ConflictDetector().read_delete(read, delete)
        assert report.verdict is Verdict.CONFLICT
        assert is_witness(report.witness, read, delete, ConflictKind.NODE)

    def test_read_spine_tests_do_not_block_delete(self):
        read = _read_with_test("<", 10)
        delete = Delete("*/b")
        report = ConflictDetector().read_delete(read, delete)
        assert report.verdict is Verdict.CONFLICT
        assert is_witness(report.witness, read, delete, ConflictKind.NODE)

    def test_contradictory_tests_coexist_on_one_witness(self):
        """Two tests with disjoint intervals still co-satisfiable: a node
        may carry one text child per test."""
        read = _read_with_test("<", 10)
        pattern = TreePattern("*")
        q = pattern.add_child(pattern.root, "q", Axis.DESCENDANT)
        pattern.set_value_test(q, ValueTest(">", 100))
        pattern.set_output(q)
        delete = Delete(pattern)
        report = ConflictDetector().read_delete(read, delete)
        assert report.verdict is Verdict.CONFLICT
        assert is_witness(report.witness, read, delete, ConflictKind.NODE)


class TestRandomizedCrossValidation:
    """Ground truth by bounded search over *decorated* candidates.

    A with-tests conflict needs its tests satisfied at matched nodes, so a
    bounded witness search stays complete if every candidate tree is
    decorated with one satisfying text child per distinct test (inserted
    ``X`` copies keep their own fixed content).  Verdicts of the exact
    linear algorithms must agree with this search on small instances.
    """

    @staticmethod
    def _decorated_candidates(read, update, max_size):
        from repro.conflicts.general import witness_alphabet
        from repro.conflicts.linear import _satisfying_value
        from repro.xml.enumerate import enumerate_trees

        tests = {
            p.value_test(n)
            for p in (read.pattern, update.pattern)
            for n in p.nodes()
            if p.value_test(n) is not None
        }
        values = [_satisfying_value(t) for t in tests]
        for candidate in enumerate_trees(max_size, witness_alphabet(read, update)):
            decorated = candidate.copy()
            for node in list(decorated.nodes()):
                for value in values:
                    decorated.add_child(node, f"#text:{value}")
            yield decorated

    @pytest.mark.parametrize("seed", range(30))
    def test_read_insert_with_tests(self, seed):
        import random

        from repro.workloads.generators import random_linear_pattern
        from repro.xml.random_trees import random_tree

        rng = random.Random(seed)
        pattern = random_linear_pattern(rng.randint(1, 3), ("a", "q"), seed=rng)
        # Attach a random test to a random spine node.
        spine = pattern.spine()
        target = spine[rng.randrange(len(spine))]
        op = rng.choice(["<", ">", "=", "!="])
        pattern.set_value_test(target, ValueTest(op, rng.randint(0, 5)))
        read = Read(pattern)
        x = random_tree(rng.randint(1, 2), ("a", "q"), seed=rng)
        if rng.random() < 0.6:
            x.add_child(x.root, f"#text:{rng.randint(0, 5)}")
        insert = Insert(
            random_linear_pattern(rng.randint(1, 2), ("a", "q"), seed=rng), x
        )
        report = ConflictDetector().read_insert(read, insert)
        found = any(
            is_witness(candidate, read, insert, ConflictKind.NODE)
            for candidate in self._decorated_candidates(read, insert, 4)
        )
        if report.verdict is Verdict.CONFLICT:
            assert is_witness(report.witness, read, insert, ConflictKind.NODE), (
                f"seed {seed}"
            )
        else:
            assert not found, f"seed {seed}: missed a with-tests conflict"

    @pytest.mark.parametrize("seed", range(20))
    def test_read_delete_with_tests(self, seed):
        import random

        from repro.workloads.generators import random_linear_pattern

        rng = random.Random(seed + 70_000)
        pattern = random_linear_pattern(rng.randint(1, 3), ("a", "q"), seed=rng)
        spine = pattern.spine()
        target = spine[rng.randrange(len(spine))]
        pattern.set_value_test(target, ValueTest(rng.choice(["<", ">"]), rng.randint(0, 5)))
        read = Read(pattern)
        delete = Delete(
            random_linear_pattern(rng.randint(2, 3), ("a", "q"), seed=rng)
        )
        report = ConflictDetector().read_delete(read, delete)
        found = any(
            is_witness(candidate, read, delete, ConflictKind.NODE)
            for candidate in self._decorated_candidates(read, delete, 4)
        )
        if report.verdict is Verdict.CONFLICT:
            assert is_witness(report.witness, read, delete, ConflictKind.NODE), (
                f"seed {seed}"
            )
        else:
            assert not found, f"seed {seed}: missed a with-tests conflict"


class TestBranchingReadsStayConservative:
    def test_branching_read_still_strips_with_note(self):
        report = ConflictDetector().read_insert(
            Read("bib/book[.//quantity < 10]"),
            Insert("bib/book", "<restock/>"),
        )
        assert any("stripped" in note for note in report.notes)

    def test_paper_restock_scenario_now_exact(self):
        """The motivating example, linear-read version: the restock insert
        cannot affect the low-stock read because <restock/> carries no
        quantity at all — the exact analysis proves it."""
        read = _read_with_test("<", 10)  # *//q[<10] ~ stock levels
        insert = Insert("*//book", "<restock/>")
        report = ConflictDetector().read_insert(read, insert)
        assert report.verdict is Verdict.NO_CONFLICT
        assert not report.notes


class TestWildcardSkipsText:
    """``*`` matches elements only, so no update can delete the text a
    value test reads (both pairs once answered ``NO_CONFLICT`` although
    the tree below passed Lemma 1)."""

    def test_wildcard_selects_no_text_in_either_evaluator(self):
        tree = parse("<a>7<b/></a>")
        (b,) = tree.children(tree.root)[1:]
        for xpath in ("a/*", "a//*"):
            pattern = parse_xpath(xpath)
            assert evaluate(pattern, tree) == {b}
            assert evaluate_sets(pattern, tree) == {b}

    def test_branching_read_with_test_vs_wildcard_delete(self):
        read, delete = Read("a[b > 5]/c"), Delete("a/b/*")
        report = ConflictDetector().read_delete(read, delete)
        assert report.verdict is Verdict.NO_CONFLICT
        assert not is_witness(parse("<a><b>7</b><c/></a>"), read, delete)

    def test_linear_read_with_test_vs_wildcard_delete(self):
        pattern = TreePattern("a")
        b = pattern.add_child(pattern.root, "b", Axis.CHILD)
        pattern.set_value_test(b, ValueTest(">", 5))
        pattern.set_output(b)
        read, delete = Read(pattern), Delete("a/b/*")
        report = ConflictDetector().read_delete(read, delete)
        assert report.verdict is Verdict.NO_CONFLICT
        assert report.method == "linear-ptime"
        assert not is_witness(parse("<a><b>7</b></a>"), read, delete)
