"""End-to-end integration: static verdicts vs actual execution.

The ultimate semantic check of the whole stack: whenever the detector
*proves* two operations compatible, executing them in either order on real
documents must be indistinguishable — for read/update pairs the read
result is identical, for update/update pairs the resulting documents are
isomorphic.  Any violation anywhere in the stack (pattern evaluation,
operation semantics, matching, detection) would surface here.

Also fuzzes the XML parser: arbitrary text must either parse or raise
``XMLParseError`` — never crash differently — and parse/serialize must be
a round trip on whatever parses.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.conflicts.detector import ConflictDetector
from repro.conflicts.semantics import Verdict
from repro.errors import XMLParseError
from repro.operations.ops import Insert, Read
from repro.workloads.generators import (
    random_delete,
    random_insert,
    random_linear_pattern,
    random_read,
)
from repro.xml.isomorphism import isomorphic
from repro.xml.parser import parse
from repro.xml.random_trees import auction_site, bookstore, random_tree
from repro.xml.serializer import serialize

DETECTOR = ConflictDetector(exhaustive_cap=4)

DOCUMENTS = [
    random_tree(12, ("a", "b", "c"), seed=1),
    random_tree(25, ("a", "b", "c", "d"), seed=2),
    bookstore(8, seed=3),
    auction_site(items=4, people=2, seed=4),
]


class TestNoConflictMeansNoEffect:
    """NO_CONFLICT is a universal statement; execution must honor it."""

    @pytest.mark.parametrize("seed", range(40))
    def test_read_update_pairs(self, seed):
        rng = random.Random(seed)
        read = random_read(rng.randint(1, 4), ("a", "b", "c"), seed=rng)
        if rng.random() < 0.5:
            update = random_insert(
                rng.randint(1, 3), alphabet=("a", "b", "c"), seed=rng, linear=True
            )
        else:
            update = random_delete(
                rng.randint(2, 3), ("a", "b", "c"), seed=rng, linear=True
            )
        report = DETECTOR.read_update(read, update)
        if report.verdict is not Verdict.NO_CONFLICT:
            return
        for doc in DOCUMENTS:
            before = read.apply(doc)
            after = read.apply(update.apply(doc).tree)
            assert before == after, (
                f"seed {seed}: detector said NO_CONFLICT but execution "
                f"differs on a {doc.size}-node document"
            )

    @pytest.mark.parametrize("seed", range(25))
    def test_update_update_pairs(self, seed):
        rng = random.Random(seed + 900)
        first = random_insert(
            rng.randint(1, 2), alphabet=("a", "b"), seed=rng, linear=True
        )
        second = random_delete(rng.randint(2, 3), ("a", "b"), seed=rng, linear=True)
        report = DETECTOR.update_update(first, second)
        if report.verdict is not Verdict.NO_CONFLICT:
            return
        for doc in DOCUMENTS:
            order_a = second.apply(first.apply(doc).tree).tree
            order_b = first.apply(second.apply(doc).tree).tree
            assert isomorphic(order_a, order_b), f"seed {seed}"


class TestConflictsHaveRealWitnesses:
    """CONFLICT verdicts must come with executable evidence."""

    @pytest.mark.parametrize("seed", range(40))
    def test_witness_executes(self, seed):
        rng = random.Random(seed + 5_000)
        read = random_read(rng.randint(2, 4), ("a", "b"), seed=rng)
        update = random_insert(
            rng.randint(1, 2), alphabet=("a", "b"), seed=rng, linear=True
        )
        report = DETECTOR.read_update(read, update)
        if report.verdict is not Verdict.CONFLICT or report.witness is None:
            return
        before = read.apply(report.witness)
        after = read.apply(update.apply(report.witness).tree)
        assert before != after, f"seed {seed}: witness does not demonstrate"


class TestProgramPipeline:
    """Parse -> analyze -> optimize -> hoist -> interpret, end to end."""

    @pytest.mark.parametrize("seed", range(8))
    def test_full_pipeline(self, seed):
        from repro.lang.analysis import hoist_reads, optimize
        from repro.lang.interp import run_program
        from repro.lang.parser import parse_program
        from repro.workloads.generators import random_program

        program = random_program(7, variables=2, seed=seed)
        reparsed = parse_program(str(program))
        assert len(reparsed) == len(program)
        baseline = run_program(program)
        optimized = optimize(program)
        hoisted = hoist_reads(optimized.program)
        final = run_program(hoisted.program)
        for name in final.reads:
            assert baseline.reads[name] == final.reads[name], (
                f"seed {seed}: pipeline changed read {name}"
            )
        for name in baseline.trees:
            assert baseline.trees[name].equivalent(final.trees[name])


class TestParserFuzz:
    @given(st.text(max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_parser_never_crashes_unexpectedly(self, text):
        try:
            tree = parse(text)
        except XMLParseError:
            return
        tree.validate()
        assert isomorphic(tree, parse(serialize(tree)))

    @given(
        st.recursive(
            st.sampled_from(["<a/>", "<b/>", "<c>x</c>"]),
            lambda inner: st.lists(inner, min_size=1, max_size=3).map(
                lambda parts: f"<r>{''.join(parts)}</r>"
            ),
            max_leaves=8,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_generated_xml_round_trips(self, text):
        tree = parse(text)
        assert isomorphic(tree, parse(serialize(tree)))


class TestScheduleExecution:
    def test_batch_execution_order_invariance(self):
        """Execute the batch's updates in every order; results match.

        The order-invariance check is ground truth on its own; the engine
        (whose capped search may leave update pairs ``UNKNOWN``) must at
        least never call any pair of this batch a conflict.
        """
        import itertools

        from repro.conflicts.batch import BatchAnalyzer

        operations = {
            "mark": Insert("bib/book", "<restock/>"),
            "note": Insert("bib/book/title", "<checked/>"),
            "audit": Read("//quantity"),
        }
        matrix = BatchAnalyzer(detector=DETECTOR).analyze(operations)
        for a, b in itertools.combinations(operations, 2):
            assert matrix.verdict(a, b) is not Verdict.CONFLICT, (a, b)
        doc = bookstore(6, seed=11)
        outcomes = []
        for order in itertools.permutations(["mark", "note"]):
            tree = doc.copy()
            for name in order:
                operations[name].apply_in_place(tree)  # type: ignore[union-attr]
            outcomes.append(tree)
        assert isomorphic(outcomes[0], outcomes[1])
