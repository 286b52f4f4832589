"""Unit tests for embedding evaluation (:mod:`repro.patterns.embedding`).

Includes a brute-force cross-validation: both evaluator paths — the
bitset-automaton walk for linear patterns without value tests and the
two-phase set-based evaluator for everything else — must agree with each
other and with exhaustive embedding enumeration on randomized instances.
Seeds honor ``REPRO_DIFF_SEED_BASE`` like ``tests/test_differential.py``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.automata.bitkernel import BitsetAutomaton
from repro.compile.compiler import global_compiler
from repro.patterns import embedding
from repro.patterns.embedding import (
    embeds,
    embeds_at,
    enumerate_embeddings,
    evaluate,
    evaluate_bruteforce,
    evaluate_sets,
    evaluate_subtrees,
    find_embedding,
    match_sets,
)
from repro.patterns.pattern import WILDCARD, Axis, TreePattern, ValueTest
from repro.patterns.xpath import parse_xpath, to_xpath
from repro.workloads.generators import random_branching_pattern
from repro.xml.random_trees import random_tree
from repro.xml.tree import XMLTree, build_tree

SEED_BASE = int(os.environ.get("REPRO_DIFF_SEED_BASE", "0"))

#: Tree labels; the pattern alphabet adds ``d`` (never in a tree) and a
#: text label that matches some of the text children.
TREE_LABELS = ("a", "b", "c")
PATTERN_LABELS = (*TREE_LABELS, "d", "#text:1")
LINEAR_CASES = 240


def _linear_case(seed: int) -> tuple[TreePattern, XMLTree]:
    """One seeded (linear pattern, tree) pair for the kernel walk.

    Every fourth tree is a single node; the rest have up to 12 nodes
    (small enough for brute force) or up to 60.  Text children hang under
    random nodes, and patterns mix wildcards, child steps and ``//`` steps.
    """
    rng = random.Random(1_000_003 * SEED_BASE + 40_000 + seed)
    if seed % 4 == 0:
        size = 1
    else:
        size = rng.randint(2, 12 if seed % 4 == 1 else 60)
    tree = random_tree(size, TREE_LABELS, seed=rng)
    for node in rng.sample(list(tree.nodes()), rng.randint(0, min(3, size))):
        tree.add_child(node, f"#text:{rng.randint(0, 2)}")

    def pick() -> str:
        return WILDCARD if rng.random() < 0.3 else rng.choice(PATTERN_LABELS)

    pattern = TreePattern(pick())
    node = pattern.root
    for _ in range(rng.randint(0, 5)):
        axis = Axis.DESCENDANT if rng.random() < 0.5 else Axis.CHILD
        node = pattern.add_child(node, pick(), axis)
    pattern.set_output(node)
    return pattern, tree


class TestEvaluateBasics:
    def test_root_only_pattern(self):
        t = build_tree(("a", "b"))
        assert evaluate(parse_xpath("a"), t) == {t.root}
        assert evaluate(parse_xpath("b"), t) == set()

    def test_wildcard_root(self):
        t = build_tree(("anything", "b"))
        assert evaluate(parse_xpath("*"), t) == {t.root}

    def test_child_axis(self):
        t = build_tree(("a", "b", ("c", "b")))
        result = evaluate(parse_xpath("a/b"), t)
        assert result == {t.children(t.root)[0]}

    def test_descendant_axis_is_proper(self):
        t = build_tree(("a", ("a", "x")))
        inner = t.children(t.root)[0]
        # a//a: only the inner 'a' is a proper descendant.
        assert evaluate(parse_xpath("a//a"), t) == {inner}

    def test_descendant_finds_deep_nodes(self):
        t = build_tree(("a", ("x", ("y", ("z", "b")))))
        result = evaluate(parse_xpath("a//b"), t)
        assert len(result) == 1

    def test_predicate_filters(self):
        t = build_tree(("a", ("b", "c"), "b"))
        with_c, without_c = t.children(t.root)
        assert evaluate(parse_xpath("a/b[c]"), t) == {with_c}

    def test_descendant_predicate(self):
        t = build_tree(("a", ("b", ("x", "c")), "b"))
        target = t.children(t.root)[0]
        assert evaluate(parse_xpath("a/b[.//c]"), t) == {target}

    def test_multiple_results(self):
        t = build_tree(("a", "b", "b", ("c", "b")))
        assert len(evaluate(parse_xpath("a//b"), t)) == 3

    def test_figure2(self, figure2_tree):
        p = parse_xpath("a[.//c]/b[d][*//f]")
        result = evaluate(p, figure2_tree)
        assert len(result) == 1
        (selected,) = result
        assert figure2_tree.label(selected) == "b"

    def test_internal_output_node(self):
        # Select 'b' nodes that have a 'c' below: output mid-pattern.
        p = parse_xpath("a/b/c")
        p.set_output(p.spine()[1])
        t = build_tree(("a", ("b", "c"), "b"))
        assert evaluate(p, t) == {t.children(t.root)[0]}

    def test_value_test_filters(self):
        t = build_tree(("a", ("q", "#text:5"), ("q", "#text:50")))
        p = parse_xpath("a[q < 10]")
        assert evaluate(p, t) == {t.root}
        p_high = parse_xpath("a[q > 100]")
        assert evaluate(p_high, t) == set()

    def test_value_test_on_non_numeric_text_fails(self):
        t = build_tree(("a", ("q", "#text:hello")))
        assert evaluate(parse_xpath("a[q < 10]"), t) == set()


class TestMatchSets:
    def test_match_ignores_ancestors(self):
        t = build_tree(("r", ("a", "b")))
        p = parse_xpath("a/b")
        sets = match_sets(p, t)
        a_node = t.children(t.root)[0]
        assert a_node in sets[p.root]

    def test_match_respects_subtree_constraints(self):
        t = build_tree(("r", ("a", "b"), "a"))
        p = parse_xpath("a/b")
        sets = match_sets(p, t)
        with_b, without_b = t.children(t.root)
        assert with_b in sets[p.root]
        assert without_b not in sets[p.root]


class TestEmbedsAt:
    def test_root_anchored(self):
        t = build_tree(("a", "b"))
        assert embeds(parse_xpath("a/b"), t)
        assert not embeds(parse_xpath("b"), t)

    def test_anchored_at_inner_node(self):
        t = build_tree(("r", ("a", "b")))
        a = t.children(t.root)[0]
        assert embeds_at(parse_xpath("a/b"), t, root_at=a)
        assert not embeds_at(parse_xpath("a/b"), t, root_at=t.root)

    def test_anywhere(self):
        t = build_tree(("r", ("x", ("a", "b"))))
        assert embeds_at(parse_xpath("a/b"), t, anywhere=True)
        assert not embeds_at(parse_xpath("a/z"), t, anywhere=True)


class TestFindEmbedding:
    def test_embedding_is_valid(self, figure2_tree):
        p = parse_xpath("a[.//c]/b[d][*//f]")
        emb = find_embedding(p, figure2_tree)
        assert emb is not None
        _assert_valid_embedding(p, figure2_tree, emb)

    def test_output_pinning(self):
        t = build_tree(("a", "b", "b"))
        p = parse_xpath("a/b")
        first, second = t.children(t.root)
        for target in (first, second):
            emb = find_embedding(p, t, output_at=target)
            assert emb is not None and emb[p.output] == target

    def test_impossible_pin_returns_none(self):
        t = build_tree(("a", "b"))
        assert find_embedding(parse_xpath("a/b"), t, output_at=t.root) is None

    def test_no_embedding_returns_none(self):
        t = build_tree(("a", "b"))
        assert find_embedding(parse_xpath("x/y"), t) is None

    def test_descendant_spine_pin(self):
        t = build_tree(("a", ("x", ("b", "c"))))
        p = parse_xpath("a//b/c")
        deep_b = t.children(t.children(t.root)[0])[0]
        emb = find_embedding(p, t)
        assert emb is not None
        assert emb[p.spine()[1]] == deep_b


class TestEnumerateEmbeddings:
    def test_counts_all(self):
        t = build_tree(("a", "b", "b"))
        embeddings = list(enumerate_embeddings(parse_xpath("a/b"), t))
        assert len(embeddings) == 2

    def test_limit(self):
        t = build_tree(("a", "b", "b", "b"))
        embeddings = list(enumerate_embeddings(parse_xpath("a/b"), t, limit=2))
        assert len(embeddings) == 2

    def test_each_is_valid(self, figure2_tree):
        p = parse_xpath("a[.//c]/b[d][*//f]")
        for emb in enumerate_embeddings(p, figure2_tree):
            _assert_valid_embedding(p, figure2_tree, emb)


class TestCrossValidation:
    """The efficient evaluator must agree with brute-force enumeration."""

    @pytest.mark.parametrize("seed", range(LINEAR_CASES))
    def test_linear_patterns_random(self, seed):
        p, t = _linear_case(seed)
        got = evaluate(p, t)
        assert got == evaluate_sets(p, t), f"seed {seed}: {to_xpath(p)}"
        if t.size <= 12:
            assert got == evaluate_bruteforce(p, t), f"seed {seed}: {to_xpath(p)}"

    def test_linear_cases_cover_every_shape(self):
        """The seeded cases reach every shape the kernel walk must handle."""
        seen: set[str] = set()
        for seed in range(LINEAR_CASES):
            p, t = _linear_case(seed)
            spine = p.spine()
            axes = [p.axis(node) for node in spine[1:]]
            if p.is_wildcard(p.root):
                seen.add("wildcard root")
            if any(p.is_wildcard(node) for node in spine[1:]):
                seen.add("wildcard step")
            if any(
                a is b is Axis.DESCENDANT for a, b in zip(axes, axes[1:])
            ):
                seen.add("// chain")
            if any(label.startswith("#text:") for label in t.labels()):
                seen.add("text children")
            if t.size == 1:
                seen.add("one-node tree")
            if p.labels() - t.labels():
                seen.add("label absent from tree")
            if t.size >= 50:
                seen.add("large tree")
            if evaluate(p, t):
                seen.add("non-empty result")
        assert seen == {
            "wildcard root", "wildcard step", "// chain", "text children",
            "one-node tree", "label absent from tree", "large tree",
            "non-empty result",
        }

    @pytest.mark.parametrize("seed", range(30))
    def test_branching_patterns_random(self, seed):
        rng = random.Random(seed + 1000)
        t = random_tree(rng.randint(1, 10), ("a", "b"), seed=rng)
        p = random_branching_pattern(
            rng.randint(1, 5), ("a", "b"), seed=rng, output="any"
        )
        assert evaluate(p, t) == evaluate_bruteforce(p, t), f"seed {seed}"


class TestEvaluatorPaths:
    """Which evaluator answers, and what the canonical-form memo must
    forget when a pattern changes after it has been evaluated."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen: list[str] = []
        select, sets = BitsetAutomaton.select, embedding.evaluate_sets

        def counted_select(automaton, tree):
            seen.append("kernel")
            return select(automaton, tree)

        def counted_sets(pattern, tree):
            seen.append("sets")
            return sets(pattern, tree)

        monkeypatch.setattr(BitsetAutomaton, "select", counted_select)
        monkeypatch.setattr(embedding, "evaluate_sets", counted_sets)
        return seen

    def test_dispatch(self, calls):
        t = build_tree(("a", ("b", "c", "#text:5"), "b"))
        tested = parse_xpath("a/b")
        tested.set_value_test(tested.output, ValueTest("<", 10))
        evaluate(parse_xpath("a//c"), t)
        evaluate(parse_xpath("a/b[c]"), t)
        evaluate(tested, t)
        assert calls == ["kernel", "sets", "sets"]

    #: Each turns ``a/b`` into a pattern that selects fewer ``b`` nodes of
    #: the tree below, or other nodes.
    MUTATIONS = {
        "add_child": lambda p: p.add_child(p.output, "c", Axis.CHILD),  # a/b[c]
        "set_output": lambda p: p.set_output(
            p.add_child(p.output, "c", Axis.CHILD)
        ),  # a/b/c
        "set_value_test": lambda p: p.set_value_test(
            p.output, ValueTest("<", 10)
        ),  # a/b with b < 10
        "graft": lambda p: p.graft(
            p.output, parse_xpath("c/d"), Axis.DESCENDANT
        ),  # a/b[.//c/d]
    }

    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=list(MUTATIONS))
    def test_mutation_invalidates_memo(self, mutate):
        t = build_tree(("a", ("b", "#text:5", ("c", "d")), ("b", "#text:50")))
        p = parse_xpath("a/b")
        before = evaluate(p, t)
        form = p.canonical_form()
        key = global_compiler().intern(p).key
        mutate(p)
        assert p.canonical_form() != form
        assert global_compiler().intern(p).key == p.canonical_form() != key
        assert evaluate(p, t) != before
        assert evaluate(p, t) == evaluate_bruteforce(p, t)

    def test_mutating_a_copy_leaves_the_original(self):
        t = build_tree(("a", ("b", "c"), "b"))
        p = parse_xpath("a/b")
        before, form = evaluate(p, t), p.canonical_form()
        clone = p.copy()
        assert clone.canonical_form() == form
        clone.set_output(clone.add_child(clone.output, "c", Axis.CHILD))
        assert clone.canonical_form() != form
        assert evaluate(clone, t) != before
        assert (p.canonical_form(), evaluate(p, t)) == (form, before)

    def test_gained_value_test_takes_the_set_path(self, calls):
        t = build_tree(("a", ("b", "#text:5"), ("b", "#text:50")))
        low = t.children(t.root)[0]
        p = parse_xpath("a/b")
        assert len(evaluate(p, t)) == 2
        p.set_value_test(p.output, ValueTest("<", 10))
        assert evaluate(p, t) == {low}
        assert calls == ["kernel", "sets"]


class TestEvaluateSubtrees:
    def test_subtrees_preserve_ids(self):
        t = build_tree(("a", ("b", "c")))
        subtrees = evaluate_subtrees(parse_xpath("a/b"), t)
        assert len(subtrees) == 1
        sub = subtrees[0]
        assert sub.root == t.children(t.root)[0]
        assert sub.size == 2


def _assert_valid_embedding(pattern, tree, embedding):
    from repro.patterns.pattern import Axis

    assert embedding[pattern.root] == tree.root
    for pnode in pattern.nodes():
        tnode = embedding[pnode]
        if not pattern.is_wildcard(pnode):
            assert pattern.label(pnode) == tree.label(tnode)
        parent = pattern.parent(pnode)
        if parent is None:
            continue
        axis = pattern.axis(pnode)
        if axis is Axis.CHILD:
            assert tree.parent(tnode) == embedding[parent]
        else:
            assert tree.is_ancestor(embedding[parent], tnode)
