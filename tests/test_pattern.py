"""Unit tests for tree patterns (:mod:`repro.patterns.pattern`)."""

from __future__ import annotations

import pytest

from repro.errors import NotLinearError, PatternError
from repro.patterns.embedding import embeds
from repro.patterns.pattern import (
    WILDCARD,
    Axis,
    TreePattern,
    ValueTest,
    fresh_label,
)
from repro.patterns.xpath import parse_xpath


class TestConstruction:
    def test_single_node(self):
        p = TreePattern("a")
        assert p.size == 1
        assert p.root == p.output
        assert p.axis(p.root) is None

    def test_add_child_records_axis(self):
        p = TreePattern("a")
        b = p.add_child(p.root, "b", Axis.CHILD)
        c = p.add_child(b, "c", Axis.DESCENDANT)
        assert p.axis(b) is Axis.CHILD
        assert p.axis(c) is Axis.DESCENDANT
        assert p.parent(c) == b

    def test_set_output(self):
        p = TreePattern("a")
        b = p.add_child(p.root, "b", Axis.CHILD)
        p.set_output(b)
        assert p.output == b

    def test_labels_exclude_wildcard(self):
        p = parse_xpath("a/*/b")
        assert p.labels() == {"a", "b"}

    def test_unknown_node_raises(self):
        p = TreePattern("a")
        with pytest.raises(PatternError):
            p.label(42)


class TestLinearity:
    def test_linear_pattern(self):
        assert parse_xpath("a//b/c").is_linear

    def test_branching_not_linear(self):
        assert not parse_xpath("a[b]/c").is_linear

    def test_internal_output_not_linear(self):
        p = parse_xpath("a/b/c")
        spine = p.spine()
        p.set_output(spine[1])  # output above the leaf
        assert not p.is_linear

    def test_require_linear_raises(self):
        with pytest.raises(NotLinearError):
            parse_xpath("a[b]/c").require_linear("read")

    def test_single_node_is_linear(self):
        assert TreePattern("a").is_linear


class TestStarLength:
    @pytest.mark.parametrize(
        "xpath,expected",
        [
            ("a/b/c", 0),
            ("*", 1),
            ("a/*/b", 1),
            ("a/*/*/b", 2),
            ("a/*//*/b", 1),  # descendant edge breaks the chain
            ("*/*", 2),
            ("a[*/*][*]/b", 2),
        ],
    )
    def test_star_length(self, xpath, expected):
        assert parse_xpath(xpath).star_length() == expected

    def test_star_length_chain_through_branches(self):
        # root * with two children: a chain of 2 *s and a single label.
        p = TreePattern(WILDCARD)
        s1 = p.add_child(p.root, WILDCARD, Axis.CHILD)
        p.add_child(p.root, "a", Axis.CHILD)
        s2 = p.add_child(s1, WILDCARD, Axis.CHILD)
        p.set_output(s2)
        assert p.star_length() == 3


class TestSeqAndSubpattern:
    def test_seq_extracts_path(self):
        p = parse_xpath("a/b//c/d")
        spine = p.spine()
        seq = p.seq(spine[0], spine[2])
        assert seq.size == 3
        assert seq.is_linear
        assert seq.label(seq.output) == "c"

    def test_seq_preserves_axes(self):
        p = parse_xpath("a//b")
        seq = p.trunk()
        leaf = seq.output
        assert seq.axis(leaf) is Axis.DESCENDANT

    def test_seq_rejects_non_ancestor(self):
        p = parse_xpath("a[b]/c")
        b = next(
            n for n in p.nodes() if p.label(n) == "b"
        )
        c = next(n for n in p.nodes() if p.label(n) == "c")
        with pytest.raises(PatternError):
            p.seq(b, c)

    def test_trunk_of_branching_pattern(self):
        p = parse_xpath("a[x][.//y]/b[z]")
        trunk = p.trunk()
        assert trunk.is_linear
        assert trunk.size == 2
        assert trunk.label(trunk.root) == "a"
        assert trunk.label(trunk.output) == "b"

    def test_subpattern(self):
        p = parse_xpath("a[b/c]/d")
        b = next(n for n in p.nodes() if p.label(n) == "b")
        sub = p.subpattern(b)
        assert sub.size == 2
        assert sub.label(sub.root) == "b"

    def test_subpattern_with_output(self):
        p = parse_xpath("a[b/c]/d")
        b = next(n for n in p.nodes() if p.label(n) == "b")
        c = next(n for n in p.nodes() if p.label(n) == "c")
        sub = p.subpattern(b, output=c)
        assert sub.label(sub.output) == "c"


class TestModel:
    @pytest.mark.parametrize(
        "xpath",
        ["a", "a/b", "a//b", "a[.//c]/b[d][*//f]", "*//*", "a[*][b//c]/d"],
    )
    def test_pattern_embeds_into_its_model(self, xpath):
        p = parse_xpath(xpath)
        assert embeds(p, p.model()), f"{xpath} must embed into its model"

    def test_model_wildcard_label_fresh_by_default(self):
        p = parse_xpath("a/*")
        model = p.model()
        labels = model.labels()
        assert "a" in labels
        assert WILDCARD not in labels

    def test_model_with_mapping(self):
        p = parse_xpath("a/b//c")
        model, mapping = p.model_with_mapping()
        assert set(mapping) == set(p.nodes())
        for pnode, tnode in mapping.items():
            if not p.is_wildcard(pnode):
                assert model.label(tnode) == p.label(pnode)


class TestTransformations:
    def test_copy_independent(self):
        p = parse_xpath("a/b")
        q = p.copy()
        q.add_child(q.root, "x", Axis.CHILD)
        assert p.size == 2 and q.size == 3

    def test_strip_value_tests(self):
        p = parse_xpath("a/b[c < 5]")
        assert p.has_value_tests()
        stripped = p.strip_value_tests()
        assert not stripped.has_value_tests()
        assert stripped.size == p.size

    def test_graft(self):
        host = TreePattern("a")
        guest = parse_xpath("x/y")
        mapping = host.graft(host.root, guest, Axis.DESCENDANT)
        assert host.size == 3
        assert host.axis(mapping[guest.root]) is Axis.DESCENDANT

    def test_equality_ignores_sibling_order(self):
        p = parse_xpath("a[b][c]")
        q = parse_xpath("a[c][b]")
        assert p == q
        assert hash(p) == hash(q)

    def test_equality_respects_output(self):
        p = parse_xpath("a/b")
        q = parse_xpath("a/b")
        q.set_output(q.root)
        assert p != q

    def test_equality_respects_axis(self):
        assert parse_xpath("a/b") != parse_xpath("a//b")


class TestValueTest:
    def test_ops(self):
        assert ValueTest("<", 10).holds(5)
        assert not ValueTest("<", 10).holds(15)
        assert ValueTest(">=", 3).holds(3)
        assert ValueTest("!=", 1).holds(2)
        assert ValueTest("=", 2).holds(2)

    def test_unknown_op_rejected(self):
        with pytest.raises(PatternError):
            ValueTest("~", 1)

    def test_str_formats_integers(self):
        assert str(ValueTest("<", 10.0)) == "< 10"

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_constant_rejected(self, value):
        with pytest.raises(PatternError, match="not finite"):
            ValueTest("<", value)

    def test_large_finite_constant_renders(self):
        test = ValueTest("<", 1e300)
        assert str(test).startswith("< 1000000000000000052504760255204")


class TestFreshLabel:
    def test_avoids_collisions(self):
        label = fresh_label({"zeta", "zeta0", "zeta1"})
        assert label not in {"zeta", "zeta0", "zeta1"}

    def test_uses_stem_when_free(self):
        assert fresh_label(set(), stem="alpha") == "alpha"
