"""Unit tests for the XPath parser/printer (:mod:`repro.patterns.xpath`)."""

from __future__ import annotations

import pytest

from repro.errors import XPathSyntaxError
from repro.patterns.pattern import WILDCARD, Axis
from repro.patterns.xpath import parse_xpath, to_xpath


class TestSpine:
    def test_single_label(self):
        p = parse_xpath("a")
        assert p.size == 1
        assert p.label(p.root) == "a"
        assert p.output == p.root

    def test_child_chain(self):
        p = parse_xpath("a/b/c")
        assert p.size == 3
        assert p.is_linear
        assert [p.label(n) for n in p.spine()] == ["a", "b", "c"]
        assert all(
            p.axis(n) is Axis.CHILD for n in p.spine()[1:]
        )

    def test_descendant_axis(self):
        p = parse_xpath("a//b")
        leaf = p.spine()[-1]
        assert p.axis(leaf) is Axis.DESCENDANT

    def test_leading_slash_equivalent(self):
        assert parse_xpath("/a/b") == parse_xpath("a/b")

    def test_leading_double_slash_adds_wildcard_root(self):
        p = parse_xpath("//book")
        assert p.size == 2
        assert p.label(p.root) == WILDCARD
        assert p.axis(p.spine()[1]) is Axis.DESCENDANT
        assert p.label(p.output) == "book"

    def test_wildcard_step(self):
        p = parse_xpath("a/*/b")
        assert p.label(p.spine()[1]) == WILDCARD

    def test_output_is_final_spine_step(self):
        p = parse_xpath("a/b[c]")
        assert p.label(p.output) == "b"


class TestPredicates:
    def test_child_predicate(self):
        p = parse_xpath("a[b]")
        assert p.size == 2
        b = next(n for n in p.nodes() if p.label(n) == "b")
        assert p.axis(b) is Axis.CHILD
        assert p.output == p.root

    def test_descendant_predicate(self):
        p = parse_xpath("a[.//b]")
        b = next(n for n in p.nodes() if p.label(n) == "b")
        assert p.axis(b) is Axis.DESCENDANT

    def test_dot_slash_predicate(self):
        p = parse_xpath("a[./b]")
        assert p == parse_xpath("a[b]")

    def test_multiple_predicates(self):
        p = parse_xpath("a[b][c]")
        labels = {p.label(c) for c in p.children(p.root)}
        assert labels == {"b", "c"}

    def test_path_predicate(self):
        p = parse_xpath("a[b/c]")
        assert p.size == 3
        b = next(n for n in p.nodes() if p.label(n) == "b")
        assert [p.label(c) for c in p.children(b)] == ["c"]

    def test_nested_predicates(self):
        p = parse_xpath("a[b[c][d]]")
        assert p.size == 4

    def test_figure2_pattern(self):
        """The paper's Figure 2: a[.//c]/b[d][*//f]."""
        p = parse_xpath("a[.//c]/b[d][*//f]")
        assert p.size == 6
        assert not p.is_linear
        assert p.label(p.output) == "b"
        c = next(n for n in p.nodes() if p.label(n) == "c")
        assert p.axis(c) is Axis.DESCENDANT
        f = next(n for n in p.nodes() if p.label(n) == "f")
        assert p.axis(f) is Axis.DESCENDANT
        star = p.parent(f)
        assert p.label(star) == WILDCARD
        assert p.axis(star) is Axis.CHILD

    def test_predicate_in_mid_spine(self):
        p = parse_xpath("a[x]/b[y]/c")
        assert p.size == 5
        assert p.label(p.output) == "c"


class TestValueComparisons:
    def test_comparison_attaches_test(self):
        p = parse_xpath("book[.//quantity < 10]")
        quantity = next(n for n in p.nodes() if p.label(n) == "quantity")
        test = p.value_test(quantity)
        assert test is not None
        assert test.op == "<" and test.value == 10

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "=", "!="])
    def test_all_operators(self, op):
        p = parse_xpath(f"a[b {op} 3]")
        b = next(n for n in p.nodes() if p.label(n) == "b")
        assert p.value_test(b).op == op

    def test_negative_and_float_values(self):
        p = parse_xpath("a[b < -1.5]")
        b = next(n for n in p.nodes() if p.label(n) == "b")
        assert p.value_test(b).value == -1.5

    def test_paper_motivating_expression(self):
        p = parse_xpath("//book[.//quantity < 10]")
        assert p.has_value_tests()
        assert p.label(p.output) == "book"


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "/",
            "a/",
            "a//",
            "a[",
            "a[]",
            "a]b",
            "a[b",
            "a[b < ]",
            "a b",
            "a[b <]",
        ],
    )
    def test_malformed_raises(self, text):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(text)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_overflowing_constant_raises_at_its_offset(self, sign):
        text = f"a/b[c < {sign}1{'0' * 400}]"
        with pytest.raises(XPathSyntaxError, match="out of range") as info:
            parse_xpath(text)
        assert info.value.position == text.index(f"{sign}1")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "a",
            "*",
            "a/b/c",
            "a//b",
            "//book",
            "a/*/b",
            "a[b]",
            "a[.//b]",
            "a[b/c][d]/e//f",
            "a[.//c]/b[d][*[.//f]]",
            "a[b[c][.//d]]//e",
            "book[.//quantity < 10]",
        ],
    )
    def test_parse_render_parse_fixpoint(self, text):
        p = parse_xpath(text)
        rendered = to_xpath(p)
        assert parse_xpath(rendered) == p

    def test_render_uses_descendant_marker(self):
        assert to_xpath(parse_xpath("a//b")) == "a//b"

    def test_render_predicates(self):
        out = to_xpath(parse_xpath("a[b]"))
        assert out == "a[b]"

    def test_render_internal_output(self):
        p = parse_xpath("a/b/c")
        p.set_output(p.spine()[1])
        rendered = to_xpath(p)
        # Spine ends at the output; the tail becomes a predicate.
        assert parse_xpath(rendered) == p
