"""Parse the paper's XPath fragment into tree patterns, and back.

The grammar (Section 2.2 of the paper)::

    e  ->  e/e | e//e | e[e] | e[.//e] | σ | *

concretely, as accepted here::

    xpath      :=  ('/' | '//')? step (('/' | '//') step)*
    step       :=  (NAME | '*') predicate*
    predicate  :=  '[' relpath (CMP NUMBER)? ']'
    relpath    :=  ('.//' | './')? step (('/' | '//') step)*
    CMP        :=  '<' | '<=' | '>' | '>=' | '=' | '!='

Steps on the main spine become the pattern's root-to-output path; the final
spine step is the output node.  Predicates become branches.  A leading
``//`` introduces an implicit wildcard root (the pattern root must map to
the document root, per the embedding semantics), so ``//book`` parses to
the pattern ``*`` --//--> ``book`` with ``book`` as output.

The optional comparison inside a predicate (``[.//quantity < 10]``) attaches
a :class:`~repro.patterns.pattern.ValueTest` to the final node of the
predicate path — the practical extension used by the paper's motivating
example.

:func:`to_xpath` renders a pattern back to this syntax; for every pattern
``p``, ``parse_xpath(to_xpath(p)) == p``.
"""

from __future__ import annotations

import math

from repro.errors import XPathSyntaxError
from repro.patterns.pattern import WILDCARD, Axis, PNodeId, TreePattern, ValueTest

__all__ = ["parse_xpath", "to_xpath"]

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789.-:#@")
_CMP_OPS = ("<=", ">=", "!=", "<", ">", "=")


class _Cursor:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def take(self, token: str) -> bool:
        if self.startswith(token):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise XPathSyntaxError(f"expected {token!r}", self.pos)

    def skip_whitespace(self) -> None:
        while not self.eof() and self.peek().isspace():
            self.pos += 1

    def read_name(self) -> str:
        start = self.pos
        if self.eof() or self.peek() not in _NAME_START:
            raise XPathSyntaxError("expected a name test or '*'", self.pos)
        while not self.eof() and self.peek() in _NAME_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def read_number(self) -> float:
        start = self.pos
        if self.take("-"):
            pass
        while not self.eof() and (self.peek().isdigit() or self.peek() == "."):
            self.pos += 1
        token = self.text[start:self.pos]
        try:
            value = float(token)
        except ValueError:
            raise XPathSyntaxError(f"expected a number, got {token!r}", start) from None
        if not math.isfinite(value):
            raise XPathSyntaxError(f"number {token[:20]!r}... is out of range", start)
        return value


def parse_xpath(text: str) -> TreePattern:
    """Parse ``text`` into a :class:`TreePattern`.

    Raises :class:`~repro.errors.XPathSyntaxError` on malformed input.

    Examples::

        >>> p = parse_xpath("a[.//c]/b[d][*//f]")
        >>> p.size
        6
        >>> p.is_linear
        False
        >>> parse_xpath("//book[.//quantity < 10]").has_value_tests()
        True
    """
    cursor = _Cursor(text)
    cursor.skip_whitespace()
    pattern = _parse_spine(cursor)
    cursor.skip_whitespace()
    if not cursor.eof():
        raise XPathSyntaxError(
            f"unexpected trailing input {cursor.text[cursor.pos:]!r}", cursor.pos
        )
    return pattern


def _parse_spine(cursor: _Cursor) -> TreePattern:
    """Parse the top-level path; returns the complete pattern."""
    # Leading axis.  '//x' needs an implicit '*' root; '/x' and 'x' agree.
    if cursor.startswith("//"):
        cursor.take("//")
        pattern = TreePattern(WILDCARD)
        current = _parse_step_into(cursor, pattern, pattern.root, Axis.DESCENDANT)
    else:
        cursor.take("/")
        pattern, current = _parse_root_step(cursor)
    while True:
        cursor.skip_whitespace()
        if cursor.startswith("//"):
            cursor.take("//")
            current = _parse_step_into(cursor, pattern, current, Axis.DESCENDANT)
        elif cursor.startswith("/"):
            cursor.take("/")
            current = _parse_step_into(cursor, pattern, current, Axis.CHILD)
        else:
            break
    pattern.set_output(current)
    return pattern


def _parse_root_step(cursor: _Cursor) -> tuple[TreePattern, PNodeId]:
    cursor.skip_whitespace()
    if cursor.take("*"):
        label = WILDCARD
    else:
        label = cursor.read_name()
    pattern = TreePattern(label)
    _parse_predicates(cursor, pattern, pattern.root)
    return pattern, pattern.root


def _parse_step_into(
    cursor: _Cursor, pattern: TreePattern, parent: PNodeId, axis: Axis
) -> PNodeId:
    cursor.skip_whitespace()
    if cursor.take("*"):
        label = WILDCARD
    else:
        label = cursor.read_name()
    node = pattern.add_child(parent, label, axis)
    _parse_predicates(cursor, pattern, node)
    return node


def _parse_predicates(cursor: _Cursor, pattern: TreePattern, node: PNodeId) -> None:
    while True:
        cursor.skip_whitespace()
        if not cursor.take("["):
            return
        cursor.skip_whitespace()
        leaf = _parse_relative_path(cursor, pattern, node)
        cursor.skip_whitespace()
        for op in _CMP_OPS:
            if cursor.take(op):
                cursor.skip_whitespace()
                value = cursor.read_number()
                pattern.set_value_test(leaf, ValueTest(op, value))
                cursor.skip_whitespace()
                break
        cursor.expect("]")


def _parse_relative_path(
    cursor: _Cursor, pattern: TreePattern, anchor: PNodeId
) -> PNodeId:
    """Parse a predicate's relative path, attached under ``anchor``.

    Returns the final node of the path (the comparison target, if any).
    """
    if cursor.take(".//"):
        axis = Axis.DESCENDANT
    elif cursor.take("./"):
        axis = Axis.CHILD
    else:
        axis = Axis.CHILD
    current = _parse_step_into(cursor, pattern, anchor, axis)
    while True:
        cursor.skip_whitespace()
        if cursor.startswith("//"):
            cursor.take("//")
            current = _parse_step_into(cursor, pattern, current, Axis.DESCENDANT)
        elif cursor.startswith("/") and not cursor.startswith("/]"):
            cursor.take("/")
            current = _parse_step_into(cursor, pattern, current, Axis.CHILD)
        else:
            return current


def to_xpath(pattern: TreePattern) -> str:
    """Render a pattern back to XPath text.

    The root-to-output path becomes the main spine; all other branches
    render as predicates.  Round-trips: ``parse_xpath(to_xpath(p)) == p``.
    """
    spine = pattern.spine()
    on_spine = set(spine)
    pieces: list[str] = []
    for index, node in enumerate(spine):
        if index == 0:
            if pattern.axis(node) is not None:  # pragma: no cover - root only
                raise AssertionError("spine must start at the root")
        else:
            axis = pattern.axis(node)
            assert axis is not None
            pieces.append(axis.value)
        pieces.append(pattern.label(node))
        pieces.append(_render_test(pattern, node))
        for child in pattern.children(node):
            if child in on_spine:
                continue
            pieces.append(f"[{_render_relative(pattern, child)}]")
    return "".join(pieces)


def _render_relative(pattern: TreePattern, node: PNodeId) -> str:
    axis = pattern.axis(node)
    assert axis is not None
    prefix = ".//" if axis is Axis.DESCENDANT else ""
    out = [prefix, pattern.label(node), _render_test(pattern, node)]
    for child in pattern.children(node):
        out.append(f"[{_render_relative(pattern, child)}]")
    return "".join(out)


def _render_test(pattern: TreePattern, node: PNodeId) -> str:
    test = pattern.value_test(node)
    return f" {test}" if test else ""
