"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import signal

import pytest

from repro.compile.compiler import reset_global_compiler
from repro.xml.tree import XMLTree, build_tree


@pytest.fixture(autouse=True)
def _cold_global_compiler():
    """Start every test with a cold process-global compile cache.

    Several observability tests assert that inner instruments (NFA build
    counters, matching spans) fire on a fresh query; a compiler warmed by
    an earlier test would legitimately skip that work.  Resetting also
    keeps tests order-independent.
    """
    reset_global_compiler()
    yield


@pytest.fixture
def prompt():
    """Fail, instead of hang, a test whose calls must return promptly.

    Arms a 2 s real-time alarm that raises :class:`TimeoutError` inside
    the test, so a runaway loop (which would also grow memory without
    bound) ends as an ordinary failure.
    """

    def expire(signum, frame):  # type: ignore[no-untyped-def]
        raise TimeoutError("the call did not return within 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> random.Random:
    """A deterministically seeded RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def figure1_tree() -> XMLTree:
    """The bookstore document of Figure 1 (structure approximated).

    bib
    ├── book ── title, publisher ── name, quantity(3)
    └── book ── title, quantity(50)
    """
    return build_tree(
        (
            "bib",
            (
                "book",
                ("title", "#text:TCP/IP Illustrated"),
                ("publisher", ("name", "#text:Addison")),
                ("quantity", "#text:3"),
            ),
            (
                "book",
                ("title", "#text:Data on the Web"),
                ("quantity", "#text:50"),
            ),
        )
    )


@pytest.fixture
def figure2_tree() -> XMLTree:
    """A tree embedding the Figure 2 pattern ``a[.//c]/b[d][*//f]``."""
    return build_tree(
        ("a", ("x", "c"), ("b", "d", ("g", ("h", "f"))))
    )
