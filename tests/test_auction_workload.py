"""Tests for the auction-site workload."""

from __future__ import annotations

from repro.conflicts.detector import ConflictDetector
from repro.conflicts.semantics import Verdict
from repro.operations.ops import Delete, Read
from repro.patterns.embedding import evaluate
from repro.patterns.xpath import parse_xpath
from repro.xml.random_trees import auction_site
from repro.xml.serializer import serialize
from repro.xml.parser import parse


class TestAuctionSite:
    def test_shape(self):
        doc = auction_site(items=8, people=4, seed=1)
        doc.validate()
        top = sorted(doc.label(c) for c in doc.children(doc.root))
        assert top == ["open_auctions", "people", "regions"]

    def test_item_count(self):
        doc = auction_site(items=12, people=3, seed=2)
        items = evaluate(parse_xpath("//item"), doc)
        assert len(items) == 12

    def test_people_count(self):
        doc = auction_site(items=4, people=9, seed=3)
        persons = evaluate(parse_xpath("site/people/person"), doc)
        assert len(persons) == 9

    def test_deterministic(self):
        assert auction_site(seed=4).equivalent(auction_site(seed=4))

    def test_nested_parlists_exist(self):
        doc = auction_site(items=30, people=2, seed=5)
        nested = evaluate(parse_xpath("//parlist//parlist"), doc)
        assert nested, "recursive descriptions should occur at this size"

    def test_round_trips_through_xml(self):
        doc = auction_site(items=3, people=2, seed=6)
        from repro.xml.isomorphism import isomorphic

        assert isomorphic(doc, parse(serialize(doc)))

    def test_conflict_analysis_on_auctions(self):
        detector = ConflictDetector()
        close_auctions = Delete("site/open_auctions/open_auction")
        read_bidders = Read("//bidder/increase")
        read_people = Read("site/people/person/name")
        assert (
            detector.read_delete(read_bidders, close_auctions).verdict
            is Verdict.CONFLICT
        )
        assert (
            detector.read_delete(read_people, close_auctions).verdict
            is Verdict.NO_CONFLICT
        )
