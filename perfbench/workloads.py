"""Seeded input generators for the three benchmark workloads.

Every generator takes the seed as its only varying argument, so the same
seed always yields the same inputs.  For the catalogues the seed picks
and permutes labels (and, for ``catalogue-static``, the name order) over
a fixed structure, so every seed gives an isomorphic catalogue: the same
verdict tallies and the same work, and timings of runs with different
seeds can be compared.  The service traffic is drawn fresh per seed; its
cost averages over thousands of requests.

Operations are built from XPath strings and XML text, the form a caller
of the library or the service hands over.
"""

from __future__ import annotations

import random

from repro import Delete, Insert, Read

#: Label pools for ``catalogue-static``: roots, sections and leaves are
#: drawn from disjoint pools so cross-root pairs stay disjoint.
ROOT_WORDS = (
    "bib", "inv", "cat", "log", "arc", "idx", "reg", "lab", "acct", "ship",
    "crm", "hr", "ops", "doc", "wiki", "mail",
)
SECTION_WORDS = ("book", "item", "entry", "row", "rec", "part", "unit", "case")
LEAF_WORDS = (
    "title", "price", "quantity", "note", "isbn", "stale", "extra", "date",
    "owner", "tag", "size", "code",
)

#: Labels of the random linear patterns in ``catalogue-pool`` and the
#: service workload; ``catalogue-pool`` maps them per seed onto 6 of the
#: 16 letters of ``LABEL_POOL``.
DECIDE_LABELS = ("a", "b", "c", "d", "e", "f")
LABEL_POOL = "abcdefghijklmnop"
#: ``catalogue-pool`` is generated from this fixed seed, then relabeled.
DECIDE_STRUCTURE_SEED = 12

STATIC_OPS = 10_000
DECIDE_READS = 200
DECIDE_UPDATES = 24
DECIDE_BRANCHING = 3


def static_catalogue(seed: int) -> dict:
    """``catalogue-static``: 10k names over ~250 shapes and 8 disjoint roots.

    The shape of the ``bench_index`` headline: per root, every
    section/leaf read, one descendant read, one delete and one insert.
    Four in five names are reads.  Names cycle over the shapes, so each
    shape is repeated ~40 times, and the catalogue order is shuffled.
    """
    rng = random.Random(seed)
    roots = rng.sample(ROOT_WORDS, 8)
    sections = rng.sample(SECTION_WORDS, 4)
    leaves = rng.sample(LEAF_WORDS, 7)
    reads, updates = [], []
    for root in roots:
        for section in sections:
            for leaf in leaves:
                reads.append(Read(f"{root}/{section}/{leaf}"))
        reads.append(Read(f"{root}//{leaves[1]}"))
        updates.append(Delete(f"{root}/{sections[0]}/{leaves[5]}"))
        updates.append(Insert(f"{root}/{sections[1]}", f"<{leaves[3]}>x</{leaves[3]}>"))
    rng.shuffle(reads)
    rng.shuffle(updates)
    names = []
    for index in range(STATIC_OPS):
        if index % 5 < 4:
            names.append((f"r{index:05d}", reads[index % len(reads)]))
        else:
            names.append((f"u{index:05d}", updates[index % len(updates)]))
    rng.shuffle(names)
    return dict(names)


def linear_xpath(rng: random.Random, depth: int, p_star: float = 0.15,
                 p_desc: float = 0.3) -> str:
    """A random linear XPath of ``depth`` steps over :data:`DECIDE_LABELS`."""
    out = []
    for step in range(depth):
        label = "*" if step and rng.random() < p_star else rng.choice(DECIDE_LABELS)
        if step:
            out.append("//" if rng.random() < p_desc else "/")
        out.append(label)
    return "".join(out)


def branching_xpath(rng: random.Random) -> str:
    """A small branching read: a linear spine with one predicate branch."""
    head = rng.choice(DECIDE_LABELS)
    branch = rng.choice(DECIDE_LABELS)
    tail = linear_xpath(rng, rng.randint(2, 3))
    return f"{head}[{branch}]//{tail}"


def random_subtree(rng: random.Random) -> str:
    """One- or two-node XML fragment for an insert."""
    top = rng.choice(DECIDE_LABELS)
    if rng.random() < 0.5:
        return f"<{top}/>"
    return f"<{top}><{rng.choice(DECIDE_LABELS)}/></{top}>"


def update_spec(rng: random.Random) -> tuple[str, str | None]:
    """``(xpath, xml)`` of a linear insert (depth 2-4, ``xml`` set) or
    delete (depth 2-5, ``xml`` None), half and half."""
    if rng.random() < 0.5:
        return linear_xpath(rng, rng.randint(2, 4)), random_subtree(rng)
    return linear_xpath(rng, rng.randint(2, 5)), None


def make_update(xpath: str, xml: str | None):
    return Delete(xpath) if xml is None else Insert(xpath, xml)


def distinct_xpaths(rng: random.Random, count: int, seen: set) -> list[str]:
    """``count`` linear read XPaths (depth 3-7) that are not in ``seen``."""
    out = []
    while len(out) < count:
        xpath = linear_xpath(rng, rng.randint(3, 7))
        if xpath not in seen:
            seen.add(xpath)
            out.append(xpath)
    return out


def decide_catalogue(seed: int) -> dict:
    """``catalogue-pool``: little repetition, so decisions dominate.

    200 distinct random linear reads, 24 linear updates and 3 branching
    reads, so dedup, cache and containment barely help and the decision
    procedures dominate.  Branching reads take the general (NP) path, a
    few times dearer per pair than a linear one, which is why there are
    only three.  The structure comes from
    :data:`DECIDE_STRUCTURE_SEED`; ``seed`` maps its 6 labels one-to-one
    onto 6 letters of :data:`LABEL_POOL`.
    """
    rng = random.Random(DECIDE_STRUCTURE_SEED)
    letters = random.Random(seed).sample(LABEL_POOL, len(DECIDE_LABELS))
    relabel = str.maketrans(dict(zip(DECIDE_LABELS, letters)))
    catalogue = {}
    for index, xpath in enumerate(distinct_xpaths(rng, DECIDE_READS, set())):
        catalogue[f"r{index:03d}"] = Read(xpath.translate(relabel))
    for index in range(DECIDE_BRANCHING):
        catalogue[f"b{index:03d}"] = Read(branching_xpath(rng).translate(relabel))
    for index in range(DECIDE_UPDATES):
        xpath, xml = update_spec(rng)
        catalogue[f"u{index:03d}"] = make_update(
            xpath.translate(relabel), xml and xml.translate(relabel)
        )
    return catalogue


#: Service traffic: each cycle sends the whole hot set once plus one fresh
#: pair per ``HOT_PER_FRESH`` hot requests (90% hits, 10% misses).
HOT_READ_UPDATE = 162
HOT_UPDATE_UPDATE = 18
HOT_PER_FRESH = 9
#: Every ``WITNESS_EVERY``-th fresh request asks for a witness.
WITNESS_EVERY = 3


def service_traffic(seed: int, fresh_count: int) -> tuple[list, list]:
    """``service-check``: a hot set of pairs and a pool of fresh ones.

    Returns ``(hot, fresh)``, each a list of ``(first, second)``
    operation pairs.  The hot set mixes linear read/update pairs with a
    tenth of update/update pairs (the part the bounded search leaves
    ``UNKNOWN``).  Fresh pairs are linear read/update pairs whose reads
    appear nowhere else, so the server has never seen them.
    """
    rng = random.Random(seed)
    seen: set = set()
    updates = [make_update(*update_spec(rng)) for _ in range(24)]
    hot_reads = [Read(xpath) for xpath in distinct_xpaths(rng, 60, seen)]
    hot = [
        (hot_reads[index % len(hot_reads)], rng.choice(updates))
        for index in range(HOT_READ_UPDATE)
    ]
    for _ in range(HOT_UPDATE_UPDATE):
        first, second = rng.sample(updates, 2)
        hot.append((first, second))
    rng.shuffle(hot)
    fresh = [
        (Read(xpath), rng.choice(updates))
        for xpath in distinct_xpaths(rng, fresh_count, seen)
    ]
    return hot, fresh
