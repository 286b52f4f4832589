"""The shared verdict cache: pair verdicts keyed by canonical forms.

:class:`VerdictCache` is the one store that answers repeated pair
questions.  The batch engine (:mod:`repro.conflicts.batch`) dedups a
catalogue's pairs through it, the service keeps one per process (one per
shard in a cluster), and replication's in-process backend keeps one for
a session's lifetime.  Every key embeds the deciding configuration's
:meth:`~repro.conflicts.detector.DetectorConfig.fingerprint`, and every
value is a bare :class:`~repro.conflicts.semantics.Verdict`.  Snapshots
are version-1 JSON, written durably and salvaged when damaged
(:meth:`VerdictCache.save`, :meth:`VerdictCache.load`).  Snapshots carry
only ``conflict`` and ``no-conflict`` entries: those are facts about the
pair that hold from one engine version to the next, while an ``unknown``
only records what one engine could not decide.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import warnings
from collections.abc import Iterable

from repro.conflicts.semantics import Verdict
from repro.errors import (
    CacheCorrupt,
    CacheCorruptWarning,
    CacheShardMismatch,
    ConflictEngineError,
)
from repro.resilience import faults

__all__ = ["OpKey", "PairKey", "VerdictCache"]

#: Canonical identity of one operation: ``(type name, pattern form,
#: subtree form or None)``.
OpKey = tuple[str, str, "str | None"]

#: Cache key of one unordered pair under one detector configuration.
PairKey = tuple[tuple, OpKey, OpKey]


class VerdictCache:
    """A shareable store of pair verdicts, keyed by canonical forms.

    Entries are bare :class:`Verdict` values (no witness trees), which
    makes them cheap to hold, trivially picklable, and JSON-serializable.
    Every key embeds the deciding configuration's
    :meth:`~repro.conflicts.detector.DetectorConfig.fingerprint`, so
    caches built under different budgets or semantics can be merged into
    one store without ever mixing their answers.

    Thread-safe; share one instance across analyzers to pool verdicts.

    A cache may be **owned by a shard** (``shard_id``): snapshots record
    the writing shard, and :meth:`save` refuses to overwrite a snapshot
    written by a *different* shard unless merging — two shard processes
    misconfigured onto one ``cache_path`` fail loudly instead of silently
    clobbering each other's accumulated verdicts on every save.  Use
    :meth:`shard_snapshot_path` to derive the conventional per-shard
    location (``<path>.shard<N>``) from a shared base path.
    """

    def __init__(self, shard_id: int | None = None) -> None:
        self._lock = threading.Lock()
        self._verdicts: dict[PairKey, Verdict] = {}
        self.shard_id = shard_id

    @staticmethod
    def shard_snapshot_path(path: str | os.PathLike, shard_id: int) -> str:
        """The per-shard snapshot location for a shared base ``path``."""
        return f"{os.fspath(path)}.shard{shard_id}"

    @staticmethod
    def pair_key(fingerprint: tuple, key_a: OpKey, key_b: OpKey) -> PairKey:
        """The canonical (unordered) key for one pair of operations, given
        their keys (see :func:`repro.conflicts.batch.op_key`)."""
        if key_b < key_a:
            key_a, key_b = key_b, key_a
        return (tuple(fingerprint), key_a, key_b)

    def get(self, key: PairKey) -> Verdict | None:
        return self._verdicts.get(key)

    def put(self, key: PairKey, verdict: Verdict) -> None:
        with self._lock:
            self._verdicts[key] = verdict

    def __len__(self) -> int:
        return len(self._verdicts)

    def __contains__(self, key: PairKey) -> bool:
        return key in self._verdicts

    # ------------------------------------------------------------------
    # Sharing: export / merge / snapshot
    # ------------------------------------------------------------------

    def export(self) -> list[dict]:
        """Detached JSON-able entries (the :meth:`save` wire format).

        ``unknown`` verdicts stay out: a later engine may decide the
        pair, and a snapshot must not pin it undecided.
        """
        with self._lock:
            return [
                {
                    "config": list(fingerprint),
                    "a": list(key_a),
                    "b": list(key_b),
                    "verdict": verdict.value,
                }
                for (fingerprint, key_a, key_b), verdict in self._verdicts.items()
                if verdict is not Verdict.UNKNOWN
            ]

    def merge(self, entries: "VerdictCache | Iterable[dict]") -> int:
        """Fold another cache (or exported entries) in; returns new count.

        Existing entries win on collision — both sides decided the same
        canonical pair under the same fingerprint, so the answers agree
        and keeping ours avoids churn.  ``unknown`` entries, which older
        snapshots hold, are skipped (see :meth:`export`).
        """
        if isinstance(entries, VerdictCache):
            entries = entries.export()
        added = 0
        with self._lock:
            for entry in entries:
                key = (
                    tuple(entry["config"]),
                    tuple(entry["a"]),
                    tuple(entry["b"]),
                )
                verdict = Verdict(entry["verdict"])
                if verdict is not Verdict.UNKNOWN and key not in self._verdicts:
                    self._verdicts[key] = verdict
                    added += 1
        return added

    def save(self, path: str | os.PathLike, *, merge: bool = False) -> None:
        """Snapshot to ``path`` as JSON, durably and atomically.

        The bytes are flushed and ``fsync``'d before the ``os.replace``
        rename, so a crash (or power loss) mid-save leaves either the old
        snapshot or the complete new one — never a half-written file at
        ``path``.  (A half-written ``.tmp`` can survive; it is simply
        overwritten by the next save.)

        Missing parent directories of ``path`` are created, so a fresh
        snapshot location like ``runs/2026-08-07/cache.json`` works on
        the first save instead of failing until someone mkdirs it.

        Snapshots record the writing shard (:attr:`shard_id`).  When
        ``path`` already holds a snapshot owned by a *different* shard,
        the save raises :class:`~repro.errors.CacheShardMismatch` — two
        shards misconfigured onto one path must not take turns erasing
        each other.  Pass ``merge=True`` to fold the existing snapshot's
        entries into this cache first (existing in-memory entries win)
        and write the union instead of refusing.

        Raises:
            CacheShardMismatch: ``path`` holds another shard's snapshot
                and ``merge`` is false.
        """
        path = os.fspath(path)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        existing_shard = self._snapshot_owner(path)
        if (
            existing_shard is not None
            and existing_shard != self.shard_id
        ):
            if not merge:
                raise CacheShardMismatch(
                    f"snapshot {path!r} was written by shard "
                    f"{existing_shard}; this cache belongs to shard "
                    f"{self.shard_id} (pass merge=True to fold it in, or "
                    "use VerdictCache.shard_snapshot_path for per-shard "
                    "files)"
                )
        if merge and os.path.exists(path):
            self.merge(VerdictCache.load(path))
        text = json.dumps(
            {"version": 1, "shard": self.shard_id, "entries": self.export()}
        )
        rule = faults.match("cache_corrupt", path)
        if rule is not None:
            text = _corrupt_snapshot(text, rule.mode)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @staticmethod
    def _snapshot_owner(path: str) -> int | None:
        """The ``shard`` recorded in the snapshot at ``path``, if any.

        Reads only a bounded prefix: the writer emits ``shard`` before
        the (potentially huge) entries array, so ownership never costs a
        full parse.  Missing files, pre-shard snapshots, and corrupt
        prefixes all answer ``None`` — only a *positively identified*
        other owner blocks a save.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                head = handle.read(4096)
        except OSError:
            return None
        found = re.search(r'"shard"\s*:\s*(\d+)', head)
        return int(found.group(1)) if found else None

    @classmethod
    def load(
        cls, path: str | os.PathLike, *, strict: bool = False
    ) -> "VerdictCache":
        """Rebuild a cache from a :meth:`save` snapshot, salvaging if corrupt.

        A damaged snapshot does not abort the run.  That covers text that
        is not valid JSON (truncated write, bit rot, injected
        ``cache_corrupt`` fault) and JSON of the wrong shape: a top level
        that is not an object, ``entries`` that is not a list, an entry
        missing ``config``/``a``/``b``/``verdict`` or carrying an unknown
        verdict.  The valid prefix of its entries array is salvaged, the
        damaged original is preserved as ``<path>.bak``, and a
        :class:`CacheCorruptWarning` is emitted.  Pass ``strict=True`` to
        raise :class:`CacheCorrupt` instead of salvaging.  A snapshot with
        an unsupported version is always an error — its entries mean
        something else.
        """
        path = os.fspath(path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            problem, entries = str(exc), None
        else:
            problem, entries = cls._check_payload(payload)
        if problem is None:
            shard = payload.get("shard")
            cache = cls(shard_id=shard if isinstance(shard, int) else None)
            cache.merge(entries)
            return cache
        if strict:
            raise CacheCorrupt(f"corrupt verdict-cache snapshot {path!r}: {problem}")
        if entries is None:
            entries = cls._salvage_entries(text)
        backup = f"{path}.bak"
        shutil.copyfile(path, backup)
        warnings.warn(
            CacheCorruptWarning(
                f"verdict-cache snapshot {path!r} is corrupt "
                f"({problem}); salvaged {len(entries)} of its entries, "
                f"original preserved as {backup!r}"
            ),
            stacklevel=2,
        )
        cache = cls(shard_id=cls._snapshot_owner(path))
        cache.merge(entries)
        return cache

    @staticmethod
    def _check_payload(payload: object) -> "tuple[str | None, list]":
        """``(problem, valid entries prefix)`` of a parsed snapshot.

        ``problem`` is ``None`` when the whole snapshot is well formed.
        """
        if not isinstance(payload, dict):
            return "the top level is not an object", []
        if payload.get("version") != 1:
            raise ConflictEngineError(
                f"unsupported verdict-cache version {payload.get('version')!r}"
            )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            return "'entries' is not a list", []
        for index, entry in enumerate(entries):
            if not _valid_entry(entry):
                return f"entry {index} is malformed", entries[:index]
        return None, entries

    @staticmethod
    def _salvage_entries(text: str) -> list[dict]:
        """The longest valid prefix of a corrupt snapshot's entries array.

        Entries are decoded one by one with :meth:`json.JSONDecoder.raw_decode`
        until the first undecodable or malformed one; everything before it
        is intact (the writer appends entries in export order).
        """
        version = re.search(r'"version"\s*:\s*(\d+)', text)
        if version is not None and int(version.group(1)) != 1:
            raise ConflictEngineError(
                f"unsupported verdict-cache version {version.group(1)!r}"
            )
        marker = re.search(r'"entries"\s*:\s*\[', text)
        if marker is None:
            return []
        decoder = json.JSONDecoder()
        pos = marker.end()
        entries: list[dict] = []
        while True:
            while pos < len(text) and text[pos] in " \t\r\n,":
                pos += 1
            if pos >= len(text) or text[pos] == "]":
                break
            try:
                entry, pos = decoder.raw_decode(text, pos)
            except json.JSONDecodeError:
                break
            if not _valid_entry(entry):
                break
            entries.append(entry)
        return entries


#: The JSON values an exported key component may hold (all hashable).
_KEY_ATOMS = (str, int, float, type(None))
_VERDICTS = tuple(verdict.value for verdict in Verdict)


def _valid_entry(entry: object) -> bool:
    """Whether ``entry`` is a well-formed :meth:`VerdictCache.export` entry."""
    return (
        isinstance(entry, dict)
        and all(
            isinstance(entry.get(field), list)
            and all(isinstance(atom, _KEY_ATOMS) for atom in entry[field])
            for field in ("config", "a", "b")
        )
        and entry.get("verdict") in _VERDICTS
    )


def _corrupt_snapshot(text: str, mode: str | None) -> str:
    """Apply an injected ``cache_corrupt`` fault to snapshot bytes.

    ``mode=truncate`` cuts mid-entry (salvage loses the tail);
    the default ``garbage`` mode appends a non-JSON suffix after the
    complete document, so salvage recovers every entry — which keeps
    whole-suite fault runs convergent.
    """
    if mode == "truncate":
        return text[: max(1, (len(text) * 3) // 5)]
    return text + "\x00{corrupt-tail"
