"""The service's wire vocabulary: operation specs and request parsing.

One JSON spec format describes an operation everywhere it crosses a
process boundary — the ``matrix``/``schedule`` CLI catalogues, every
service request body, and :class:`~repro.service.client.ServiceClient`
arguments::

    {"op": "read",   "xpath": "bib/book/title"}
    {"op": "insert", "xpath": "bib/book", "xml": "<restock/>"}
    {"op": "delete", "xpath": "bib/book"}

The parsers here raise :class:`~repro.errors.ServiceProtocolError`
(HTTP 400 at the service boundary, a plain :class:`ReproError` subclass
at the CLI) with messages that name the offending field, because a
daemon's 400s are read by people debugging someone else's client.
"""

from __future__ import annotations

import re
import uuid
from collections.abc import Mapping

from repro.conflicts.detector import DetectorConfig
from repro.conflicts.semantics import ConflictKind
from repro.errors import ServiceProtocolError
from repro.operations.ops import Delete, Insert, Read, UpdateOp

__all__ = [
    "op_from_spec",
    "op_to_spec",
    "catalogue_from_specs",
    "detector_config_from",
    "index_from",
    "mint_request_id",
    "normalize_request_id",
]

#: The alphabet a client-supplied request id may use.  Tight on purpose:
#: the id is echoed into span records, access-log lines, Prometheus-free
#: response bodies and error reasons, so control characters, quotes and
#: whitespace have no business in it.
_REQUEST_ID_OK = re.compile(r"^[A-Za-z0-9._:/\-]{1,128}$")


def mint_request_id() -> str:
    """A fresh server-side request id (when the client sent none)."""
    return uuid.uuid4().hex[:12]


def normalize_request_id(raw: object) -> str | None:
    """Validate a client-supplied request id; ``None`` when absent.

    Raises :class:`ServiceProtocolError` on a present-but-malformed id —
    a silent rewrite would break the client's own correlation.
    """
    if raw is None:
        return None
    if isinstance(raw, str) and _REQUEST_ID_OK.match(raw):
        return raw
    raise ServiceProtocolError(
        "request id must be 1-128 characters of [A-Za-z0-9._:/-]"
    )

#: Any of the three operation types the engine decides over.
Operation = Read | UpdateOp


def op_from_spec(spec: object, *, name: str | None = None) -> Operation:
    """Build an operation from its JSON spec, validating shape and kind."""
    label = f"operation {name!r}" if name is not None else "operation spec"
    if not isinstance(spec, Mapping) or "op" not in spec or "xpath" not in spec:
        raise ServiceProtocolError(
            f"{label}: spec must be an object with 'op' and 'xpath' fields"
        )
    op_kind = spec["op"]
    xpath = spec["xpath"]
    if not isinstance(xpath, str):
        raise ServiceProtocolError(f"{label}: 'xpath' must be a string")
    if op_kind == "read":
        return Read(xpath)
    if op_kind == "insert":
        xml = spec.get("xml", "<x/>")
        if not isinstance(xml, str):
            raise ServiceProtocolError(f"{label}: 'xml' must be a string")
        return Insert(xpath, xml)
    if op_kind == "delete":
        return Delete(xpath)
    raise ServiceProtocolError(
        f"{label}: unknown op {op_kind!r} (expected read, insert, or delete)"
    )


def op_to_spec(op: Operation) -> dict:
    """The JSON spec for an operation (client-side convenience).

    Inverse of :func:`op_from_spec` up to XPath/XML re-serialization.
    """
    from repro.patterns.xpath import to_xpath
    from repro.xml.serializer import serialize

    if isinstance(op, Read):
        return {"op": "read", "xpath": to_xpath(op.pattern)}
    if isinstance(op, Insert):
        return {
            "op": "insert",
            "xpath": to_xpath(op.pattern),
            "xml": serialize(op.subtree),
        }
    if isinstance(op, Delete):
        return {"op": "delete", "xpath": to_xpath(op.pattern)}
    raise ServiceProtocolError(f"not an operation: {type(op).__name__!r}")


def catalogue_from_specs(data: object) -> dict[str, Operation]:
    """Parse a ``{name: spec}`` catalogue object (matrix/schedule bodies)."""
    if not isinstance(data, Mapping):
        raise ServiceProtocolError(
            "catalogue must be a JSON object of name -> spec"
        )
    return {
        str(name): op_from_spec(spec, name=str(name))
        for name, spec in data.items()
    }


def _number(payload: Mapping, field: str) -> float | None:
    value = payload.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int | float):
        raise ServiceProtocolError(f"'{field}' must be a number")
    if value < 0:
        raise ServiceProtocolError(f"'{field}' must be non-negative")
    return float(value)


def detector_config_from(
    payload: Mapping,
    *,
    kind: ConflictKind,
    exhaustive_cap: int,
    default_deadline_ms: float | None,
) -> DetectorConfig:
    """The per-request :class:`DetectorConfig` implied by a request body.

    ``deadline_ms`` maps onto the config's ``deadline_s`` — the same
    cooperative :class:`repro.resilience.Budget` the CLI's ``--timeout``
    arms — so a blown per-request deadline degrades that decision to
    ``unknown`` instead of stalling a worker.  Budget knobs are excluded
    from the config fingerprint, so requests with different deadlines
    still share one verdict-cache namespace.
    """
    kind_value = payload.get("kind", kind.value)
    try:
        request_kind = ConflictKind(kind_value)
    except ValueError:
        raise ServiceProtocolError(
            f"unknown kind {kind_value!r} "
            f"(expected one of {', '.join(k.value for k in ConflictKind)})"
        ) from None
    budget = payload.get("budget", exhaustive_cap)
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ServiceProtocolError("'budget' must be a non-negative integer")
    deadline_ms = _number(payload, "deadline_ms")
    if deadline_ms is None:
        deadline_ms = default_deadline_ms
    max_steps = payload.get("max_steps")
    if max_steps is not None and (
        isinstance(max_steps, bool) or not isinstance(max_steps, int)
        or max_steps < 0
    ):
        raise ServiceProtocolError("'max_steps' must be a non-negative integer")
    return DetectorConfig(
        kind=request_kind,
        exhaustive_cap=budget,
        deadline_s=deadline_ms / 1000.0 if deadline_ms is not None else None,
        max_steps=max_steps,
    )


def index_from(payload: Mapping) -> bool:
    """Whether a matrix/schedule body wants the static pattern index:
    ``true`` when ``index`` is absent, else it must be a JSON boolean."""
    index = payload.get("index", True)
    if not isinstance(index, bool):
        raise ServiceProtocolError("'index' must be a boolean")
    return index
