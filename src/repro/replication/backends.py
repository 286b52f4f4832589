"""Where a sync round's pair classifications come from.

A :class:`ReplicationSession <repro.replication.session.ReplicationSession>`
never decides conflicts itself — it hands each batch of newly concurrent
pairs to a *decision backend*:

* :class:`InProcessBackend` routes the batch through :func:`repro.analyze`
  in pairs mode, so replication traffic exercises the whole catalogue
  pipeline (static index discharge, canonical dedup, the shared
  :class:`~repro.conflicts.verdict_cache.VerdictCache`) and repeated
  patterns across sync rounds hit the cache instead of the decision
  procedures.
* :class:`ServiceBackend` asks a live ``repro serve`` or ``repro cluster
  serve`` endpoint over ``POST /v1/check`` — the same engine behind a
  process boundary, so scenarios double as realistic service traffic.

Both return one :class:`~repro.conflicts.semantics.Verdict` per pair;
``UNKNOWN`` (including service-side degraded verdicts) is surfaced
verbatim — the session's ``unknown_policy`` decides whether such pairs
go to the resolver or apply in canonical order.
"""

from __future__ import annotations

from dataclasses import replace

from repro.conflicts.api import AnalysisConfig, analyze
from repro.conflicts.verdict_cache import VerdictCache
from repro.conflicts.detector import DetectorConfig
from repro.conflicts.semantics import Verdict
from repro.replication.log import LoggedOp, PairKey, pair_key

__all__ = ["DecisionBackend", "InProcessBackend", "ServiceBackend"]


class DecisionBackend:
    """The classification contract a session drives."""

    #: Recorded in scenario results and benchmarks as the verdict source.
    source = "abstract"

    def classify(
        self, pairs: "list[tuple[LoggedOp, LoggedOp]]"
    ) -> dict[PairKey, Verdict]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any held connections; idempotent."""


class InProcessBackend(DecisionBackend):
    """Classify pairs with :func:`repro.analyze` in this process.

    Holds one :class:`VerdictCache` for its whole lifetime, so a long
    session pays for each distinct operation pair once no matter how
    many sync rounds revisit it.

    The default detector disables the exhaustive commutativity-witness
    search (``exhaustive_cap=None``): replication classifies many pairs
    per sync and only *certified* conflicts change behavior, so the
    heuristic witness pass (microseconds, finds the realistic conflict
    shapes) is the right latency/recall trade — the deep search costs
    seconds per unproven pair to usually still answer ``UNKNOWN``.
    Pass an explicit :class:`AnalysisConfig` to override.
    """

    source = "in-process"

    def __init__(self, config: AnalysisConfig | None = None) -> None:
        if config is None:
            config = AnalysisConfig(
                detector=DetectorConfig(exhaustive_cap=None)
            )
        if config.cache is None:
            config = replace(config, cache=VerdictCache())
        self.config = config

    def classify(
        self, pairs: "list[tuple[LoggedOp, LoggedOp]]"
    ) -> dict[PairKey, Verdict]:
        if not pairs:
            return {}
        catalogue = {}
        for first, second in pairs:
            catalogue.setdefault(first.op_id, first.op)
            catalogue.setdefault(second.op_id, second.op)
        decided = analyze(catalogue, mode="pairs", config=self.config)
        verdicts = {pair_key(a, b): verdict for a, b, verdict in decided}
        return {
            pair_key(first, second): verdicts[pair_key(first, second)]
            for first, second in pairs
        }


class ServiceBackend(DecisionBackend):
    """Classify pairs through a live conflict service.

    Accepts an existing :class:`~repro.service.client.ServiceClient` (or
    :class:`~repro.cluster.client.ClusterClient`), or builds one from
    ``host``/``port``.  Each pair is one ``POST /v1/check`` round-trip on
    the client's persistent connection; against a cluster front the
    payload-derived routing key spreads distinct pairs across shards.

    The default ``budget=0`` disables the server-side exhaustive witness
    search per request (mirroring :class:`InProcessBackend`'s tuned
    detector): the heuristic pass still certifies the realistic conflict
    shapes, and unproven pairs answer fast instead of burning a worker
    for seconds each.  Pass ``budget=None`` to accept the server's
    configured cap.
    """

    source = "service"

    def __init__(
        self,
        client=None,
        *,
        port: int | None = None,
        host: str = "127.0.0.1",
        deadline_ms: float | None = None,
        budget: int | None = 0,
    ) -> None:
        if client is None:
            if port is None:
                raise ValueError("ServiceBackend needs a client or a port")
            from repro.service.client import ServiceClient

            client = ServiceClient(port=port, host=host)
            self._owns_client = True
        else:
            self._owns_client = False
        self.client = client
        self.deadline_ms = deadline_ms
        self.budget = budget

    def classify(
        self, pairs: "list[tuple[LoggedOp, LoggedOp]]"
    ) -> dict[PairKey, Verdict]:
        out: dict[PairKey, Verdict] = {}
        for first, second in pairs:
            key = pair_key(first, second)
            if key in out:
                continue
            result = self.client.check(
                first.spec,
                second.spec,
                budget=self.budget,
                deadline_ms=self.deadline_ms,
            )
            out[key] = Verdict(result["verdict"])
        return out

    def close(self) -> None:
        if self._owns_client:
            self.client.close()
