"""``repro.cluster`` — shared-nothing serving cluster over one corpus.

The paper's answering pipeline is single-process by construction; this
package scales it across processes without sharing any mutable state::

                          clients
                             │  one public host:port
              ┌──────────────┼──────────────┐
              ▼              ▼              ▼        SO_REUSEPORT per
         ┌─────────┐    ┌─────────┐    ┌─────────┐   member (or one
         │member-0 │◀──▶│member-1 │◀──▶│member-2 │   shared listener,
         │ Session │    │ Session │    │ Session │   logged fallback)
         └────▲────┘    └────▲────┘    └────▲────┘
              │  internal ports: control ops + peer relays
              └──────────────┼──────────────┘
                     ┌───────┴────────┐
                     │ ClusterSupervisor │  place / tune / scrape /
                     │  + /cluster.json  │  respawn (synchronous)
                     └──────────────────┘

Every member owns a full :class:`repro.session.Session` over the same
corpus directory (and shares the persistent plan cache and snapshot
directory, so all members warm-start from one compile/parse).  Documents
are *owned* disjointly under a cost-aware placement
(:mod:`repro.cluster.placement`); whichever member accepts a client
connection coordinates that submission — local documents evaluate
in-process, remote groups relay to their owners, and a dead peer's share
is re-evaluated locally, so an accepted submission survives any single
member crash.  Per-member concurrency is AIMD-autotuned from windowed
queue-wait tails (:mod:`repro.cluster.autotune`).

Enable from :class:`repro.session.ServingPolicy` (``cluster_members``,
``placement``, ``autotune`` — or ``REPRO_CLUSTER_MEMBERS`` /
``REPRO_CLUSTER_PLACEMENT`` / ``REPRO_CLUSTER_AUTOTUNE``), or from the
CLI: ``repro-xpath serve cluster run CORPUS --members 4``.
"""

from repro.cluster.autotune import (
    AIMDController,
    DEFAULT_TARGET_P95,
    HistogramWindow,
    TuneDecision,
    WindowStats,
)
from repro.cluster.client import ClusterClientError, result_key, submit_retry
from repro.cluster.member import ClusterMember, MemberConfig, MemberProtocol, member_main
from repro.cluster.placement import (
    CostModel,
    DEFAULT_MOVE_BUDGET,
    PlacementPlan,
    STRATEGIES,
    greedy_partition,
    rebalance,
    round_robin_partition,
)
from repro.cluster.supervisor import (
    ClusterError,
    ClusterSupervisor,
    MemberHandle,
    UNREACHABLE_METRIC,
    control_request,
    merge_member_metrics,
    queue_wait_histogram,
)

__all__ = [
    "AIMDController",
    "ClusterClientError",
    "ClusterError",
    "ClusterMember",
    "ClusterSupervisor",
    "CostModel",
    "DEFAULT_MOVE_BUDGET",
    "DEFAULT_TARGET_P95",
    "HistogramWindow",
    "MemberConfig",
    "MemberHandle",
    "MemberProtocol",
    "PlacementPlan",
    "STRATEGIES",
    "TuneDecision",
    "UNREACHABLE_METRIC",
    "WindowStats",
    "control_request",
    "greedy_partition",
    "member_main",
    "merge_member_metrics",
    "queue_wait_histogram",
    "rebalance",
    "result_key",
    "round_robin_partition",
    "submit_retry",
]
