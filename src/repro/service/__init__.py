"""Schedule compilation service -- the run-time face of compiled
communication.

The paper's premise is that connection scheduling happens **once**,
off-line, and is reused at run time.  This package turns the compiler
into exactly that: a service whose compiled schedules are
content-addressed, persistent, servable artifacts.

* :mod:`repro.service.canonical` -- pattern canonicalization under
  torus translation symmetry, so shifted/relabelled instances of the
  same pattern collapse to one cache entry;
* :mod:`repro.service.cache` -- a two-tier (in-process LRU + on-disk)
  content-addressed artifact store with atomic writes;
* :mod:`repro.service.compile` -- the synchronous compile core gluing
  canonicalization, the scheduler registry and the cache together;
* :mod:`repro.service.server` / :mod:`repro.service.client` -- an
  asyncio batch compile server with in-flight request deduplication,
  plus its client (async, with a blocking driver);
* :mod:`repro.service.wire` -- the one frame codec on every service
  connection: a JSON header line plus a canonical-JSON payload line,
  encoded and hashed once;
* :mod:`repro.service.specs` -- JSON topology specs (the wire format
  naming a topology in a compile request);
* :mod:`repro.service.errors` -- the typed failure taxonomy every
  caller sees (``error_type`` on the wire, exit codes in the CLI);
* :mod:`repro.service.policy` -- retry/backoff, circuit-breaker and
  server admission/deadline policies;
* :mod:`repro.service.chaos` -- the fault-injecting proxy and
  kill-mid-write crash harness (``repro-tdm chaos``);
* :mod:`repro.service.protect` -- single-fault protection artifacts
  (precomputed backup configuration sets), cached and canonicalized
  like schedules (``repro-tdm protect``);
* :mod:`repro.service.amend` -- epoch-numbered incremental compilation
  (the ``amend`` verb): open a stream, push add/remove updates, each
  epoch's schedule stored as a first-class cache entry with digest
  lineage back to its root (``repro-tdm amend``);
* :mod:`repro.service.farm` -- the distributed compile farm: N nodes
  behind a shard router, artifacts routed by canonical pattern digest
  over a consistent-hash ring, replicated with read repair, and
  rebalanced onto survivors when a node dies (``repro-tdm farm``).
"""

from repro.service.amend import (
    AmendRegistry,
    AmendStream,
    amend_epoch_digest,
    amend_root_digest,
)
from repro.service.cache import ArtifactCache, CacheStats
from repro.service.canonical import (
    CanonicalPattern,
    canonicalize,
    translation_group,
)
from repro.service.compile import (
    CompileResult,
    compile_pattern,
    verify_artifact,
)
from repro.service.client import AsyncCompileClient, CompileClient
from repro.service.errors import (
    CircuitOpen,
    EpochConflict,
    Overloaded,
    ProtocolError,
    ServerError,
    ServiceError,
    ServiceTimeout,
    TransportError,
    WrongShard,
)
from repro.service.farm import (
    AsyncFarmClient,
    Farm,
    FarmNodeServer,
    HashRing,
    ShardMap,
    ShardRouter,
)
from repro.service.protect import (
    ProtectResult,
    protect_pattern,
    verify_protection,
)
from repro.service.policy import (
    CircuitBreaker,
    RetryPolicy,
    ServerPolicy,
    request_digest,
)
from repro.service.server import CompileServer
from repro.service.specs import topology_from_spec, topology_to_spec

__all__ = [
    "AmendRegistry",
    "AmendStream",
    "ArtifactCache",
    "AsyncCompileClient",
    "AsyncFarmClient",
    "CacheStats",
    "CanonicalPattern",
    "CircuitBreaker",
    "CircuitOpen",
    "CompileClient",
    "CompileResult",
    "CompileServer",
    "EpochConflict",
    "Farm",
    "FarmNodeServer",
    "HashRing",
    "Overloaded",
    "ProtectResult",
    "ProtocolError",
    "RetryPolicy",
    "ServerError",
    "ServerPolicy",
    "ServiceError",
    "ServiceTimeout",
    "ShardMap",
    "ShardRouter",
    "TransportError",
    "WrongShard",
    "amend_epoch_digest",
    "amend_root_digest",
    "canonicalize",
    "compile_pattern",
    "protect_pattern",
    "request_digest",
    "verify_protection",
    "topology_from_spec",
    "topology_to_spec",
    "translation_group",
    "verify_artifact",
]
