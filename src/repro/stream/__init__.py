"""repro.stream — out-of-core, sharded telemetry with a memory budget.

``repro simulate --log-shards`` streams the console log straight to
whole-line-aligned disk shards (:func:`write_shards`) instead of
joining one giant string; readers verify each shard against the
manifest digest and hold one shard at a time.  The artifact cache
persists its console layer in the same manifest format, and both sides
build and check a shard's record with :meth:`ShardInfo.of` and
:meth:`ShardInfo.matches`.  See docs/PERFORMANCE.md ("Memory").
"""

from repro.stream.shards import (
    DEFAULT_SHARD_LINES,
    MANIFEST_NAME,
    ShardCorruption,
    ShardInfo,
    ShardManifest,
    iter_shard_payloads,
    iter_shard_texts,
    read_manifest,
    reassemble_text,
    verify_shards,
    write_shards,
)

__all__ = [
    "DEFAULT_SHARD_LINES",
    "MANIFEST_NAME",
    "ShardCorruption",
    "ShardInfo",
    "ShardManifest",
    "iter_shard_payloads",
    "iter_shard_texts",
    "read_manifest",
    "reassemble_text",
    "verify_shards",
    "write_shards",
]
