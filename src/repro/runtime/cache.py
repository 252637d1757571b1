"""Set-associative data-cache simulator.

The VM feeds every heap access (field/element read and write, allocation
touch) through one of these.  The default geometry approximates the L1
data cache of the paper's SparcStation-class machine: 16 KiB, 32-byte
lines, 4-way, LRU.

Only hit/miss counting is modelled (no write buffers, no prefetch); that
is enough to expose the locality effects object inlining produces —
fewer distinct lines touched per logical access and unit-stride parallel
arrays.

**Attribution mode** (off by default): :meth:`CacheSimulator.enable_attribution`
attaches a :class:`LocalityStats` recorder, and callers may then tag each
``access``/``touch_range`` with a label ``(kind, class_name, field_name,
alloc_site)``.  The recorder keeps per-label hit/miss counters plus a
bucketed per-address miss heatmap, so a trace can say *which field at
which allocation site* produced the misses — the cachegrind/mprof-style
view of the locality wins object inlining claims.  Attribution never
changes hit/miss behaviour: it only observes, so cycle counts are
bit-identical with it on or off.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry of a simulated cache."""

    size_bytes: int = 16 * 1024
    line_bytes: int = 32
    associativity: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache parameters must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError("size must be a multiple of line_bytes * associativity")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(slots=True)
class CacheStats:
    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


#: Label family: ``(kind, class_name, field_name, alloc_site)``.
#: ``kind`` is one of ``"field"`` (object field), ``"inline_field"``
#: (inline-array element field through a view), ``"element"`` (plain array
#: element), or ``"alloc"`` (allocation touch).
AccessLabel = tuple

#: Fallback label for attribution-mode accesses that carry no label.
UNLABELED: AccessLabel = ("other", None, None, None)

#: Bound on trace-event payloads: label/heatmap summaries report at most
#: this many entries plus an explicit ``truncated`` count.
DEFAULT_TOP_K = 32


@dataclass(slots=True)
class LabelStats:
    """Hit/miss counters of one access label."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class LocalityStats:
    """Per-label and per-address-bucket cache attribution.

    One address bucket spans ``bucket_lines`` cache lines; the heatmap
    maps bucket index -> misses (and accesses), which is coarse enough to
    stay bounded on large heaps yet fine enough to show which structures
    the misses cluster on.
    """

    def __init__(self, config: CacheConfig, bucket_lines: int = 64) -> None:
        if bucket_lines <= 0:
            raise ValueError("bucket_lines must be positive")
        self.bucket_bytes = bucket_lines * config.line_bytes
        self.by_label: dict[AccessLabel, LabelStats] = {}
        self.bucket_misses: dict[int, int] = {}
        self.bucket_accesses: dict[int, int] = {}

    def record(
        self, label: AccessLabel, address: int, hit: bool, is_write: bool
    ) -> None:
        stats = self.by_label.get(label)
        if stats is None:
            stats = self.by_label[label] = LabelStats()
        if is_write:
            stats.writes += 1
            if not hit:
                stats.write_misses += 1
        else:
            stats.reads += 1
            if not hit:
                stats.read_misses += 1
        bucket = address // self.bucket_bytes
        self.bucket_accesses[bucket] = self.bucket_accesses.get(bucket, 0) + 1
        if not hit:
            self.bucket_misses[bucket] = self.bucket_misses.get(bucket, 0) + 1

    def reset(self) -> None:
        self.by_label.clear()
        self.bucket_misses.clear()
        self.bucket_accesses.clear()

    @property
    def attributed_misses(self) -> int:
        return sum(stats.misses for stats in self.by_label.values())

    # ------------------------------------------------------------------
    # Bounded summaries (trace-event payloads and harness results).

    def label_summary(self, top_k: int = DEFAULT_TOP_K) -> dict:
        """Top-``top_k`` labels by misses, with an explicit truncation count."""
        ranked = sorted(
            self.by_label.items(),
            key=lambda kv: (
                -kv[1].misses,
                -kv[1].accesses,
                tuple(str(part) for part in kv[0]),
            ),
        )
        labels = [
            {
                "kind": kind,
                "class": class_name,
                "field": field_name,
                "site": site,
                "reads": stats.reads,
                "writes": stats.writes,
                "misses": stats.misses,
                "accesses": stats.accesses,
                "miss_rate": round(stats.miss_rate, 6),
            }
            for (kind, class_name, field_name, site), stats in ranked[:top_k]
        ]
        return {
            "labels": labels,
            "total_labels": len(self.by_label),
            "truncated": max(0, len(self.by_label) - top_k),
        }

    def heatmap_summary(self, top_k: int = DEFAULT_TOP_K) -> dict:
        """Top-``top_k`` miss buckets (in address order), plus totals."""
        ranked = sorted(self.bucket_misses.items(), key=lambda kv: (-kv[1], kv[0]))
        buckets = [
            {
                "index": index,
                "base": index * self.bucket_bytes,
                "misses": misses,
                "accesses": self.bucket_accesses.get(index, 0),
            }
            for index, misses in sorted(ranked[:top_k])
        ]
        return {
            "bucket_bytes": self.bucket_bytes,
            "buckets": buckets,
            "total_buckets": len(self.bucket_accesses),
            "truncated": max(0, len(self.bucket_misses) - top_k),
            "total_misses": sum(self.bucket_misses.values()),
            "total_accesses": sum(self.bucket_accesses.values()),
        }


class CacheSimulator:
    """LRU set-associative cache with allocate-on-write-miss policy."""

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        # Geometry is read on every access; plain attributes, not the
        # config's derived properties.  line_bytes is a power of two.
        self.line_bytes = self.config.line_bytes
        self.num_sets = self.config.num_sets
        self.associativity = self.config.associativity
        self._line_shift = self.line_bytes.bit_length() - 1
        # Each set is an ordered list of the line numbers it holds (the
        # line number stands in for the tag); index 0 is most recent.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()
        #: Attribution recorder; ``None`` (the default) keeps the hot path
        #: at a single attribute load + None check, same spirit as
        #: ``NULL_TRACER``.
        self.locality: LocalityStats | None = None

    def enable_attribution(self, bucket_lines: int = 64) -> LocalityStats:
        """Attach (or return the existing) :class:`LocalityStats` recorder."""
        if self.locality is None:
            self.locality = LocalityStats(self.config, bucket_lines)
        return self.locality

    def access(
        self, address: int, is_write: bool = False, label: AccessLabel | None = None
    ) -> bool:
        """Touch ``address``; returns True on hit.

        ``label`` is only consulted when attribution is enabled; it never
        influences hit/miss behaviour or the aggregate counters.
        """
        line = address >> self._line_shift
        ways = self._sets[line % self.num_sets]
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        hit = line in ways
        if hit:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
        else:
            if is_write:
                stats.write_misses += 1
            else:
                stats.read_misses += 1
            ways.insert(0, line)
            if len(ways) > self.associativity:
                ways.pop()
        locality = self.locality
        if locality is not None:
            locality.record(label if label is not None else UNLABELED, address, hit, is_write)
        return hit

    def touch_range(
        self,
        address: int,
        size: int,
        is_write: bool = False,
        label: AccessLabel | None = None,
    ) -> int:
        """Touch every line in [address, address+size); returns miss count."""
        if size <= 0:
            return 0
        line = self.line_bytes
        start = address // line * line
        misses = 0
        for line_addr in range(start, address + size, line):
            if not self.access(line_addr, is_write, label):
                misses += 1
        return misses

    def flush(self) -> None:
        """Empty the cache *contents* — a cold-cache boundary.

        Statistics (aggregate and attribution) are deliberately kept:
        a phase transition that wants a cold cache but cumulative counters
        across phases (warmup -> measurement) calls ``flush()`` alone.
        The benchmark harness needs neither — every build runs on a fresh
        interpreter and therefore a fresh, cold cache.  To zero the
        counters use :meth:`reset_stats`.  The sets are emptied in place,
        so code holding the set list (the VM's compiled tier) sees the
        flush too.
        """
        for ways in self._sets:
            ways.clear()

    def reset_stats(self) -> None:
        """Zero the counters (aggregate and attribution) in place.

        Mutates the existing :class:`CacheStats` rather than replacing it,
        so aliases held elsewhere (``ExecutionStats.cache`` points at this
        object) keep reading the live counters.  Cache *contents* are
        untouched; combine with :meth:`flush` for a fully fresh phase.
        """
        stats = self.stats
        stats.reads = 0
        stats.writes = 0
        stats.read_misses = 0
        stats.write_misses = 0
        if self.locality is not None:
            self.locality.reset()
