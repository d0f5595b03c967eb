"""Set-associative caches and a data TLB for the simulated machine.

These produce the cache/TLB miss event signals (``L1D_MISS``, ``L1I_MISS``,
``L2_MISS``, ``TLB_DM``) that several PAPI presets map to, and they supply
the miss *penalties* that make instrumented code measurably perturb the
application (the paper's "cache pollution" observation: counter-interface
code evicts application lines, changing the memory behaviour of the code
being measured).

Replacement policy is strict LRU.  Lookups operate on *line indices*
(byte address >> line-size bits); the caller does the shifting so the hot
path stays arithmetic-free.  Each set is a most-recently-used-last list,
and a hit on its last or second-to-last entry costs O(1): moving the
second-MRU entry to MRU is a swap of the last two entries, exactly what
the general ``remove`` + ``append`` does.  On the paper's tables, hits
deeper than that are about 1% of accesses or fewer.  The data TLB is a
one-set :class:`Cache`, so the same rule serves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``size_bytes`` must equal ``n_sets * assoc * line_bytes`` with power of
    two sets and line size.
    """

    name: str
    size_bytes: int
    line_bytes: int
    assoc: int

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_bytes):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if self.assoc < 1:
            raise ValueError(f"{self.name}: associativity must be >= 1")
        if self.size_bytes % (self.line_bytes * self.assoc) != 0:
            raise ValueError(
                f"{self.name}: size must be a multiple of line_bytes * assoc"
            )
        if not _is_pow2(self.n_sets):
            raise ValueError(f"{self.name}: number of sets must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    @property
    def line_bits(self) -> int:
        return self.line_bytes.bit_length() - 1


class Cache:
    """One level of set-associative cache with LRU replacement.

    The cache is indexed by *line index* (address pre-shifted by the line
    size); each set is a most-recently-used-last list of line indices.
    """

    __slots__ = ("config", "_sets", "_set_mask", "_assoc", "hits", "misses")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: List[List[int]] = [[] for _ in range(config.n_sets)]
        self._set_mask = config.n_sets - 1
        self._assoc = config.assoc
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def access(self, line: int) -> bool:
        """Access *line*; returns True on hit.  Misses allocate the line.

        MRU and second-MRU hits are O(1); only deeper hits scan the set.
        """
        ways = self._sets[line & self._set_mask]
        if ways:
            if ways[-1] == line:
                self.hits += 1
                return True
            if len(ways) > 1 and ways[-2] == line:
                ways[-2] = ways[-1]
                ways[-1] = line
                self.hits += 1
                return True
            if line in ways:
                # LRU update: move to most-recently-used position.
                ways.remove(line)
                ways.append(line)
                self.hits += 1
                return True
            if len(ways) >= self._assoc:
                del ways[0]
        self.misses += 1
        ways.append(line)
        return False

    def probe(self, line: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        return line in self._sets[line & self._set_mask]

    def evict(self, line: int) -> bool:
        """Remove *line* if present (used to model interface cache pollution)."""
        ways = self._sets[line & self._set_mask]
        if line in ways:
            ways.remove(line)
            return True
        return False

    def flush(self) -> None:
        """Invalidate all lines (statistics are retained).

        Sets are cleared in place: compiled code and the hierarchy's hit
        checks hold references to the set lists.
        """
        for ways in self._sets:
            ways.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def contents(self) -> List[Tuple[int, List[int]]]:
        """Snapshot of non-empty sets, LRU..MRU order (for tests)."""
        return [(i, list(w)) for i, w in enumerate(self._sets) if w]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {len(self._sets)}set/{self._assoc}way "
            f"hits={self.hits} misses={self.misses}>"
        )


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of the data TLB (fully associative, LRU)."""

    entries: int
    page_bytes: int

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError("TLB must have at least one entry")
        if not _is_pow2(self.page_bytes):
            raise ValueError("page size must be a power of two")

    @property
    def page_bits(self) -> int:
        return self.page_bytes.bit_length() - 1


class TLB(Cache):
    """Fully associative translation lookaside buffer with LRU replacement.

    A one-set :class:`Cache` of page numbers (``access(page)``); its
    ``config`` stays the :class:`TLBConfig`.
    """

    __slots__ = ()

    def __init__(self, config: TLBConfig) -> None:
        super().__init__(CacheConfig(
            "TLB", size_bytes=config.entries * config.page_bytes,
            line_bytes=config.page_bytes, assoc=config.entries,
        ))
        self.config = config

    def resident(self) -> List[int]:
        """Pages currently mapped, LRU..MRU order (for tests)."""
        return list(self._sets[0])


@dataclass(frozen=True)
class HierarchyConfig:
    """The full memory hierarchy of one simulated platform."""

    l1d: CacheConfig
    l1i: CacheConfig
    l2: CacheConfig
    tlb: TLBConfig
    l2_latency: int = 8          #: extra cycles on an L1 miss / L2 hit
    mem_latency: int = 60        #: extra cycles on an L2 miss
    tlb_walk_latency: int = 24   #: extra cycles on a data TLB miss

    def __post_init__(self) -> None:
        if min(self.l2_latency, self.mem_latency, self.tlb_walk_latency) < 0:
            raise ValueError("latencies must be non-negative")


def default_hierarchy() -> HierarchyConfig:
    """A small, miss-prone hierarchy suitable for fast simulation.

    Sized so that the standard workloads (arrays of a few thousand words)
    overflow L1 but mostly fit in L2, giving realistic mixed hit/miss
    behaviour at simulation-friendly scales.
    """
    return HierarchyConfig(
        l1d=CacheConfig("L1D", size_bytes=4096, line_bytes=32, assoc=2),
        l1i=CacheConfig("L1I", size_bytes=4096, line_bytes=32, assoc=2),
        l2=CacheConfig("L2", size_bytes=65536, line_bytes=64, assoc=4),
        tlb=TLBConfig(entries=16, page_bytes=4096),
    )


class MemoryHierarchy:
    """L1D + L1I + unified L2 + data TLB wired together.

    Returns the incurred latency for each access so the CPU can charge
    stall cycles; raises the corresponding signal counts via the counts
    array handed in by the CPU (kept decoupled so the hierarchy is
    testable standalone).
    """

    __slots__ = ("config", "l1d", "l1i", "l2", "tlb", "_l1d_shift", "_l1i_shift",
                 "_l2_shift", "_page_shift", "_tlb_ways", "_l1d_sets",
                 "_l1d_mask")

    def __init__(self, config: Optional[HierarchyConfig] = None) -> None:
        self.config = config or default_hierarchy()
        self.l1d = Cache(self.config.l1d)
        self.l1i = Cache(self.config.l1i)
        self.l2 = Cache(self.config.l2)
        self.tlb = TLB(self.config.tlb)
        self._l1d_shift = self.config.l1d.line_bits
        self._l1i_shift = self.config.l1i.line_bits
        self._l2_shift = self.config.l2.line_bits
        self._page_shift = self.config.tlb.page_bits
        # the set lists, for data_access's inline MRU / second-MRU hit
        # checks (flush clears them in place).
        self._tlb_ways = self.tlb._sets[0]
        self._l1d_sets = self.l1d._sets
        self._l1d_mask = self.l1d._set_mask

    @property
    def l2_line_bytes(self) -> int:
        """Line size of the shared L2 -- the uncore transfer unit.

        Every L2 miss moves one full line across the socket's memory
        interface, so bandwidth components convert line-fill counts to
        bytes with this geometry constant.
        """
        return self.config.l2.line_bytes

    def uncore_lines_in(self) -> int:
        """Lines filled into the shared L2 (socket-scoped, all CPUs).

        The hierarchy is shared by every CPU, so this total is placement
        invariant: migrating a thread changes which CPU misses, not how
        many lines cross the memory interface.
        """
        return self.l2.misses

    def data_access(self, byte_addr: int) -> Tuple[int, bool, bool, bool]:
        """One data access at *byte_addr*.

        Returns ``(latency, l1_miss, l2_miss, tlb_miss)`` where latency is
        the stall penalty in cycles beyond the base instruction latency.
        TLB and L1D hits on the MRU or second-MRU entry are taken inline,
        by the rule of :meth:`Cache.access`; every other access goes
        through it.  These two checks are the rule's only copies: data
        accesses are most of a table's memory calls, while fetches from
        compiled code take their own MRU check and ``inst_fetch`` just
        calls :meth:`Cache.access`.
        """
        latency = 0
        tlb_miss = False
        page = byte_addr >> self._page_shift
        ways = self._tlb_ways
        if ways and ways[-1] == page:
            self.tlb.hits += 1
        elif len(ways) > 1 and ways[-2] == page:
            ways[-2] = ways[-1]
            ways[-1] = page
            self.tlb.hits += 1
        elif not self.tlb.access(page):
            tlb_miss = True
            latency = self.config.tlb_walk_latency
        line = byte_addr >> self._l1d_shift
        ways = self._l1d_sets[line & self._l1d_mask]
        if ways and ways[-1] == line:
            self.l1d.hits += 1
            return latency, False, False, tlb_miss
        if len(ways) > 1 and ways[-2] == line:
            ways[-2] = ways[-1]
            ways[-1] = line
            self.l1d.hits += 1
            return latency, False, False, tlb_miss
        if self.l1d.access(line):
            return latency, False, False, tlb_miss
        latency += self.config.l2_latency
        l2_miss = not self.l2.access(byte_addr >> self._l2_shift)
        if l2_miss:
            latency += self.config.mem_latency
        return latency, True, l2_miss, tlb_miss

    def inst_fetch(self, byte_addr: int) -> Tuple[int, bool, bool]:
        """One instruction fetch.  Returns ``(latency, l1i_miss, l2_miss)``."""
        latency = 0
        l1_miss = not self.l1i.access(byte_addr >> self._l1i_shift)
        l2_miss = False
        if l1_miss:
            latency += self.config.l2_latency
            l2_miss = not self.l2.access(byte_addr >> self._l2_shift)
            if l2_miss:
                latency += self.config.mem_latency
        return latency, l1_miss, l2_miss

    # -- access summaries (block-engine replay support) ------------------
    #
    # A steady-state loop iteration whose every access *hits* leaves the
    # LRU state of all levels unchanged (each touched line/page returns to
    # the MRU position it already held), so k identical iterations are
    # equivalent to bulk-adding k times the iteration's hit counts.  The
    # block engine proves the all-hit property with a trial iteration and
    # then applies the summary below.

    def hit_snapshot(self) -> Tuple[int, int, int, int]:
        """Hit counters of (l1d, l1i, l2, tlb) for delta bookkeeping."""
        return (self.l1d.hits, self.l1i.hits, self.l2.hits, self.tlb.hits)

    def stats_snapshot(self) -> Tuple[int, ...]:
        """All hit/miss counters, for equivalence tests and diagnostics."""
        return (
            self.l1d.hits, self.l1d.misses,
            self.l1i.hits, self.l1i.misses,
            self.l2.hits, self.l2.misses,
            self.tlb.hits, self.tlb.misses,
        )

    def replay_hits(self, l1d: int, l1i: int, l2: int, tlb: int) -> None:
        """Bulk-apply an all-hit access summary (replayed iterations).

        Only statistics move: by the fixed-point argument above, the LRU
        state after k all-hit iterations equals the state after one.
        """
        self.l1d.hits += l1d
        self.l1i.hits += l1i
        self.l2.hits += l2
        self.tlb.hits += tlb

    def pollute(self, byte_addrs) -> None:
        """Touch *byte_addrs* as data accesses without recording statistics.

        Models the cache pollution caused by counter-interface code: the
        lines it touches evict application lines, but the interface's own
        hits/misses are not application events (the simulated PMU does not
        count in "kernel" domain by default).
        """
        hits, misses = self.l1d.hits, self.l1d.misses
        l2h, l2m = self.l2.hits, self.l2.misses
        th, tm = self.tlb.hits, self.tlb.misses
        for addr in byte_addrs:
            self.data_access(addr)
        self.l1d.hits, self.l1d.misses = hits, misses
        self.l2.hits, self.l2.misses = l2h, l2m
        self.tlb.hits, self.tlb.misses = th, tm

    def flush(self) -> None:
        self.l1d.flush()
        self.l1i.flush()
        self.l2.flush()
        self.tlb.flush()

    def reset_stats(self) -> None:
        self.l1d.reset_stats()
        self.l1i.reset_stats()
        self.l2.reset_stats()
        self.tlb.reset_stats()
