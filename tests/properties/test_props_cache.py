"""Property-based tests: cache and TLB invariants.

``TestLRUReference`` pins the one LRU rule -- ``Cache.access``, the TLB
built on it and the inline hit checks in ``MemoryHierarchy.data_access``
-- against a reference model of the plain list rule (``in``,
``remove``, ``append``, evict ``[0]``), on streams biased toward the MRU
and second-MRU re-touches the O(1) paths serve.
"""

import functools

from hypothesis import given, settings, strategies as st

from repro.hw.cache import (
    Cache,
    CacheConfig,
    MemoryHierarchy,
    TLB,
    TLBConfig,
    default_hierarchy,
)
from repro.platforms import PLATFORM_NAMES, create

lines = st.lists(st.integers(min_value=0, max_value=4095), min_size=1,
                 max_size=300)
geometries = st.sampled_from([
    (1, 4), (2, 4), (4, 2), (1, 16), (8, 1), (2, 16),
])


def make_cache(assoc, sets):
    return Cache(CacheConfig("P", 32 * assoc * sets, 32, assoc))


class TestCacheProperties:
    @given(lines, geometries)
    @settings(max_examples=60)
    def test_hits_plus_misses_equals_accesses(self, addrs, geom):
        c = make_cache(*geom)
        for a in addrs:
            c.access(a)
        assert c.hits + c.misses == len(addrs)

    @given(lines, geometries)
    @settings(max_examples=60)
    def test_capacity_never_exceeded(self, addrs, geom):
        assoc, sets = geom
        c = make_cache(assoc, sets)
        for a in addrs:
            c.access(a)
        for _set_idx, ways in c.contents():
            assert len(ways) <= assoc

    @given(lines, geometries)
    @settings(max_examples=60)
    def test_distinct_lines_bound_misses_below(self, addrs, geom):
        """At least one miss per distinct line (cold misses are mandatory)."""
        c = make_cache(*geom)
        for a in addrs:
            c.access(a)
        assert c.misses >= len(set(addrs))

    @given(lines)
    @settings(max_examples=60)
    def test_fully_assoc_lru_matches_reference_model(self, addrs):
        """1-set LRU cache == textbook LRU stack simulation."""
        assoc = 4
        c = make_cache(assoc, 1)
        stack = []  # LRU..MRU
        for a in addrs:
            hit_model = a in stack
            if hit_model:
                stack.remove(a)
            elif len(stack) == assoc:
                stack.pop(0)
            stack.append(a)
            assert c.access(a) == hit_model

    @given(lines, geometries)
    @settings(max_examples=40)
    def test_immediate_reaccess_always_hits(self, addrs, geom):
        c = make_cache(*geom)
        for a in addrs:
            c.access(a)
            assert c.probe(a)

    @given(lines, geometries)
    @settings(max_examples=40)
    def test_repeating_a_trace_never_increases_misses(self, addrs, geom):
        """Second identical pass cannot miss more than the first."""
        c = make_cache(*geom)
        for a in addrs:
            c.access(a)
        first_misses = c.misses
        c.reset_stats()
        for a in addrs:
            c.access(a)
        assert c.misses <= first_misses


class TestTLBProperties:
    pages = st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                     max_size=200)

    @given(pages, st.integers(min_value=1, max_value=16))
    @settings(max_examples=60)
    def test_residency_bounded(self, pages, entries):
        t = TLB(TLBConfig(entries=entries, page_bytes=4096))
        for p in pages:
            t.access(p)
        assert len(t.resident()) <= entries

    @given(pages, st.integers(min_value=1, max_value=16))
    @settings(max_examples=60)
    def test_mru_always_resident(self, pages, entries):
        t = TLB(TLBConfig(entries=entries, page_bytes=4096))
        for p in pages:
            t.access(p)
            assert t.resident()[-1] == p

    @given(pages)
    @settings(max_examples=40)
    def test_infinite_tlb_misses_once_per_page(self, pages):
        t = TLB(TLBConfig(entries=1024, page_bytes=4096))
        for p in pages:
            t.access(p)
        assert t.misses == len(set(pages))


# ----------------------------------------------------------------------
# the LRU rule against a reference model
# ----------------------------------------------------------------------


class RefCache:
    """The reference LRU rule: scan, remove + append, evict the head."""

    def __init__(self, n_sets, assoc):
        self.sets = [[] for _ in range(n_sets)]
        self.mask = n_sets - 1
        self.assoc = assoc
        self.hits = 0
        self.misses = 0

    def access(self, line):
        ways = self.sets[line & self.mask]
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.assoc:
            del ways[0]
        ways.append(line)
        return False

    def evict(self, line):
        ways = self.sets[line & self.mask]
        if line in ways:
            ways.remove(line)
            return True
        return False

    def flush(self):
        for ways in self.sets:
            ways.clear()

    def contents(self):
        return [(i, list(w)) for i, w in enumerate(self.sets) if w]


def ref_cache(cfg):
    return RefCache(cfg.n_sets, cfg.assoc)


class RefHierarchy:
    """MemoryHierarchy's access rules over reference caches."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.l1d = ref_cache(cfg.l1d)
        self.l1i = ref_cache(cfg.l1i)
        self.l2 = ref_cache(cfg.l2)
        self.tlb = RefCache(1, cfg.tlb.entries)

    def data_access(self, addr):
        cfg = self.cfg
        latency = 0
        tlb_miss = not self.tlb.access(addr >> cfg.tlb.page_bits)
        if tlb_miss:
            latency += cfg.tlb_walk_latency
        l1_miss = not self.l1d.access(addr >> cfg.l1d.line_bits)
        l2_miss = False
        if l1_miss:
            latency += cfg.l2_latency
            l2_miss = not self.l2.access(addr >> cfg.l2.line_bits)
            if l2_miss:
                latency += cfg.mem_latency
        return latency, l1_miss, l2_miss, tlb_miss

    def inst_fetch(self, addr):
        cfg = self.cfg
        latency = 0
        l1_miss = not self.l1i.access(addr >> cfg.l1i.line_bits)
        l2_miss = False
        if l1_miss:
            latency += cfg.l2_latency
            l2_miss = not self.l2.access(addr >> cfg.l2.line_bits)
            if l2_miss:
                latency += cfg.mem_latency
        return latency, l1_miss, l2_miss

    def caches(self):
        return (self.l1d, self.l1i, self.l2, self.tlb)

    def stats_snapshot(self):
        return tuple(x for c in self.caches() for x in (c.hits, c.misses))

    def pollute(self, addrs):
        saved = [(c.hits, c.misses) for c in self.caches()]
        for addr in addrs:
            self.data_access(addr)
        for c, (h, m) in zip(self.caches(), saved):
            c.hits, c.misses = h, m

    def flush(self):
        for c in self.caches():
            c.flush()


@functools.lru_cache(maxsize=None)
def platform_hierarchies():
    """The six platforms' hierarchies (1-8 ways, 32-128 TLB entries)
    plus the default one (16 TLB entries)."""
    cfgs = [create(name).machine.config.hierarchy for name in PLATFORM_NAMES]
    return [default_hierarchy()] + cfgs


#: step kinds: re-touch the MRU, second-MRU or a deeper entry of a
#: resident set, touch a new line, evict a resident line, or flush.
REF_KINDS = ["mru", "second", "deep", "new", "evict", "flush"]
REF_WEIGHTS = [6, 6, 3, 5, 1, 1]


def weighted(kinds, weights):
    return st.sampled_from([k for k, w in zip(kinds, weights) for _ in range(w)])


ref_steps = st.lists(
    st.tuples(
        weighted(REF_KINDS, REF_WEIGHTS),
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=0, max_value=2**10),
    ),
    min_size=30,
    max_size=100,
)


def pick_resident(ref, kind, a, b):
    """A concrete line for a recency-relative step, from *ref*'s state:
    the MRU, the second-MRU or a deeper entry of an occupied set."""
    occupied = [w for w in ref.sets if w]
    if kind == "new" or not occupied:
        return a
    ways = occupied[a % len(occupied)]
    if kind == "mru" or len(ways) == 1:
        return ways[-1]
    if kind == "second" or len(ways) == 2:
        return ways[-2]
    return ways[b % (len(ways) - 2)]


def drive_level(cache, ref, steps, span):
    for kind, a, b in steps:
        if kind == "flush":
            cache.flush()
            ref.flush()
        elif kind == "evict":
            line = pick_resident(ref, "deep", a, b)
            assert cache.evict(line) == ref.evict(line)
        else:
            line = pick_resident(ref, kind, a % span, b)
            assert cache.access(line) == ref.access(line)
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
        assert cache.contents() == ref.contents()


#: hierarchy step kinds: data accesses re-touching the latest, second
#: latest or an older data address (exactly, or a few words away), new
#: data addresses, instruction fetches, and the interleaved evict /
#: flush / pollute.
HIER_KINDS = ["d_mru", "d_second", "d_deep", "d_near", "d_new", "i_mru",
              "i_second", "i_new", "evict", "flush", "pollute"]
HIER_WEIGHTS = [4, 8, 3, 4, 5, 2, 2, 2, 1, 1, 1]

hier_steps = st.lists(
    st.tuples(
        weighted(HIER_KINDS, HIER_WEIGHTS),
        st.integers(min_value=0, max_value=2**22),
        st.integers(min_value=0, max_value=2**10),
    ),
    min_size=30,
    max_size=80,
)


def _new_addr(a, b):
    """Half the new addresses sit on a 1 KB grid over 64 KB, so they
    share L1/L2 sets (every platform's set stride is a multiple of 1 KB)
    and a few pages; the rest spread over 4 MB."""
    if b % 2:
        return (a % 64) * 1024 + 8 * (b % 8)
    return a


def _recent(hist, kind, a, b):
    """Byte address for a recency-relative step over *hist* (MRU last)."""
    if kind.endswith("new") or not hist:
        return _new_addr(a, b)
    if kind.endswith("mru"):
        return hist[-1]
    if kind.endswith("second"):
        return hist[-2] if len(hist) > 1 else hist[-1]
    if kind == "d_near":
        return hist[-1 - b % min(len(hist), 2)] + 8 * (b % 16)
    return hist[-1 - b % len(hist)]


def _touch(hist, addr):
    if addr in hist:
        hist.remove(addr)
    hist.append(addr)
    del hist[:-32]


def drive_hierarchy(h, ref, steps):
    data_hist, inst_hist = [], []
    for kind, a, b in steps:
        if kind == "flush":
            h.flush()
            ref.flush()
        elif kind == "evict":
            cache, rcache = [(h.l1d, ref.l1d), (h.l1i, ref.l1i), (h.l2, ref.l2),
                             (h.tlb, ref.tlb)][b % 4]
            line = pick_resident(rcache, "deep", a, b)
            assert cache.evict(line) == rcache.evict(line)
        elif kind == "pollute":
            # up to 159 lines or pages: enough to overflow a 128-entry TLB
            stride = (64, 1024, 8192)[b % 3]
            addrs = [a + stride * i for i in range(b // 3 % 160)]
            h.pollute(addrs)
            ref.pollute(addrs)
        elif kind.startswith("d_"):
            addr = _recent(data_hist, kind, a, b)
            assert h.data_access(addr) == ref.data_access(addr)
            _touch(data_hist, addr)
        else:
            addr = _recent(inst_hist, kind, a, b)
            assert h.inst_fetch(addr) == ref.inst_fetch(addr)
            _touch(inst_hist, addr)
        assert h.stats_snapshot() == ref.stats_snapshot()
        assert h.l1d.contents() == ref.l1d.contents()
        assert h.l1i.contents() == ref.l1i.contents()
        assert h.l2.contents() == ref.l2.contents()
        assert h.tlb.resident() == ref.tlb.sets[0]


class TestLRUReference:
    """No per-test example count: these follow the active hypothesis
    profile (100 examples by default, 500 in the nightly job)."""

    @given(ref_steps, geometries)
    def test_cache_matches_reference(self, steps, geom):
        assoc, sets = geom
        c = make_cache(assoc, sets)
        drive_level(c, RefCache(sets, assoc), steps, span=3 * assoc * sets)

    @given(ref_steps, st.sampled_from([1, 2, 3, 16, 32, 64, 128]))
    def test_tlb_matches_reference(self, steps, entries):
        t = TLB(TLBConfig(entries=entries, page_bytes=4096))
        ref = RefCache(1, entries)
        drive_level(t, ref, steps, span=entries + 8)
        assert t.resident() == ref.sets[0]

    @given(hier_steps, st.integers(min_value=0, max_value=6))
    def test_hierarchy_matches_reference(self, steps, which):
        cfg = platform_hierarchies()[which]
        drive_hierarchy(MemoryHierarchy(cfg), RefHierarchy(cfg), steps)
