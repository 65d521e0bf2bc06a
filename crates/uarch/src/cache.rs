//! A set-associative, write-back, write-allocate cache with LRU replacement.

use crate::LINE_BYTES;

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data or instruction read.
    Read,
    /// Data write (write-allocate: misses fill the line first).
    Write,
}

/// Victim-selection policy of a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (the default; what the paper-era
    /// Intel parts approximate).
    #[default]
    Lru,
    /// Evict the oldest-inserted way regardless of use (FIFO), as some
    /// embedded and older parts do.
    Fifo,
}

/// Geometry of one cache level.
///
/// # Example
///
/// ```
/// use advhunter_uarch::CacheConfig;
///
/// let l1 = CacheConfig::new(32 * 1024, 8);
/// assert_eq!(l1.num_sets(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: u64,
    ways: usize,
    policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Creates a configuration for a cache of `size_bytes` with `ways`
    /// associativity, LRU replacement, and the global 64-byte line size.
    ///
    /// # Panics
    ///
    /// Panics unless the resulting set count is a positive power of two.
    pub fn new(size_bytes: u64, ways: usize) -> Self {
        Self::with_policy(size_bytes, ways, ReplacementPolicy::Lru)
    }

    /// Like [`new`](Self::new) with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics unless the resulting set count is a positive power of two.
    pub fn with_policy(size_bytes: u64, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(
            size_bytes.is_multiple_of(LINE_BYTES * ways as u64),
            "size must be a multiple of ways * line size"
        );
        let sets = size_bytes / (LINE_BYTES * ways as u64);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        Self {
            size_bytes,
            ways,
            policy,
        }
    }

    /// The replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.ways as u64)
    }
}

/// What an access displaced, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// Nothing was displaced (hit, or fill into an empty way).
    None,
    /// A clean line was silently dropped.
    Clean,
    /// A dirty line must be written back; its base address is given.
    Dirty(u64),
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses.
    pub read_accesses: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write accesses.
    pub write_accesses: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
}

impl CacheStats {
    /// All accesses.
    pub fn accesses(&self) -> u64 {
        self.read_accesses + self.write_accesses
    }

    /// All misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss ratio in `[0, 1]`, or 0 if there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses() as f64
        }
    }
}

/// Packed line metadata: the tag lives in the low bits, VALID/DIRTY in the
/// top two. Tags are `line_addr / sets`, which for 64-bit byte addresses
/// fits in 58 bits with room to spare, so the packing is lossless.
const META_VALID: u64 = 1 << 63;
const META_DIRTY: u64 = 1 << 62;
const META_TAG: u64 = META_DIRTY - 1;

/// Routes to the access copy monomorphized on `(ways, policy)`. Common
/// associativities get fully unrolled scans (`0` = runtime way count); the
/// policy flag lets each copy skip the stamp array it never reads.
macro_rules! dispatch_geometry {
    ($self:ident, $method:ident, $($arg:expr),*) => {
        match ($self.config.policy, $self.config.ways) {
            (ReplacementPolicy::Lru, 2) => $self.$method::<2, false>($($arg),*),
            (ReplacementPolicy::Lru, 4) => $self.$method::<4, false>($($arg),*),
            (ReplacementPolicy::Lru, 8) => $self.$method::<8, false>($($arg),*),
            (ReplacementPolicy::Lru, 16) => $self.$method::<16, false>($($arg),*),
            (ReplacementPolicy::Lru, _) => $self.$method::<0, false>($($arg),*),
            (ReplacementPolicy::Fifo, 2) => $self.$method::<2, true>($($arg),*),
            (ReplacementPolicy::Fifo, 4) => $self.$method::<4, true>($($arg),*),
            (ReplacementPolicy::Fifo, 8) => $self.$method::<8, true>($($arg),*),
            (ReplacementPolicy::Fifo, 16) => $self.$method::<16, true>($($arg),*),
            (ReplacementPolicy::Fifo, _) => $self.$method::<0, true>($($arg),*),
        }
    };
}

/// One level of set-associative cache.
///
/// Addresses are byte addresses; the cache operates on 64-byte lines.
/// Internally the ways of a set are stored structure-of-arrays with packed
/// tag/valid/dirty words so the hit scan and victim scan compile to
/// branch-free compare/select loops.
///
/// # Example
///
/// ```
/// use advhunter_uarch::{AccessKind, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2));
/// assert!(!c.access(0x40, AccessKind::Read).0); // cold miss
/// assert!(c.access(0x40, AccessKind::Read).0);  // now a hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `num_sets - 1`: the set count is a power of two, so set selection is
    /// a mask and tag extraction a shift — no division on the access path.
    set_mask: u64,
    /// `log2(num_sets)`.
    tag_shift: u32,
    /// Packed `VALID | DIRTY | tag` per way, indexed `set * ways + way`,
    /// with each set's valid ways kept as a prefix ordered newest-first by
    /// policy age (last touch under LRU, fill under FIFO). The order IS the
    /// replacement state — no timestamps — so the victim is always the back
    /// of the prefix, and one 8-way set is a single 64-byte row.
    meta: Vec<u64>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        let total = (sets as usize) * config.ways();
        Self {
            config,
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            meta: vec![0; total],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Invalidates every line and clears statistics.
    pub fn reset(&mut self) {
        self.meta.fill(0);
        self.stats = CacheStats::default();
    }

    /// Performs one access; returns `(hit, eviction)`.
    ///
    /// A miss allocates the line (write-allocate for writes) and may evict
    /// the LRU line of the set; if that line was dirty its base address is
    /// reported so the caller can write it back to the next level.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> (bool, Eviction) {
        self.access_line(addr / LINE_BYTES, kind)
    }

    /// Accesses `lines` consecutive cache lines starting at the line
    /// containing `base_addr`, all with the same `kind`.
    ///
    /// Semantically identical to calling [`access`](Self::access) once per
    /// line in ascending order (both delegate to the same per-line inner
    /// loop), but without per-call dispatch overhead. Returns the number of
    /// misses; for every line, in access order, it appends to `follow_ups`
    /// the traffic the next cache level must absorb: on a miss the aligned
    /// line address with the access kind (the allocating fill), followed by
    /// the write-back address with [`AccessKind::Write`] if the fill
    /// displaced a dirty line.
    pub fn access_range(
        &mut self,
        base_addr: u64,
        lines: u64,
        kind: AccessKind,
        follow_ups: &mut Vec<(u64, AccessKind)>,
    ) -> u64 {
        dispatch_geometry!(self, access_range_ways, base_addr, lines, kind, follow_ups)
    }

    /// Accesses each `(byte address, kind)` in order — the batched form the
    /// next cache level uses to absorb a range's follow-up traffic.
    /// Equivalent to one [`access`](Self::access) per item; evictions out of
    /// this level go to DRAM, which is not modeled.
    pub fn access_list(&mut self, items: &[(u64, AccessKind)]) {
        dispatch_geometry!(self, access_list_ways, items)
    }

    fn access_list_ways<const W: usize, const FIFO: bool>(&mut self, items: &[(u64, AccessKind)]) {
        for &(addr, kind) in items {
            let _ = self.access_line_ways::<W, FIFO>(addr / LINE_BYTES, kind);
        }
    }

    /// The per-line access shared by [`access`](Self::access) and
    /// [`access_range`](Self::access_range). Dispatches to a copy
    /// monomorphized on the associativity (so the way scans fully unroll;
    /// the `0` instantiation reads the runtime way count) and on the
    /// replacement policy (so each copy touches only the stamp array its
    /// policy reads).
    fn access_line(&mut self, line_addr: u64, kind: AccessKind) -> (bool, Eviction) {
        dispatch_geometry!(self, access_line_ways, line_addr, kind)
    }

    /// [`access_range`](Self::access_range) with the geometry dispatch
    /// hoisted out of the per-line loop, so the whole loop body inlines and
    /// the set mask, tag shift, and statistics stay in registers.
    fn access_range_ways<const W: usize, const FIFO: bool>(
        &mut self,
        base_addr: u64,
        lines: u64,
        kind: AccessKind,
        follow_ups: &mut Vec<(u64, AccessKind)>,
    ) -> u64 {
        let base_line = base_addr / LINE_BYTES;
        let mut misses = 0;
        for i in 0..lines {
            let line_addr = base_line + i;
            let (hit, ev) = self.access_line_ways::<W, FIFO>(line_addr, kind);
            if !hit {
                misses += 1;
                follow_ups.push((line_addr * LINE_BYTES, kind));
            }
            if let Eviction::Dirty(victim_addr) = ev {
                follow_ups.push((victim_addr, AccessKind::Write));
            }
        }
        misses
    }

    #[inline(always)]
    fn access_line_ways<const W: usize, const FIFO: bool>(
        &mut self,
        line_addr: u64,
        kind: AccessKind,
    ) -> (bool, Eviction) {
        let ways = if W == 0 { self.config.ways() } else { W };
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.tag_shift;
        let base = set * ways;
        let row = &mut self.meta[base..base + ways];

        match kind {
            AccessKind::Read => self.stats.read_accesses += 1,
            AccessKind::Write => self.stats.write_accesses += 1,
        }

        // Hit scan: one packed compare per way with the dirty bit masked
        // out, collected into a bitmask (which vectorizes). Tags within a
        // set are unique, so at most one bit is set.
        let want = META_VALID | tag;
        let mut hit_mask = 0u32;
        for (w, &m) in row.iter().enumerate() {
            hit_mask |= u32::from(m & !META_DIRTY == want) << w;
        }
        if hit_mask != 0 {
            let hit_way = hit_mask.trailing_zeros() as usize;
            let dirty = if kind == AccessKind::Write {
                META_DIRTY
            } else {
                0
            };
            if FIFO {
                // A FIFO hit leaves the insertion order alone.
                row[hit_way] |= dirty;
            } else {
                // LRU: rotate the touched way to the front of the order.
                let line = row[hit_way] | dirty;
                row.copy_within(0..hit_way, 1);
                row[0] = line;
            }
            return (true, Eviction::None);
        }

        // Miss: count, then fill (write-allocate).
        match kind {
            AccessKind::Read => self.stats.read_misses += 1,
            AccessKind::Write => self.stats.write_misses += 1,
        }

        // Victim: the first invalid way (valid ways form a prefix), or the
        // back of the order when the set is full — the oldest line under
        // both policies.
        let valid = row.iter().filter(|&&m| m & META_VALID != 0).count();
        let (victim, evicted) = if valid < ways {
            (valid, Eviction::None)
        } else {
            let vm = row[ways - 1];
            let ev = if vm & META_DIRTY != 0 {
                self.stats.writebacks += 1;
                let victim_line_addr = ((vm & META_TAG) << self.tag_shift) | set as u64;
                Eviction::Dirty(victim_line_addr * LINE_BYTES)
            } else {
                Eviction::Clean
            };
            (ways - 1, ev)
        };

        let dirty = if kind == AccessKind::Write {
            META_DIRTY
        } else {
            0
        };
        // Insert the fill at the front of the order.
        row.copy_within(0..victim, 1);
        row[0] = META_VALID | dirty | tag;
        (false, evicted)
    }

    /// Number of currently valid lines (useful for occupancy assertions).
    pub fn valid_lines(&self) -> usize {
        self.meta.iter().filter(|&&m| m & META_VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B = 256B.
        Cache::new(CacheConfig::new(256, 2))
    }

    #[test]
    fn config_geometry() {
        let cfg = CacheConfig::new(32 * 1024, 8);
        assert_eq!(cfg.num_sets(), 64);
        assert_eq!(cfg.ways(), 8);
        assert_eq!(cfg.size_bytes(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_non_power_of_two_sets() {
        CacheConfig::new(3 * 64 * 2, 2); // 3 sets
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0, AccessKind::Read), (false, Eviction::None));
        assert_eq!(c.access(0, AccessKind::Read), (true, Eviction::None));
        assert_eq!(
            c.access(63, AccessKind::Read),
            (true, Eviction::None),
            "same line"
        );
        assert_eq!(
            c.access(64, AccessKind::Read),
            (false, Eviction::None),
            "next line"
        );
        assert_eq!(c.stats().read_accesses, 4);
        assert_eq!(c.stats().read_misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(); // 2 sets; lines 0, 2, 4 map to set 0 (line_addr % 2 == 0)
        c.access(0, AccessKind::Read); // line0: set0 way0
        c.access(2 * 64, AccessKind::Read); // set0 way1
        c.access(0, AccessKind::Read); // touch line0 -> line2 is LRU
        let (hit, ev) = c.access(4 * 64, AccessKind::Read); // evicts line2
        assert!(!hit);
        assert_eq!(ev, Eviction::Clean);
        assert!(c.access(0, AccessKind::Read).0, "line0 survived");
        assert!(!c.access(2 * 64, AccessKind::Read).0, "line2 evicted");
    }

    #[test]
    fn fifo_evicts_oldest_insertion_even_if_recently_used() {
        // 2 sets x 2 ways; lines 0, 2, 4 map to set 0.
        let mut c = Cache::new(CacheConfig::with_policy(256, 2, ReplacementPolicy::Fifo));
        c.access(0, AccessKind::Read); // insert line 0
        c.access(2 * 64, AccessKind::Read); // insert line 2
        c.access(0, AccessKind::Read); // touch line 0 (FIFO ignores this)
        c.access(4 * 64, AccessKind::Read); // must evict line 0 (oldest insert)
        assert!(
            !c.access(0, AccessKind::Read).0,
            "line 0 was evicted under FIFO"
        );
        // Under LRU the same sequence would keep line 0 (see
        // lru_evicts_least_recently_used above).
    }

    #[test]
    fn policies_differ_only_in_victim_choice() {
        let mut lru = Cache::new(CacheConfig::new(256, 2));
        let mut fifo = Cache::new(CacheConfig::with_policy(256, 2, ReplacementPolicy::Fifo));
        // A streaming pattern with no reuse: identical stats either way.
        for i in 0..64u64 {
            lru.access(i * 64, AccessKind::Read);
            fifo.access(i * 64, AccessKind::Read);
        }
        assert_eq!(lru.stats(), fifo.stats());
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.access(0, AccessKind::Write); // dirty line 0 in set 0
        c.access(2 * 64, AccessKind::Read); // fills way 1
        let (_, ev) = c.access(4 * 64, AccessKind::Read); // evicts dirty line 0
        assert_eq!(ev, Eviction::Dirty(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn dirty_eviction_reports_nonzero_set_and_tag_address() {
        let mut c = tiny(); // 2 sets x 2 ways; odd lines map to set 1.
        c.access(3 * 64, AccessKind::Write); // dirty line 3 in set 1
        c.access(5 * 64, AccessKind::Read); // fills way 1 of set 1
        let (_, ev) = c.access(7 * 64, AccessKind::Read); // evicts line 3
        assert_eq!(
            ev,
            Eviction::Dirty(3 * 64),
            "writeback address reconstructs tag AND set bits"
        );
    }

    #[test]
    fn fifo_dirty_eviction_reports_writeback_address() {
        let mut c = Cache::new(CacheConfig::with_policy(256, 2, ReplacementPolicy::Fifo));
        c.access(2 * 64, AccessKind::Write); // dirty line 2, set 0, oldest
        c.access(4 * 64, AccessKind::Read); // fills way 1 of set 0
        c.access(2 * 64, AccessKind::Write); // touch again; FIFO ignores it
        let (_, ev) = c.access(6 * 64, AccessKind::Read); // evicts line 2
        assert_eq!(ev, Eviction::Dirty(2 * 64));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fifo_write_hit_does_not_refresh_insertion_age() {
        let mut c = Cache::new(CacheConfig::with_policy(256, 2, ReplacementPolicy::Fifo));
        c.access(0, AccessKind::Read); // line 0 oldest
        c.access(2 * 64, AccessKind::Read);
        c.access(0, AccessKind::Write); // write hit: dirties, no re-insert
        let (_, ev) = c.access(4 * 64, AccessKind::Read);
        assert_eq!(ev, Eviction::Dirty(0), "line 0 still evicted first");
    }

    #[test]
    fn access_range_matches_single_access_loop() {
        let mut batched = tiny();
        let mut scalar = tiny();
        // Interleave ranges that wrap sets, alias, and mix kinds.
        let ranges = [
            (0u64, 6u64, AccessKind::Read),
            (2 * 64, 5, AccessKind::Write),
            (0, 3, AccessKind::Read),
            (7 * 64, 4, AccessKind::Write),
            (0, 0, AccessKind::Read), // empty range is a no-op
        ];
        let mut follow_ups = Vec::new();
        for (base, n, kind) in ranges {
            let mut expected = Vec::new();
            let mut misses = 0;
            for i in 0..n {
                let addr = base + i * LINE_BYTES;
                let (hit, ev) = scalar.access(addr, kind);
                if !hit {
                    misses += 1;
                    expected.push((addr, kind));
                }
                if let Eviction::Dirty(victim) = ev {
                    expected.push((victim, AccessKind::Write));
                }
            }
            follow_ups.clear();
            let got = batched.access_range(base, n, kind, &mut follow_ups);
            assert_eq!(got, misses);
            assert_eq!(follow_ups, expected);
            assert_eq!(batched.stats(), scalar.stats());
        }
    }

    #[test]
    fn write_allocate_fills_on_write_miss() {
        let mut c = tiny();
        assert!(!c.access(128, AccessKind::Write).0);
        assert_eq!(c.stats().write_misses, 1);
        assert!(
            c.access(128, AccessKind::Read).0,
            "write allocated the line"
        );
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.reset();
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.stats(), &CacheStats::default());
        assert!(!c.access(0, AccessKind::Read).0);
    }

    #[test]
    fn miss_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        for i in 0..100u64 {
            c.access(i * 64, AccessKind::Read);
        }
        let mr = c.stats().miss_rate();
        assert!((0.0..=1.0).contains(&mr));
        assert_eq!(
            mr, 1.0,
            "streaming over 100 distinct lines in a 4-line cache"
        );
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = tiny();
        for i in 0..32u64 {
            c.access(i * 64, AccessKind::Read);
        }
        assert_eq!(c.valid_lines(), 4, "2 sets x 2 ways");
    }
}
