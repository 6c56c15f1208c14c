//! Set-associative write-back cache simulator.
//!
//! Models the Arm-A7 two-level hierarchy of the paper's host (L1-I/D 32 KiB,
//! shared L2 2 MiB). Only the data side is simulated explicitly; instruction
//! fetch energy is folded into the per-instruction constant (Table I:
//! 128 pJ/inst *including cache*). The hierarchy provides the two things the
//! evaluation depends on: miss-driven stall cycles for host run-time, and
//! the dirty-line count that prices the driver's cache flush before each
//! accelerator invocation (Section II-E).
//!
//! Each set is one row of `ways` packed entries kept in recency order, as
//! Cachegrind keeps its sets: valid entries first, most recently used
//! first, so the LRU victim is the last entry and an access's tag search
//! stops at the first invalid entry. Besides the scalar
//! [`Hierarchy::access`] the hierarchy has one bulk walk,
//! [`Hierarchy::access_block`], which classifies a constant-stride run at
//! line granularity: one tag lookup per distinct line instead of one per
//! scalar, with stats, recency order and victim choices identical to the
//! scalar loop (see `tests/bulk_access_props.rs`; `tests/lru_reference.rs`
//! checks the rows against a textbook LRU cache).

use std::fmt;

/// Geometry and policy of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry. Line size and set count
    /// must both be powers of two: in hardware the line offset and the
    /// set index are bit fields of the address, and the simulator splits
    /// an address with the same shifts and masks.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, a line size that
    /// is not a power of two of at least 4 bytes, a set count that is not
    /// a power of two, or capacity not divisible by `ways * line_bytes`).
    /// Any associativity works; a set of 4-byte lines still has room for
    /// a 62-bit tag and the valid and dirty bits in one `u64` entry.
    pub fn sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two() && self.line_bytes >= 4);
        assert!(self.ways >= 1, "a cache needs at least one way");
        let per_way = self.size_bytes / self.ways as u64;
        assert!(
            per_way.is_multiple_of(self.line_bytes) && per_way > 0,
            "cache capacity must divide evenly into ways of whole lines"
        );
        let sets = per_way / self.line_bytes;
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a power of two (the set index is a bit field): \
             {} B / {} ways / {} B lines gives {sets} sets",
            self.size_bytes,
            self.ways,
            self.line_bytes
        );
        sets as usize
    }
}

/// Hit/miss statistics of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction or flush.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when the cache was never accessed.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Outcome of a single line-granular cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; `writeback` reports whether a dirty victim was
    /// evicted to the next level.
    Miss {
        /// Dirty victim evicted.
        writeback: bool,
    },
}

/// One set-associative, write-back, write-allocate cache level with LRU
/// replacement.
pub struct Cache {
    cfg: CacheConfig,
    nsets: usize,
    ways: usize,
    /// `log2(line_bytes)`: address to line number.
    line_shift: u32,
    /// `log2(nsets)`: line number to tag.
    set_shift: u32,
    /// One row of `ways` entries per set, row-major by set, each row in
    /// recency order: valid entries first, most recently used first, then
    /// zeros. An entry packs `tag << 2 | VALID | DIRTY`.
    rows: Vec<u64>,
    stats: CacheStats,
    /// Incrementally maintained count of dirty lines, so the driver's
    /// per-invocation flush decision is O(1) instead of a full scan.
    dirty_count: u64,
}

/// Entry bit: the entry holds a line.
const VALID: u64 = 0b10;
/// Entry bit: the line it holds is dirty.
const DIRTY: u64 = 0b01;

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache").field("cfg", &self.cfg).field("stats", &self.stats).finish()
    }
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let nsets = cfg.sets();
        Cache {
            cfg,
            nsets,
            ways: cfg.ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: nsets.trailing_zeros(),
            rows: vec![0; nsets * cfg.ways],
            stats: CacheStats::default(),
            dirty_count: 0,
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics but keeps cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// `(set, tag)` of the line holding `addr`: bit fields of the line
    /// number, as [`CacheConfig::sets`] guarantees.
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & (self.nsets as u64 - 1)) as usize, line >> self.set_shift)
    }

    /// The recency row of `set`.
    fn row(&self, set: usize) -> &[u64] {
        &self.rows[set * self.ways..(set + 1) * self.ways]
    }

    /// Line number of the line at `set` holding `tag`.
    fn line_of(&self, set: usize, tag: u64) -> u64 {
        tag << self.set_shift | set as u64
    }

    /// `count` back-to-back accesses to the line containing `addr` — the
    /// burst a constant-stride run makes before moving to the next line.
    /// Returns the outcome of the *first* access; the remaining `count-1`
    /// are hits by construction. Recency order and stats end exactly as
    /// after `count` scalar [`Cache::access_line`] calls.
    ///
    /// The accessed line moves to the front of its set's row. A hit at
    /// position `p` rotates entries `0..=p` right by one; a miss does the
    /// same with the first invalid entry, or with the last (least
    /// recently used) entry of a full row, which it evicts.
    #[inline(always)]
    fn access_line_n(&mut self, addr: u64, write: bool, count: u64) -> LineOutcome {
        debug_assert!(count >= 1);
        let (set, tag) = self.index(addr);
        let want = tag << 2 | VALID;
        let row = &mut self.rows[set * self.ways..(set + 1) * self.ways];
        let last = row.len() - 1;
        let mut p = 0;
        let hit = loop {
            let e = row[p];
            if e & !DIRTY == want {
                break true;
            }
            if e & VALID == 0 || p == last {
                break false;
            }
            p += 1;
        };
        let e = row[p];
        // Hand-written shift: on rows of a few entries `copy_within`
        // compiles to a `memmove` call.
        while p > 0 {
            row[p] = row[p - 1];
            p -= 1;
        }
        let dirty = u64::from(write);
        if hit {
            row[0] = e | dirty;
            self.dirty_count += u64::from(write && e & DIRTY == 0);
            self.stats.hits += count;
            return LineOutcome::Hit;
        }
        row[0] = want | dirty;
        self.stats.misses += 1;
        self.stats.hits += count - 1;
        self.dirty_count += dirty;
        let writeback = e & (VALID | DIRTY) == VALID | DIRTY;
        if writeback {
            self.stats.writebacks += 1;
            self.dirty_count -= 1;
        }
        LineOutcome::Miss { writeback }
    }

    /// Accesses the line containing `addr`; `write` marks the line dirty.
    #[inline(always)]
    pub fn access_line(&mut self, addr: u64, write: bool) -> LineOutcome {
        self.access_line_n(addr, write, 1)
    }

    /// Returns whether the line containing `addr` is present (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        position(self.row(set), tag << 2 | VALID).is_some()
    }

    /// Invalidates the whole cache, returning `(valid_lines, dirty_lines)`.
    ///
    /// Dirty lines are counted as write-backs.
    pub fn flush_all(&mut self) -> (u64, u64) {
        let mut valid = 0;
        for row in self.rows.chunks_exact_mut(self.ways) {
            for e in row.iter_mut().take_while(|e| **e & VALID != 0) {
                *e = 0;
                valid += 1;
            }
        }
        let dirty = self.dirty_count;
        self.stats.writebacks += dirty;
        self.dirty_count = 0;
        (valid, dirty)
    }

    /// Removes the entry at position `p` of `set`'s row, shifting the
    /// entries behind it forward so the invalid ones stay at the end.
    /// Returns whether the removed line was dirty (a write-back).
    fn invalidate(&mut self, set: usize, mut p: usize) -> bool {
        let row = &mut self.rows[set * self.ways..(set + 1) * self.ways];
        let was_dirty = row[p] & DIRTY != 0;
        while p + 1 < row.len() && row[p + 1] & VALID != 0 {
            row[p] = row[p + 1];
            p += 1;
        }
        row[p] = 0;
        if was_dirty {
            self.stats.writebacks += 1;
            self.dirty_count -= 1;
        }
        was_dirty
    }

    /// Flushes (writes back + invalidates) all lines overlapping
    /// `[start, start+len)`, returning `(valid_lines, dirty_lines)` touched.
    /// A range that runs past the top of the address space ends there.
    ///
    /// When the range spans more line numbers than the cache can hold, the
    /// sets are swept once instead of iterating every line number in the
    /// range — a multi-MiB flush against a small cache costs one pass over
    /// the resident lines, not millions of empty lookups.
    pub fn flush_range(&mut self, start: u64, len: u64) -> (u64, u64) {
        if len == 0 {
            return (0, 0);
        }
        let mut valid = 0;
        let mut dirty = 0;
        let first = start >> self.line_shift;
        let last = start.saturating_add(len - 1) >> self.line_shift;
        if last - first >= (self.nsets * self.ways) as u64 {
            for set in 0..self.nsets {
                let mut p = 0;
                while p < self.ways {
                    let e = self.rows[set * self.ways + p];
                    if e & VALID == 0 {
                        break;
                    }
                    if (first..=last).contains(&self.line_of(set, e >> 2)) {
                        valid += 1;
                        dirty += u64::from(self.invalidate(set, p));
                    } else {
                        p += 1;
                    }
                }
            }
        } else {
            // Most probes land on empty sets; with the geometry in locals
            // each is a few instructions and one load. `last` is at most
            // `u64::MAX >> 2`, so the end cannot overflow.
            let (ways, set_mask, set_shift) = (self.ways, self.nsets as u64 - 1, self.set_shift);
            for lineno in first..last + 1 {
                let set = (lineno & set_mask) as usize;
                let row = &self.rows[set * ways..(set + 1) * ways];
                if let Some(p) = position(row, (lineno >> set_shift) << 2 | VALID) {
                    valid += 1;
                    dirty += u64::from(self.invalidate(set, p));
                }
            }
        }
        (valid, dirty)
    }

    /// Number of currently dirty lines (O(1), incrementally maintained).
    pub fn dirty_lines(&self) -> u64 {
        self.dirty_count
    }

    /// `(line_address, dirty)` of every resident line, sorted by address —
    /// for differential tests and diagnostics.
    pub fn resident_lines(&self) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        for set in 0..self.nsets {
            for &e in self.row(set).iter().take_while(|e| **e & VALID != 0) {
                let addr = self.line_of(set, e >> 2) << self.line_shift;
                out.push((addr, e & DIRTY != 0));
            }
        }
        out.sort_unstable();
        out
    }
}

/// Position of the entry holding the valid tag `want` in a recency row.
/// Probing an empty set (an invalid first entry) is one load, the common
/// case of a range flush; otherwise every entry is compared, since the
/// invalid ones are zeros and never match.
fn position(row: &[u64], want: u64) -> Option<usize> {
    if row[0] == 0 {
        return None;
    }
    row.iter().position(|&e| e & !DIRTY == want)
}

/// Number of leading elements of the run `addr, addr+stride, …` (at most
/// `remaining`) that fall on the line containing `addr`. A constant
/// stride is monotonic, so these are exactly the consecutive accesses the
/// line receives. Also used with `line_bytes = PAGE_BYTES` and
/// `FRAME_BYTES` to group a run into page and frame bursts, where an
/// element belongs to the unit holding its first byte. `line_bytes` is
/// a power of two ([`CacheConfig::sets`]), so the line offset is a mask;
/// a stride of a line or more leaves after one element, and a
/// power-of-two stride divides by shifting.
pub(crate) fn burst_len(addr: u64, line_bytes: u64, stride: i64, remaining: u64) -> u64 {
    if stride == 0 {
        return remaining;
    }
    debug_assert!(line_bytes.is_power_of_two());
    let step = stride.unsigned_abs();
    if step >= line_bytes {
        return 1.min(remaining);
    }
    let offset = addr & (line_bytes - 1);
    // Bytes the run can still advance within the line, then elements.
    let (span, round_up) = if stride > 0 { (line_bytes - offset, step - 1) } else { (offset, 0) };
    let k = if step.is_power_of_two() {
        (span + round_up) >> step.trailing_zeros()
    } else {
        (span + round_up) / step
    };
    let k = if stride > 0 { k } else { k + 1 };
    k.min(remaining)
}

/// Address of element `i` of the run `addr, addr + stride, …`.
pub(crate) fn run_addr(addr: u64, stride: i64, i: usize) -> u64 {
    addr.wrapping_add((i as i64).wrapping_mul(stride) as u64)
}

/// Where an access was satisfied in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Satisfied by L1.
    L1,
    /// Satisfied by L2.
    L2,
    /// Went to DRAM.
    Dram,
}

/// Latency parameters of the hierarchy, in CPU cycles (DRAM in nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemLatency {
    /// Extra cycles beyond the pipelined load on an L1 hit.
    pub l1_hit_cycles: u64,
    /// Cycles to reach L2 on an L1 miss.
    pub l2_hit_cycles: u64,
    /// Nanoseconds for a DRAM access on an L2 miss.
    pub dram_ns: f64,
}

impl Default for MemLatency {
    fn default() -> Self {
        // Arm-A7-class small core: pipelined L1, ~10-cycle L2, LPDDR3 DRAM.
        MemLatency { l1_hit_cycles: 0, l2_hit_cycles: 10, dram_ns: 100.0 }
    }
}

/// Outcome of a hierarchy access: where it hit and the stall cycles charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOutcome {
    /// Level that satisfied the access (worst level for multi-line runs).
    pub level: HitLevel,
    /// Stall cycles charged to the core.
    pub stall_cycles: u64,
}

/// Two-level data hierarchy: private L1-D backed by a shared L2.
#[derive(Debug)]
pub struct Hierarchy {
    /// Level-1 data cache.
    pub l1d: Cache,
    /// Shared level-2 cache.
    pub l2: Cache,
    /// Latency model.
    pub lat: MemLatency,
    freq_hz: f64,
}

impl Hierarchy {
    /// Creates a hierarchy from two cache configs and a latency model at the
    /// given core frequency.
    pub fn new(l1: CacheConfig, l2: CacheConfig, lat: MemLatency, freq_hz: f64) -> Self {
        Hierarchy { l1d: Cache::new(l1), l2: Cache::new(l2), lat, freq_hz }
    }

    fn dram_cycles(&self) -> u64 {
        (self.lat.dram_ns * 1e-9 * self.freq_hz).round() as u64
    }

    /// Performs a data access of `bytes` at `addr` (`write` = store).
    ///
    /// Accesses that straddle line boundaries touch every line involved; the
    /// outcome reports the *worst* level reached and total stall cycles.
    /// An access that runs past the top of the address space ends there.
    pub fn access(&mut self, addr: u64, bytes: u64, write: bool) -> AccessOutcome {
        let shift = self.l1d.line_shift;
        let first = addr >> shift;
        let last = if bytes == 0 { first } else { addr.saturating_add(bytes - 1) >> shift };
        let mut stall = 0;
        let mut worst = HitLevel::L1;
        for lineno in first..=last {
            self.line_access(lineno << shift, write, 1, &mut stall, &mut worst);
        }
        AccessOutcome { level: worst, stall_cycles: stall }
    }

    /// One line burst through both levels: `count` consecutive accesses to
    /// the L1 line containing `addr`, the L2 consulted on the first access
    /// exactly as [`Hierarchy::access`] does per scalar.
    fn line_access(
        &mut self,
        addr: u64,
        write: bool,
        count: u64,
        stall: &mut u64,
        worst: &mut HitLevel,
    ) {
        match self.l1d.access_line_n(addr, write, count) {
            LineOutcome::Hit => *stall += count * self.lat.l1_hit_cycles,
            LineOutcome::Miss { writeback } => {
                *stall += (count - 1) * self.lat.l1_hit_cycles;
                // L2 sees line-aligned traffic, as in the scalar path.
                let a = addr & !(self.l1d.config().line_bytes - 1);
                if writeback {
                    // Dirty victim written back into L2.
                    self.l2.access_line(a, true);
                }
                match self.l2.access_line(a, false) {
                    LineOutcome::Hit => {
                        *stall += self.lat.l2_hit_cycles;
                        if *worst == HitLevel::L1 {
                            *worst = HitLevel::L2;
                        }
                    }
                    LineOutcome::Miss { .. } => {
                        *stall += self.lat.l2_hit_cycles + self.dram_cycles();
                        *worst = HitLevel::Dram;
                    }
                }
            }
        }
    }

    /// Bulk access: `count` element accesses of `elem_bytes` at `start`,
    /// `start + stride`, … — classified at line granularity so each
    /// distinct line costs one tag lookup per level instead of one per
    /// scalar. Stats, recency order, victim choices and the returned stall
    /// total are identical to the scalar loop
    /// `for i in 0..count { access(start + i*stride, elem_bytes, write) }`.
    ///
    /// Runs whose elements may straddle a line boundary (element size not
    /// dividing the line size, or a start/stride not multiple of the
    /// element size) take that scalar loop verbatim instead.
    pub fn access_block(
        &mut self,
        start: u64,
        elem_bytes: u64,
        count: u64,
        stride: i64,
        write: bool,
    ) -> AccessOutcome {
        let mut stall = 0u64;
        let mut worst = HitLevel::L1;
        if count == 0 {
            return AccessOutcome { level: worst, stall_cycles: stall };
        }
        let lb = self.l1d.config().line_bytes;
        let aligned = elem_bytes >= 1
            && lb.is_multiple_of(elem_bytes)
            && start.is_multiple_of(elem_bytes)
            && stride.unsigned_abs().is_multiple_of(elem_bytes);
        if !aligned {
            // Straddle-capable scalar path.
            let mut addr = start;
            for _ in 0..count {
                let o = self.access(addr, elem_bytes, write);
                stall += o.stall_cycles;
                worst = worst_of(worst, o.level);
                addr = addr.wrapping_add(stride as u64);
            }
            return AccessOutcome { level: worst, stall_cycles: stall };
        }
        let mut done = 0u64;
        let mut addr = start;
        while done < count {
            let k = burst_len(addr, lb, stride, count - done);
            self.line_access(addr, write, k, &mut stall, &mut worst);
            addr = addr.wrapping_add((k as i64).wrapping_mul(stride) as u64);
            done += k;
        }
        AccessOutcome { level: worst, stall_cycles: stall }
    }

    /// Flushes both levels entirely, returning total `(valid, dirty)` lines.
    pub fn flush_all(&mut self) -> (u64, u64) {
        let (v1, d1) = self.l1d.flush_all();
        let (v2, d2) = self.l2.flush_all();
        (v1 + v2, d1 + d2)
    }

    /// Flushes the address range from both levels, returning `(valid, dirty)`.
    pub fn flush_range(&mut self, start: u64, len: u64) -> (u64, u64) {
        let (v1, d1) = self.l1d.flush_range(start, len);
        let (v2, d2) = self.l2.flush_range(start, len);
        (v1 + v2, d1 + d2)
    }
}

fn worst_of(a: HitLevel, b: HitLevel) -> HitLevel {
    use HitLevel::*;
    match (a, b) {
        (Dram, _) | (_, Dram) => Dram,
        (L2, _) | (_, L2) => L2,
        _ => L1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig { size_bytes: 512, line_bytes: 64, ways: 2 })
    }

    #[test]
    fn config_sets() {
        let cfg = CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 4 };
        assert_eq!(cfg.sets(), 128);
    }

    #[test]
    fn shift_mask_index_matches_division() {
        use crate::config::MachineConfig;
        let (default, small) = (MachineConfig::default(), MachineConfig::test_small());
        // xorshift64*, seeded: addresses across the whole 64-bit space.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for cfg in [default.l1d, default.l2, small.l1d, small.l2] {
            let c = Cache::new(cfg);
            let sets = cfg.sets() as u64;
            for _ in 0..10_000 {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                let addr = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
                let line = addr / cfg.line_bytes;
                assert_eq!(
                    c.index(addr),
                    ((line % sets) as usize, line / sets),
                    "{cfg:?} {addr:#x}"
                );
                let (set, tag) = c.index(addr);
                assert_eq!(c.line_of(set, tag), line);
            }
        }
    }

    #[test]
    fn burst_len_matches_division() {
        // The mask/shift burst length against the per-element walk.
        for stride in [-640i64, -64, -12, -8, -4, 4, 8, 12, 24, 48, 64, 100, 512] {
            for offset in (0..64).step_by(4) {
                let addr = 4096u64 + offset;
                let mut walk = 0;
                let mut a = addr;
                while walk < 40 && a / 64 == addr / 64 {
                    walk += 1;
                    a = a.wrapping_add(stride as u64);
                }
                assert_eq!(burst_len(addr, 64, stride, 40), walk, "stride {stride} at {addr}");
            }
        }
        assert_eq!(burst_len(4096, 64, 0, 40), 40);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small_cache();
        assert!(matches!(c.access_line(0, false), LineOutcome::Miss { writeback: false }));
        assert!(matches!(c.access_line(0, false), LineOutcome::Hit));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache();
        // Three tags mapping to set 0: line numbers 0, 4, 8 (4 sets).
        c.access_line(0, false);
        c.access_line(4 * 64, false);
        c.access_line(0, false); // refresh tag0
        c.access_line(8 * 64, false); // evicts tag at line 4
        assert!(c.probe(0));
        assert!(!c.probe(4 * 64));
        assert!(c.probe(8 * 64));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_cache();
        c.access_line(0, true);
        c.access_line(4 * 64, false);
        let out = c.access_line(8 * 64, false); // evicts dirty line 0
        assert!(matches!(out, LineOutcome::Miss { writeback: true }));
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn flush_all_counts_dirty() {
        let mut c = small_cache();
        c.access_line(0, true);
        c.access_line(64, false);
        let (valid, dirty) = c.flush_all();
        assert_eq!((valid, dirty), (2, 1));
        assert!(!c.probe(0));
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn flush_range_only_touches_range() {
        let mut c = small_cache();
        c.access_line(0, true);
        c.access_line(64, true);
        let (valid, dirty) = c.flush_range(0, 64);
        assert_eq!((valid, dirty), (1, 1));
        assert!(!c.probe(0));
        assert!(c.probe(64));
        assert_eq!(c.dirty_lines(), 1);
        assert_eq!(c.flush_range(0, 0), (0, 0));
    }

    #[test]
    fn huge_flush_range_sweeps_sets_once() {
        // Range of 1 GiB against a 512 B cache: takes the set sweep, and
        // returns exactly what the per-line walk would.
        let mut c = small_cache();
        c.access_line(0, true);
        c.access_line(64, false);
        c.access_line(1 << 31, true); // outside the flushed range
        let (valid, dirty) = c.flush_range(0, 1 << 30);
        assert_eq!((valid, dirty), (2, 1));
        assert!(!c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(1 << 31));
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn flush_range_saturates_at_the_top_of_the_address_space() {
        // The range runs 64 bytes past `u64::MAX`: it ends at the top
        // line, which must be written back, not wrapped around to 0.
        let mut c = small_cache();
        let top = u64::MAX - 63;
        c.access_line(top, true);
        assert_eq!(c.flush_range(top, 128), (1, 1));
        assert!(!c.probe(top));
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn dirty_lines_counter() {
        let mut c = small_cache();
        c.access_line(0, true);
        c.access_line(64, false);
        assert_eq!(c.dirty_lines(), 1);
        c.access_line(0, true); // re-dirtying is not double counted
        assert_eq!(c.dirty_lines(), 1);
        c.access_line(64, true);
        assert_eq!(c.dirty_lines(), 2);
    }

    #[test]
    fn resident_lines_reports_sorted_state() {
        let mut c = small_cache();
        c.access_line(8 * 64, true);
        c.access_line(0, false);
        assert_eq!(c.resident_lines(), vec![(0, false), (8 * 64, true)]);
    }

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(
            CacheConfig { size_bytes: 512, line_bytes: 64, ways: 2 },
            CacheConfig { size_bytes: 4096, line_bytes: 64, ways: 4 },
            MemLatency { l1_hit_cycles: 0, l2_hit_cycles: 10, dram_ns: 100.0 },
            1.0e9,
        )
    }

    #[test]
    fn hierarchy_miss_goes_to_dram_then_l2_then_l1() {
        let mut h = hierarchy();
        let o = h.access(0, 4, false);
        assert_eq!(o.level, HitLevel::Dram);
        assert_eq!(o.stall_cycles, 10 + 100);
        let o = h.access(0, 4, false);
        assert_eq!(o.level, HitLevel::L1);
        assert_eq!(o.stall_cycles, 0);
        // Evict from tiny L1 but keep in L2.
        for i in 1..=2u64 {
            h.access(i * 512, 4, false);
        }
        let o = h.access(0, 4, false);
        assert_eq!(o.level, HitLevel::L2);
        assert_eq!(o.stall_cycles, 10);
    }

    #[test]
    fn access_saturates_at_the_top_of_the_address_space() {
        // A 4-byte access at `u64::MAX - 1` runs past the top: it touches
        // the top line (a cold miss to DRAM), not an empty line range.
        let mut h = hierarchy();
        let o = h.access(u64::MAX - 1, 4, false);
        assert_eq!(o.level, HitLevel::Dram);
        assert_eq!(o.stall_cycles, 10 + 100);
        assert_eq!(h.l1d.stats().misses, 1);
        assert!(h.l1d.probe(u64::MAX));
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut h = hierarchy();
        let o = h.access(62, 4, false);
        assert_eq!(o.level, HitLevel::Dram);
        assert_eq!(o.stall_cycles, 2 * 110);
        assert_eq!(h.l1d.stats().misses, 2);
    }

    #[test]
    fn access_block_matches_scalar_loop() {
        for (start, count, stride, write) in [
            (0u64, 1024u64, 4i64, false),
            (128, 300, 4, true),
            (0, 64, 256, false),
            (8192, 33, -4, true),
        ] {
            let mut bulk = hierarchy();
            let mut scalar = hierarchy();
            let o = bulk.access_block(start, 4, count, stride, write);
            let mut stall = 0;
            let mut worst = HitLevel::L1;
            let mut addr = start;
            for _ in 0..count {
                let s = scalar.access(addr, 4, write);
                stall += s.stall_cycles;
                worst = worst_of(worst, s.level);
                addr = addr.wrapping_add(stride as u64);
            }
            assert_eq!(o.stall_cycles, stall, "{start} {count} {stride}");
            assert_eq!(o.level, worst, "{start} {count} {stride}");
            assert_eq!(bulk.l1d.stats(), scalar.l1d.stats());
            assert_eq!(bulk.l2.stats(), scalar.l2.stats());
            assert_eq!(bulk.l1d.resident_lines(), scalar.l1d.resident_lines());
            assert_eq!(bulk.l2.resident_lines(), scalar.l2.resident_lines());
        }
    }

    #[test]
    fn access_block_unaligned_takes_scalar_path() {
        // Elements at odd addresses can straddle lines: the block access
        // must still equal the scalar loop (which it takes verbatim).
        let mut bulk = hierarchy();
        let mut scalar = hierarchy();
        let o = bulk.access_block(61, 4, 16, 6, false);
        let mut stall = 0;
        for i in 0..16u64 {
            stall += scalar.access(61 + 6 * i, 4, false).stall_cycles;
        }
        assert_eq!(o.stall_cycles, stall);
        assert_eq!(bulk.l1d.stats(), scalar.l1d.stats());
    }

    #[test]
    fn hierarchy_flush() {
        let mut h = hierarchy();
        h.access(0, 4, true);
        let (valid, dirty) = h.flush_all();
        // Line present in both levels; dirty only in L1.
        assert_eq!(valid, 2);
        assert_eq!(dirty, 1);
    }

    #[test]
    fn miss_ratio() {
        let mut c = small_cache();
        c.access_line(0, false);
        c.access_line(0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
