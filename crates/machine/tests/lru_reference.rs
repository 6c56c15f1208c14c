//! The cache against a textbook LRU reference.
//!
//! `Cache` keeps each set as a row in recency order and never stores a
//! use time. The reference below is written from the definition of a
//! write-back, write-allocate LRU cache instead: per set a list of
//! `(line, dirty, last_use)` stamped from one access counter. A hit
//! restamps its line, a miss in a full set evicts the minimum `last_use`
//! (a write-back when dirty), and a flush removes the lines of its range,
//! a range that runs past `u64::MAX` ending there.
//!
//! Each case draws a geometry — 1, 2, 3, 4, 8 or 16 ways on 1, 2 or 4
//! sets, or one fully associative set of 96 ways, with 4-, 16- or 64-byte
//! lines, low in the address space or at its top — and a trace of
//! `access_line` reads and writes, `flush_range`, `flush_all` and
//! `probe` over about three times as many lines as the cache holds. After
//! every operation the outcome, `CacheStats`, `dirty_lines()` and
//! `resident_lines()` must equal the reference's.

use cim_machine::cache::{Cache, CacheConfig, CacheStats, LineOutcome};
use proptest::prelude::*;

/// Splits one sampled word into small fields (field order fixed so cases
/// reproduce from the reported inputs).
struct Fields(u64);

impl Fields {
    fn take(&mut self, bits: u32) -> u64 {
        let v = self.0 & ((1 << bits) - 1);
        self.0 >>= bits;
        v
    }
}

/// A textbook LRU cache: per set, `(line, dirty, last_use)` in any order.
struct Reference {
    sets: Vec<Vec<(u64, bool, u64)>>,
    ways: usize,
    line_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl Reference {
    fn new(cfg: CacheConfig) -> Self {
        Reference {
            sets: vec![Vec::new(); cfg.sets()],
            ways: cfg.ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn access_line(&mut self, addr: u64, write: bool) -> LineOutcome {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let nsets = self.sets.len() as u64;
        let set = &mut self.sets[(line % nsets) as usize];
        if let Some(entry) = set.iter_mut().find(|e| e.0 == line) {
            entry.1 |= write;
            entry.2 = self.clock;
            self.stats.hits += 1;
            return LineOutcome::Hit;
        }
        self.stats.misses += 1;
        let mut writeback = false;
        if set.len() == self.ways {
            let lru = (0..set.len()).min_by_key(|&i| set[i].2).expect("a full set");
            writeback = set.swap_remove(lru).1;
            self.stats.writebacks += u64::from(writeback);
        }
        set.push((line, write, self.clock));
        LineOutcome::Miss { writeback }
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        self.sets.iter().flatten().any(|e| e.0 == line)
    }

    /// Removes every line `flushed` selects: `(lines, dirty lines)`.
    fn flush(&mut self, flushed: impl Fn(u64) -> bool) -> (u64, u64) {
        let (mut valid, mut dirty) = (0, 0);
        for set in &mut self.sets {
            set.retain(|&(line, d, _)| {
                let out = flushed(line);
                valid += u64::from(out);
                dirty += u64::from(out && d);
                !out
            });
        }
        self.stats.writebacks += dirty;
        (valid, dirty)
    }

    fn flush_range(&mut self, start: u64, len: u64) -> (u64, u64) {
        if len == 0 {
            return (0, 0);
        }
        let end = (u128::from(start) + u128::from(len) - 1).min(u128::from(u64::MAX)) as u64;
        let (first, last) = (start >> self.line_shift, end >> self.line_shift);
        self.flush(|line| (first..=last).contains(&line))
    }

    fn dirty_lines(&self) -> u64 {
        self.sets.iter().flatten().filter(|e| e.1).count() as u64
    }

    fn resident_lines(&self) -> Vec<(u64, bool)> {
        let mut out: Vec<_> =
            self.sets.iter().flatten().map(|e| (e.0 << self.line_shift, e.1)).collect();
        out.sort_unstable();
        out
    }
}

/// Decodes a geometry and the first line of the address window.
fn geometry(seed: u64) -> (CacheConfig, u64) {
    let mut f = Fields(seed);
    let (ways, sets) = match f.take(3) % 7 {
        6 => (96, 1), // fully associative, wider than a 64-bit mask
        w => ([1, 2, 3, 4, 8, 16][w as usize], 1 << (f.take(2) % 3)),
    };
    let line_bytes = [4u64, 16, 64][(f.take(2) % 3) as usize];
    let cfg = CacheConfig { size_bytes: sets * ways as u64 * line_bytes, line_bytes, ways };
    let window = 3 * sets * ways as u64;
    let base = if f.take(2) == 0 {
        // The window's last line is the top line of the address space.
        (u64::MAX >> line_bytes.trailing_zeros()) + 1 - window
    } else {
        0
    };
    (cfg, base)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192 })]

    /// `Cache` and the textbook reference, operation by operation.
    #[test]
    fn recency_rows_match_textbook_lru(
        seed in 0u64..u64::MAX,
        words in collection::vec(0u64..u64::MAX, 16..256),
    ) {
        let (cfg, base) = geometry(seed);
        let window = 3 * cfg.size_bytes / cfg.line_bytes;
        let shift = cfg.line_bytes.trailing_zeros();
        let mut cache = Cache::new(cfg);
        let mut reference = Reference::new(cfg);
        for w in words {
            let mut f = Fields(w);
            let op = f.take(4);
            let addr = ((base + f.take(16) % window) << shift) + f.take(8) % cfg.line_bytes;
            match op {
                0..=9 => {
                    let write = f.take(1) == 1;
                    prop_assert_eq!(
                        cache.access_line(addr, write),
                        reference.access_line(addr, write)
                    );
                }
                10 | 11 => prop_assert_eq!(cache.probe(addr), reference.probe(addr)),
                12..=14 => {
                    // Up to twice the window, so some flushes take the
                    // set sweep; now and then a range that runs past the
                    // top of the address space.
                    let len = if f.take(3) == 0 {
                        u64::MAX - f.take(8)
                    } else {
                        ((f.take(16) % (2 * window)) << shift) + f.take(8) % cfg.line_bytes
                    };
                    prop_assert_eq!(
                        cache.flush_range(addr, len),
                        reference.flush_range(addr, len)
                    );
                }
                _ => prop_assert_eq!(cache.flush_all(), reference.flush(|_| true)),
            }
            prop_assert_eq!(cache.stats(), reference.stats);
            prop_assert_eq!(cache.dirty_lines(), reference.dirty_lines());
            prop_assert_eq!(cache.resident_lines(), reference.resident_lines());
        }
    }
}
