//! Sharding plan: how a GEMM's block grid maps onto the physical tiles.
//!
//! The stationary operand `op(A)` is partitioned into `ceil(k / rows) x
//! ceil(m / cols)` blocks. On a single tile the micro-engine used to walk
//! those blocks serially, reprogramming the crossbar between them; with a
//! `(gk, gm)` tile grid it instead processes them in *waves* of up to
//! `gk * gm` blocks, one block per physical tile. Within a wave all tiles
//! hold their block simultaneously: a streamed `B` column fans out across
//! the `gm` output lanes, the `gk` reduction lanes fire in parallel, and
//! the digital block sums the partial columns before the single
//! read-modify-write of `C` — "accumulate partial columns instead of
//! serializing crossbar views".
//!
//! The planner here is the single source of truth for that decomposition.
//! Its one consumer is the cost walk of [`crate::estimate`], which the
//! micro-engine ([`crate::engine`]) and the estimator both run, so a
//! command and its estimate follow the same plan by construction.

use cim_machine::units::SimTime;

/// Pipelined clock of one wave's install phase: block DMA gathers
/// serialize *per channel* while row programming runs in parallel
/// across the wave's tiles, so the phase ends when the last tile whose
/// DMA completed also finishes programming. With one channel (the
/// default) every gather queues on the same modeled bus — the paper's
/// behavior; with `c` channels a wave's gathers on distinct tiles
/// overlap (each tile's traffic lands on channel `tile mod c`). The
/// install timing of the cost walk ([`crate::estimate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct InstallClock {
    dma_clocks: Vec<SimTime>,
    finish: SimTime,
}

impl InstallClock {
    /// A clock with `channels` independent DMA channels.
    ///
    /// # Panics
    ///
    /// Panics when `channels` is zero.
    pub fn with_channels(channels: usize) -> Self {
        assert!(channels > 0, "install clock needs at least one DMA channel");
        InstallClock { dma_clocks: vec![SimTime::ZERO; channels], finish: SimTime::ZERO }
    }

    /// Accounts one block install whose gather queues on `channel`
    /// (`dma_t` bus time, then `program_t` of row programming on that
    /// block's tile). Returns the time the block's DMA completes — when
    /// its tile starts programming.
    ///
    /// # Panics
    ///
    /// Panics when `channel` is out of range.
    pub fn add_on(&mut self, channel: usize, dma_t: SimTime, program_t: SimTime) -> SimTime {
        let clock = &mut self.dma_clocks[channel];
        *clock += dma_t;
        self.finish = self.finish.max(*clock + program_t);
        *clock
    }

    /// Duration of the whole install phase (zero if nothing installed).
    pub fn finish(&self) -> SimTime {
        self.finish
    }
}

/// A rectangular sub-array of the physical tile grid, in grid-lane
/// coordinates: `origin = (k_lane, m_lane)`, `shape = (gk, gm)`. Commands
/// dispatched to disjoint regions occupy disjoint tiles and can run
/// concurrently; [`partition_grid`] plans such a decomposition for a
/// batch of independent kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridRegion {
    /// First `(k_lane, m_lane)` covered.
    pub origin: (usize, usize),
    /// Lanes covered along each axis.
    pub shape: (usize, usize),
}

impl GridRegion {
    /// The region covering the whole `grid`.
    pub fn full(grid: (usize, usize)) -> Self {
        GridRegion { origin: (0, 0), shape: grid }
    }

    /// Number of physical tiles in the region.
    pub fn tiles(&self) -> usize {
        self.shape.0 * self.shape.1
    }

    /// Packs the region into a context-register word: four 16-bit lanes
    /// `(origin_k, origin_m, shape_k, shape_m)`. The all-zero word (a
    /// freshly reset register file) decodes back to the full grid, so
    /// hosts that never write [`crate::regs::Reg::Region`] keep the
    /// historical whole-grid behavior.
    pub fn encode(&self) -> u64 {
        ((self.origin.0 as u64) << 48)
            | ((self.origin.1 as u64) << 32)
            | ((self.shape.0 as u64) << 16)
            | self.shape.1 as u64
    }

    /// Decodes a [`GridRegion::encode`] word against the physical `grid`,
    /// clamping out-of-range values so a malformed register can never
    /// address tiles that do not exist. A zero shape decodes to the full
    /// grid.
    pub fn decode(word: u64, grid: (usize, usize)) -> GridRegion {
        let shape = (((word >> 16) & 0xffff) as usize, (word & 0xffff) as usize);
        if shape.0 == 0 || shape.1 == 0 {
            return GridRegion::full(grid);
        }
        let origin = (
            (word >> 48) as usize % grid.0.max(1),
            ((word >> 32) & 0xffff) as usize % grid.1.max(1),
        );
        GridRegion {
            origin,
            shape: (shape.0.min(grid.0 - origin.0), shape.1.min(grid.1 - origin.1)),
        }
    }

    /// Whether two regions share any physical tile.
    pub fn overlaps(&self, other: &GridRegion) -> bool {
        let disjoint_k = self.origin.0 + self.shape.0 <= other.origin.0
            || other.origin.0 + other.shape.0 <= self.origin.0;
        let disjoint_m = self.origin.1 + self.shape.1 <= other.origin.1
            || other.origin.1 + other.shape.1 <= self.origin.1;
        !(disjoint_k || disjoint_m)
    }
}

/// Partitions a `(gk, gm)` tile grid into up to `count` disjoint
/// [`GridRegion`]s, one per concurrent command of a batch. The planner
/// picks the `(pk, pm)` split with the most regions not exceeding
/// `count`, tie-broken toward square regions, and balances ragged lane
/// counts so no region is more than one lane wider than another. A
/// `(1, 1)` grid (the paper's single tile) always yields one full-grid
/// region — the serial schedule.
///
/// Deterministic: the same inputs always produce the same partition, so
/// an estimate plans a batch exactly as the engine runs it.
///
/// # Panics
///
/// Panics if the grid has a zero axis.
pub fn partition_grid(grid: (usize, usize), count: usize) -> Vec<GridRegion> {
    let (gk, gm) = grid;
    assert!(gk > 0 && gm > 0, "degenerate grid");
    let want = count.max(1).min(gk * gm);
    let mut best = (1usize, 1usize);
    for pk in 1..=gk {
        for pm in 1..=gm {
            let n = pk * pm;
            if n > want {
                continue;
            }
            let better = n > best.0 * best.1
                || (n == best.0 * best.1 && pk.abs_diff(pm) < best.0.abs_diff(best.1));
            if better {
                best = (pk, pm);
            }
        }
    }
    let (pk, pm) = best;
    let k_chunks = balance(gk, pk);
    let m_chunks = balance(gm, pm);
    let mut regions = Vec::with_capacity(pk * pm);
    for &(k0, klen) in &k_chunks {
        for &(m0, mlen) in &m_chunks {
            regions.push(GridRegion { origin: (k0, m0), shape: (klen, mlen) });
        }
    }
    regions
}

/// Splits `total` lanes into `parts` contiguous chunks whose sizes differ
/// by at most one.
fn balance(total: usize, parts: usize) -> Vec<(usize, usize)> {
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut at = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push((at, len));
        at += len;
    }
    out
}

/// One block span along a single axis, pinned to a grid lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First element covered (in the K or M dimension).
    pub start: usize,
    /// Number of elements covered (at most the tile's rows or cols).
    pub len: usize,
    /// Physical grid coordinate along this axis.
    pub lane: usize,
}

/// One wave: the cross product of its K-spans and M-spans, each block on
/// the physical tile `(k_span.lane, m_span.lane)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wave {
    /// Reduction-axis spans active in this wave (parallel grid rows).
    pub k_spans: Vec<Span>,
    /// Output-axis spans active in this wave (parallel grid columns).
    pub m_spans: Vec<Span>,
    /// Whether this wave covers `k = 0` — it then owns the `beta`
    /// handling; later waves over the same M-spans accumulate into `C`.
    pub first_k: bool,
}

impl Wave {
    /// Number of physical tiles active in this wave.
    pub fn tiles_active(&self) -> usize {
        self.k_spans.len() * self.m_spans.len()
    }
}

fn partition(total: usize, chunk: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut at = 0;
    while at < total {
        let len = chunk.min(total - at);
        spans.push((at, len));
        at += len;
    }
    spans
}

/// Plans the wave schedule for an `m x k` stationary operand on tiles of
/// `rows x cols` arranged in a `grid = (gk, gm)` array. M-waves are the
/// outer loop and K-waves the inner loop, mirroring the single-tile block
/// walk; a `(1, 1)` grid therefore degenerates to exactly the historical
/// one-block-per-wave schedule.
///
/// # Panics
///
/// Panics if any geometry component is zero.
pub fn plan_waves(rows: usize, cols: usize, grid: (usize, usize), m: usize, k: usize) -> Vec<Wave> {
    assert!(rows > 0 && cols > 0 && grid.0 > 0 && grid.1 > 0, "degenerate geometry");
    let k_blocks = partition(k, rows);
    let m_blocks = partition(m, cols);
    let mut waves = Vec::new();
    for mw in m_blocks.chunks(grid.1) {
        for (wi, kw) in k_blocks.chunks(grid.0).enumerate() {
            waves.push(Wave {
                k_spans: kw
                    .iter()
                    .enumerate()
                    .map(|(lane, &(start, len))| Span { start, len, lane })
                    .collect(),
                m_spans: mw
                    .iter()
                    .enumerate()
                    .map(|(lane, &(start, len))| Span { start, len, lane })
                    .collect(),
                first_k: wi == 0,
            });
        }
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_clock_single_channel_serializes() {
        let mut c = InstallClock::with_channels(1);
        let dma = SimTime::from_ns(10.0);
        let prog = SimTime::from_ns(100.0);
        // Two blocks: DMAs queue back to back, programming overlaps.
        assert_eq!(c.add_on(0, dma, prog), dma);
        assert_eq!(c.add_on(0, dma, prog), dma * 2.0);
        assert_eq!(c.finish(), dma * 2.0 + prog);
    }

    #[test]
    fn install_clock_channels_overlap_gathers() {
        // Same two blocks on two channels: both DMAs run concurrently,
        // so the phase ends one DMA + one program after it starts.
        let dma = SimTime::from_ns(10.0);
        let prog = SimTime::from_ns(100.0);
        let mut c = InstallClock::with_channels(2);
        assert_eq!(c.add_on(0, dma, prog), dma);
        assert_eq!(c.add_on(1, dma, prog), dma);
        assert_eq!(c.finish(), dma + prog);
        // A third block reuses channel 0 and queues behind its gather.
        assert_eq!(c.add_on(0, dma, prog), dma * 2.0);
        assert_eq!(c.finish(), dma * 2.0 + prog);
    }

    #[test]
    #[should_panic(expected = "at least one DMA channel")]
    fn install_clock_rejects_zero_channels() {
        let _ = InstallClock::with_channels(0);
    }

    #[test]
    fn single_tile_grid_replays_block_walk() {
        // 20x20 operand on 8x8 tiles: 3x3 blocks, one per wave, K inner.
        let waves = plan_waves(8, 8, (1, 1), 20, 20);
        assert_eq!(waves.len(), 9);
        assert!(waves.iter().all(|w| w.tiles_active() == 1));
        // First M-block sees K-waves 0, 8, 16 in order.
        let k_starts: Vec<usize> = waves[..3].iter().map(|w| w.k_spans[0].start).collect();
        assert_eq!(k_starts, vec![0, 8, 16]);
        assert!(waves[0].first_k);
        assert!(!waves[1].first_k);
        // All blocks land on lane (0, 0).
        assert!(waves.iter().all(|w| w.k_spans[0].lane == 0 && w.m_spans[0].lane == 0));
    }

    #[test]
    fn full_grid_collapses_to_one_wave() {
        let waves = plan_waves(8, 8, (2, 2), 16, 16);
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].tiles_active(), 4);
        assert!(waves[0].first_k);
        let lanes: Vec<usize> = waves[0].k_spans.iter().map(|s| s.lane).collect();
        assert_eq!(lanes, vec![0, 1]);
    }

    #[test]
    fn ragged_edges_shrink_spans() {
        let waves = plan_waves(8, 8, (2, 2), 12, 20);
        // K: 8 + 8 + 4 over 2 lanes -> two K-waves; M: 8 + 4 in one wave.
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0].k_spans.len(), 2);
        assert_eq!(waves[1].k_spans.len(), 1);
        assert_eq!(waves[1].k_spans[0], Span { start: 16, len: 4, lane: 0 });
        assert_eq!(waves[0].m_spans[1], Span { start: 8, len: 4, lane: 1 });
        assert!(!waves[1].first_k);
    }

    #[test]
    fn partition_grid_is_disjoint_and_covers() {
        for (grid, count) in
            [((2, 2), 4), ((2, 2), 3), ((4, 1), 4), ((1, 4), 2), ((3, 3), 5), ((2, 3), 100)]
        {
            let regions = partition_grid(grid, count);
            assert!(!regions.is_empty());
            assert!(regions.len() <= count, "grid {grid:?} count {count}");
            let covered: usize = regions.iter().map(GridRegion::tiles).sum();
            for (i, a) in regions.iter().enumerate() {
                for b in &regions[i + 1..] {
                    assert!(!a.overlaps(b), "{a:?} vs {b:?}");
                }
            }
            assert!(covered <= grid.0 * grid.1);
            // Every lane belongs to some region (full coverage).
            let owned = |k: usize, m: usize| {
                regions.iter().any(|r| {
                    (r.origin.0..r.origin.0 + r.shape.0).contains(&k)
                        && (r.origin.1..r.origin.1 + r.shape.1).contains(&m)
                })
            };
            for k in 0..grid.0 {
                for m in 0..grid.1 {
                    assert!(owned(k, m), "lane ({k},{m}) unowned for {grid:?}/{count}");
                }
            }
        }
    }

    #[test]
    fn single_tile_grid_never_partitions() {
        let regions = partition_grid((1, 1), 8);
        assert_eq!(regions, vec![GridRegion::full((1, 1))]);
    }

    #[test]
    fn partition_prefers_square_regions() {
        // 2x2 grid, batch of 2: split one axis, keeping 2-tile regions.
        let regions = partition_grid((2, 2), 2);
        assert_eq!(regions.len(), 2);
        assert!(regions.iter().all(|r| r.tiles() == 2));
        // Batch of 4: one tile each.
        let regions = partition_grid((2, 2), 4);
        assert_eq!(regions.len(), 4);
        assert!(regions.iter().all(|r| r.tiles() == 1));
    }

    #[test]
    fn region_overlap_geometry() {
        let a = GridRegion { origin: (0, 0), shape: (2, 1) };
        let b = GridRegion { origin: (0, 1), shape: (2, 1) };
        let c = GridRegion { origin: (1, 0), shape: (1, 2) };
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn coverage_is_exact_and_disjoint() {
        for (m, k, grid) in [(30, 17, (2, 3)), (8, 8, (4, 4)), (65, 1, (2, 2))] {
            let waves = plan_waves(8, 8, grid, m, k);
            let mut covered = vec![0u32; m * k];
            for w in &waves {
                for ks in &w.k_spans {
                    for ms in &w.m_spans {
                        for kk in ks.start..ks.start + ks.len {
                            for mm in ms.start..ms.start + ms.len {
                                covered[mm * k + kk] += 1;
                            }
                        }
                    }
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "m={m} k={k} grid={grid:?}");
        }
    }
}
