//! The cost walk: every modeled charge of the accelerator, in one place.
//!
//! The micro-engine turns each command into crossbar installs and
//! DMA-fed GEMVs (Section II-C). The walks here follow that schedule —
//! the wave plan of [`crate::shard`], the per-channel install clock, one
//! step per streamed `B` column, the convolution's Toeplitz segments —
//! and charge every [`AccelStats`] field on the way. At each `Step`
//! they call a handler:
//!
//! * [`crate::CimAccelerator`]'s handler moves the data: the residency
//!   check, gather and install of each block, the `B` stream and the
//!   read-modify-write of `C`, the conv segments, the timeline events.
//! * The `estimate_*` functions' handler moves nothing. An estimate is
//!   therefore the [`AccelStats`] a fresh accelerator reports for the
//!   same command, every field and every bit. The Selective offload
//!   policy, the pin planner, the Fig. 5 endurance study and the
//!   streamed workloads price kernels with it.

use cim_machine::bus::BusConfig;
use cim_machine::units::{Energy, SimTime};
use cim_pcm::energy::RECOMBINE_ALU_OPS_PER_COLUMN;
use cim_pcm::PcmEnergyModel;

use crate::config::AccelConfig;
use crate::shard::{partition_grid, plan_waves, GridRegion, InstallClock, Wave};
use crate::stats::AccelStats;

/// One stationary block, `op(A)[m0..m0+mt][k0..k0+kt]`, installed
/// transposed (`kt` word lines, `mt` bit lines) on grid tile `lane`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Block {
    /// Physical grid lane `(k_lane, m_lane)` of the tile.
    pub lane: (usize, usize),
    /// First output row.
    pub m0: usize,
    /// Output rows (bit lines).
    pub mt: usize,
    /// First reduction index.
    pub k0: usize,
    /// Reduction length (word lines).
    pub kt: usize,
}

/// A point of a walk at which its handler does its work. Times are on
/// the command's clock, which starts at zero.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step<'a> {
    /// `block` is about to install. The handler returns whether it is
    /// already resident; the walk then counts an install skip and
    /// charges nothing else for it.
    Install(Block),
    /// `block` was charged: its row programming runs from
    /// `t + program_start` for `program_t`.
    Installed {
        /// The block.
        block: Block,
        /// Start of the install phase.
        t: SimTime,
        /// When the block's gather is done, relative to `t`.
        program_start: SimTime,
        /// Row-programming time.
        program_t: SimTime,
    },
    /// Column `j` of `B` streams through the tiles of `wave`, starting
    /// at `t`; `reads_c` says whether the step reads `C` before writing
    /// it.
    Column {
        /// The wave whose blocks are installed.
        wave: &'a Wave,
        /// Column of `B` and `C`.
        j: usize,
        /// Start of the step.
        t: SimTime,
        /// Whether `C` is read (not on a `beta == 0` first K-wave).
        reads_c: bool,
    },
    /// Convolution output pixels `out[oi][s0..s0 + n_out]`, from `valid`
    /// pixels of each of the filter's image rows; the GEMV step of
    /// length `step` ends at `t`.
    Segment {
        /// Output row.
        oi: usize,
        /// First output column.
        s0: usize,
        /// Output pixels.
        n_out: usize,
        /// Image pixels read per image row.
        valid: usize,
        /// End of the step.
        t: SimTime,
        /// Length of the step.
        step: SimTime,
    },
}

/// What one GEMV charges; equal for every column of a wave, so the walk
/// computes it once per block and adds it once per column.
struct GemvCharge {
    macs: u64,
    crossbar_compute: Energy,
    mixed_signal: Energy,
    digital: Energy,
    dma_engine: Energy,
    buffers: Energy,
    compute_time: SimTime,
}

impl GemvCharge {
    /// One GEMV over an `in_dim x out_dim` active crossbar region doing
    /// `macs` useful MACs and `extra_alu_ops` digital operations beyond
    /// the nibble recombination, staging `staged` bytes through the row
    /// and output buffers.
    fn new(
        e: &PcmEnergyModel,
        (in_dim, out_dim): (usize, usize),
        macs: u64,
        extra_alu_ops: u64,
        staged: usize,
    ) -> Self {
        let alu_ops = RECOMBINE_ALU_OPS_PER_COLUMN * out_dim as u64 + extra_alu_ops;
        GemvCharge {
            macs,
            crossbar_compute: e.compute_energy((in_dim * out_dim) as u64),
            mixed_signal: e.mixed_signal_energy(1),
            digital: e.digital_energy(1, alu_ops),
            dma_engine: e.dma_engine_energy(1),
            buffers: e.buffer_energy(2 * staged as u64),
            compute_time: e.compute_time(1),
        }
    }

    fn charge(&self, stats: &mut AccelStats) {
        stats.gemv_count += 1;
        stats.macs += self.macs;
        stats.crossbar_compute += self.crossbar_compute;
        stats.mixed_signal += self.mixed_signal;
        stats.digital += self.digital;
        stats.dma_engine += self.dma_engine;
        stats.buffers += self.buffers;
        stats.compute_time += self.compute_time;
    }
}

/// Charges programming a `rows x cols` operand into a crossbar (its
/// cells, rows, write energy and column-buffer staging) and returns the
/// programming time.
fn charge_program(stats: &mut AccelStats, e: &PcmEnergyModel, rows: usize, cols: usize) -> SimTime {
    let cells = (rows * cols) as u64;
    let program_t = e.write_time(rows as u64);
    stats.buffers += e.buffer_energy(2 * cells);
    stats.cell_writes += cells;
    stats.rows_programmed += rows as u64;
    stats.crossbar_write += e.write_energy(cells);
    stats.install_time += program_t;
    program_t
}

/// One GEMV step: crossbar compute (every active tile fires at once)
/// against the step's DMA, one gather chain per direction, which double
/// buffering (Section II-C) hides behind compute. Returns `(step, dma)`.
fn gemv_step_time(
    cfg: &AccelConfig,
    bus: &BusConfig,
    in_bytes: u64,
    out_rmw_bytes: u64,
) -> (SimTime, SimTime) {
    let dma = bus.dma_time(in_bytes) + bus.dma_time(out_rmw_bytes);
    (cfg.energy.compute_time(1).max(dma), dma)
}

/// Charges the DMA of a step not hidden behind compute.
fn charge_exposed(stats: &mut AccelStats, dma: SimTime, compute: SimTime) {
    if dma > compute {
        stats.dma_exposed_time += dma - compute;
    }
}

/// Closes one command: charges its busy time and the most tiles it held
/// at once, and returns the busy time.
pub(crate) fn close_command(stats: &mut AccelStats, busy: SimTime, tiles: u64) -> SimTime {
    stats.max_tiles_active = stats.max_tiles_active.max(tiles);
    stats.busy += busy;
    busy
}

/// Walks a GEMM `C = alpha*op(A)*B + beta*C` of shape `(m, n, k)` on the
/// tiles of `region`, charging `stats` and the per-channel install DMA
/// time `channel_busy`. Returns the busy time and the most tiles any
/// wave held.
///
/// Per wave of [`plan_waves`] (blocks with M-spans outer, K-spans
/// inner), each block not resident gathers on channel
/// `tile mod channels` and programs its rows, pipelined on an
/// [`InstallClock`]. Then each `B` column charges every block's GEMV and
/// one step of `max(compute, dma)`; the DMA beyond compute is exposed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn walk_gemm(
    cfg: &AccelConfig,
    bus: &BusConfig,
    region: GridRegion,
    (m, n, k): (usize, usize, usize),
    beta_zero: bool,
    stats: &mut AccelStats,
    channel_busy: &mut [SimTime],
    mut handler: impl FnMut(Step<'_>) -> bool,
) -> (SimTime, u64) {
    let e = &cfg.energy;
    let channels = cfg.dma_channels;
    let compute = e.compute_time(1);
    let mut t = SimTime::ZERO;
    let mut tiles_peak = 0u64;
    let mut charges = Vec::new();
    for wave in &plan_waves(cfg.rows, cfg.cols, region.shape, m, k) {
        tiles_peak = tiles_peak.max(wave.tiles_active() as u64);
        let mut clock = InstallClock::with_channels(channels);
        let mut channel_mask = 0u32;
        for ms in &wave.m_spans {
            for ks in &wave.k_spans {
                let block = Block {
                    lane: (region.origin.0 + ks.lane, region.origin.1 + ms.lane),
                    m0: ms.start,
                    mt: ms.len,
                    k0: ks.start,
                    kt: ks.len,
                };
                if handler(Step::Install(block)) {
                    stats.install_skips += 1;
                    continue;
                }
                let program_t = charge_program(stats, e, ks.len, ms.len);
                let dma_t = bus.dma_time((ks.len * ms.len * 4) as u64);
                let ch = (ks.lane * region.shape.1 + ms.lane) % channels;
                stats.dma_exposed_time += dma_t;
                channel_busy[ch] += dma_t;
                channel_mask |= 1 << ch;
                let program_start = clock.add_on(ch, dma_t, program_t);
                handler(Step::Installed { block, t, program_start, program_t });
            }
        }
        stats.max_dma_channels_active =
            stats.max_dma_channels_active.max(u64::from(channel_mask.count_ones()));
        t += clock.finish();

        let reads_c = !(wave.first_k && beta_zero);
        let rmw = if reads_c { 2 } else { 1 };
        let in_bytes: u64 = wave.k_spans.iter().map(|s| (s.len * 4) as u64).sum();
        let out_bytes: u64 = wave.m_spans.iter().map(|s| (s.len * 4 * rmw) as u64).sum();
        let (step, dma_t) = gemv_step_time(cfg, bus, in_bytes, out_bytes);
        charges.clear();
        for ms in &wave.m_spans {
            for ks in &wave.k_spans {
                // Scale and accumulate per output, plus one adder pass for
                // each reduction lane past the first.
                let reduce_ops = if ks.lane == 0 { 0 } else { ms.len as u64 };
                let (kt, mt) = (ks.len, ms.len);
                let extra = 2 * mt as u64 + reduce_ops;
                charges.push(GemvCharge::new(e, (kt, mt), (kt * mt) as u64, extra, kt + mt));
            }
        }
        for j in 0..n {
            handler(Step::Column { wave, j, t, reads_c });
            for c in &charges {
                c.charge(stats);
            }
            t += step;
            charge_exposed(stats, dma_t, compute);
        }
    }
    (t, tiles_peak)
}

/// Chains a batch of `count` elements round-robin over `regions`:
/// element `i` runs on region `i mod regions.len()` once that region's
/// previous element is done. `run_element(i, region, start)` runs one
/// element `start` into the chain and returns its busy time and tiles.
/// Returns the slowest region's chain and the most tiles any round of
/// concurrent elements held.
pub(crate) fn walk_batch(
    regions: &[GridRegion],
    count: usize,
    mut run_element: impl FnMut(usize, GridRegion, SimTime) -> (SimTime, u64),
) -> (SimTime, u64) {
    let mut chain = vec![SimTime::ZERO; regions.len()];
    let (mut round_tiles, mut peak) = (0u64, 0u64);
    for i in 0..count {
        let r = i % regions.len();
        if r == 0 {
            peak = peak.max(round_tiles);
            round_tiles = 0;
        }
        let (busy, tiles) = run_element(i, regions[r], chain[r]);
        chain[r] += busy;
        round_tiles += tiles;
    }
    (chain.iter().fold(SimTime::ZERO, |a, &b| a.max(b)), peak.max(round_tiles))
}

/// The Toeplitz mapping of a convolution of an image `w` pixels wide
/// with an `fh x fw` filter onto `cfg`'s tiles: `(seg_in, seg_out,
/// in_dim)`. Each of the filter's `fh` image rows takes `seg_in` word
/// lines, and one GEMV yields `seg_out` output pixels from
/// `in_dim = fh * seg_in` word lines. `None` when the engine refuses the
/// shape: an empty filter, a filter wider than the image, or a filter
/// row wider than its `rows / fh` word lines.
pub fn conv_geometry(
    cfg: &AccelConfig,
    w: usize,
    fh: usize,
    fw: usize,
) -> Option<(usize, usize, usize)> {
    if fh == 0 || fw == 0 || w < fw || cfg.rows / fh < fw {
        return None;
    }
    let seg_in = cfg.rows / fh;
    let seg_out = (seg_in - (fw - 1)).min(w - fw + 1).min(cfg.cols);
    Some((seg_in, seg_out, fh * seg_in))
}

/// Walks a single-channel `h x w` convolution with an `fh x fw` filter
/// on tile `(0, 0)` with the [`conv_geometry`] `(seg_in, seg_out,
/// in_dim)`: the filter fetch, the Toeplitz install (skipped when
/// resident), then one GEMV step per output segment. Returns the busy
/// time.
pub(crate) fn walk_conv(
    cfg: &AccelConfig,
    bus: &BusConfig,
    (h, w, fh, fw): (usize, usize, usize, usize),
    (seg_in, seg_out, in_dim): (usize, usize, usize),
    stats: &mut AccelStats,
    mut handler: impl FnMut(Step<'_>) -> bool,
) -> SimTime {
    let e = &cfg.energy;
    let compute = e.compute_time(1);
    let mut t = bus.dma_time((fh * fw * 4) as u64);
    let block = Block { lane: (0, 0), m0: 0, mt: seg_out, k0: 0, kt: in_dim };
    if handler(Step::Install(block)) {
        stats.install_skips += 1;
    } else {
        let program_t = charge_program(stats, e, in_dim, seg_out);
        handler(Step::Installed { block, t, program_start: SimTime::ZERO, program_t });
        t += program_t;
    }
    let out_w = w - fw + 1;
    for oi in 0..h - fh + 1 {
        let mut s0 = 0;
        while s0 < out_w {
            let n_out = seg_out.min(out_w - s0);
            let valid = seg_in.min(w - s0);
            // Read the image rows; read-modify-write the output run.
            let in_bytes = (fh * valid * 4) as u64;
            let (step, dma_t) = gemv_step_time(cfg, bus, in_bytes, (2 * n_out * 4) as u64);
            t += step;
            let macs = (fh * fw * n_out) as u64;
            GemvCharge::new(e, (in_dim, seg_out), macs, 0, fh * valid + n_out).charge(stats);
            charge_exposed(stats, dma_t, compute);
            handler(Step::Segment { oi, s0, n_out, valid, t, step });
            s0 += n_out;
        }
    }
    t
}

/// Estimates `C = alpha*op(A)*B + beta*C` on the whole grid: the
/// [`AccelStats`] of one such command on a fresh accelerator.
///
/// `beta_zero` skips the initial read of `C`; `a_resident` models the
/// stationary operand as already installed, as on a second identical
/// call (only meaningful when `A` fits in one wave of the grid, so that
/// no block evicts another).
///
/// # Panics
///
/// Panics if `a_resident` is set for an operand spanning several waves.
pub fn estimate_gemm(
    cfg: &AccelConfig,
    bus: &BusConfig,
    m: usize,
    n: usize,
    k: usize,
    beta_zero: bool,
    a_resident: bool,
) -> AccelStats {
    assert!(
        !a_resident || (k.div_ceil(cfg.rows) <= cfg.grid.0 && m.div_ceil(cfg.cols) <= cfg.grid.1),
        "residency only possible for single-tile (one block per lane, one wave) operands"
    );
    let mut stats = AccelStats::default();
    let mut channel_busy = vec![SimTime::ZERO; cfg.dma_channels];
    let region = GridRegion::full(cfg.grid);
    let (busy, tiles) =
        walk_gemm(cfg, bus, region, (m, n, k), beta_zero, &mut stats, &mut channel_busy, |s| {
            a_resident && matches!(s, Step::Install(_))
        });
    close_command(&mut stats, busy, tiles);
    stats
}

/// Estimates `y = alpha*op(A)*x + beta*y` (a GEMM with `n = 1`).
pub fn estimate_gemv(
    cfg: &AccelConfig,
    bus: &BusConfig,
    m: usize,
    k: usize,
    beta_zero: bool,
    a_resident: bool,
) -> AccelStats {
    estimate_gemm(cfg, bus, m, 1, k, beta_zero, a_resident)
}

/// Estimates a batch of `count` independent GEMMs (pairwise disjoint
/// outputs) sharing dimensions: the [`AccelStats`] of one batched
/// command on a fresh accelerator, which runs the elements round-robin
/// on the disjoint sub-grids of [`partition_grid`]. A dependent batch
/// runs the serial full-grid schedule instead; estimate it with `count`
/// single calls.
///
/// With `share_a` (fused kernels with a common left operand, Listing 2)
/// every element installs the same blocks, so a block still held by
/// its tile from an earlier element is resident — the endurance win of
/// the batched call.
#[allow(clippy::too_many_arguments)]
pub fn estimate_gemm_batched(
    cfg: &AccelConfig,
    bus: &BusConfig,
    m: usize,
    n: usize,
    k: usize,
    beta_zero: bool,
    count: usize,
    share_a: bool,
) -> AccelStats {
    let mut stats = AccelStats::default();
    let mut channel_busy = vec![SimTime::ZERO; cfg.dma_channels];
    // The `(m0, k0)` block each tile holds of the shared operand.
    let mut held = vec![None; cfg.tile_count()];
    let regions = partition_grid(cfg.grid, count);
    let (busy, tiles) = walk_batch(&regions, count, |_, region, _| {
        let dims = (m, n, k);
        walk_gemm(cfg, bus, region, dims, beta_zero, &mut stats, &mut channel_busy, |s| match s {
            Step::Install(b) if share_a => {
                let tile = &mut held[b.lane.0 * cfg.grid.1 + b.lane.1];
                tile.replace((b.m0, b.k0)) == Some((b.m0, b.k0))
            }
            _ => false,
        })
    });
    let table_t = bus.dma_time((count * 3 * 8) as u64);
    close_command(&mut stats, table_t + busy, tiles);
    stats
}

/// Estimates a single-channel 2-D convolution of an `h x w` image with
/// an `fh x fw` filter: the [`AccelStats`] of one such command on a
/// fresh accelerator, or `None` when the engine refuses the shape
/// ([`conv_geometry`], or a filter taller than the image).
pub fn estimate_conv2d(
    cfg: &AccelConfig,
    bus: &BusConfig,
    h: usize,
    w: usize,
    fh: usize,
    fw: usize,
) -> Option<AccelStats> {
    let geometry = conv_geometry(cfg, w, fh, fw).filter(|_| h >= fh)?;
    let mut stats = AccelStats::default();
    let busy = walk_conv(cfg, bus, (h, w, fh, fw), geometry, &mut stats, |_| false);
    close_command(&mut stats, busy, 1);
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AccelConfig {
        AccelConfig::default()
    }

    fn bus() -> BusConfig {
        BusConfig::default()
    }

    #[test]
    fn gemm_counts_scale_with_tiles() {
        let e1 = estimate_gemm(&cfg(), &bus(), 256, 256, 256, true, false);
        assert_eq!(e1.gemv_count, 256);
        assert_eq!(e1.cell_writes, 256 * 256);
        assert_eq!(e1.rows_programmed, 256);
        assert_eq!(e1.macs, 256 * 256 * 256);
        let e2 = estimate_gemm(&cfg(), &bus(), 512, 256, 512, true, false);
        assert_eq!(e2.cell_writes, 4 * 256 * 256);
        assert_eq!(e2.gemv_count, 4 * 256);
    }

    #[test]
    fn residency_removes_install_cost() {
        let cold = estimate_gemm(&cfg(), &bus(), 128, 64, 128, true, false);
        let warm = estimate_gemm(&cfg(), &bus(), 128, 64, 128, true, true);
        assert_eq!(warm.cell_writes, 0);
        assert_eq!(warm.install_skips, 1);
        assert!(warm.busy < cold.busy);
        assert_eq!(warm.gemv_count, cold.gemv_count);
    }

    #[test]
    fn batched_shared_a_writes_once() {
        let shared = estimate_gemm_batched(&cfg(), &bus(), 128, 128, 128, true, 2, true);
        let unshared = estimate_gemm_batched(&cfg(), &bus(), 128, 128, 128, true, 2, false);
        assert_eq!(shared.cell_writes, 128 * 128);
        assert_eq!(unshared.cell_writes, 2 * 128 * 128);
        // The factor-2 write-traffic reduction behind Fig. 5.
        assert_eq!(unshared.cell_writes / shared.cell_writes, 2);
    }

    #[test]
    fn gemv_is_gemm_with_n_1() {
        let a = estimate_gemv(&cfg(), &bus(), 256, 256, false, false);
        let b = estimate_gemm(&cfg(), &bus(), 256, 1, 256, false, false);
        assert_eq!(a, b);
    }

    #[test]
    fn conv_estimate_shape() {
        let e = estimate_conv2d(&cfg(), &bus(), 64, 64, 3, 3).expect("fits");
        // seg_in = 85, seg_out = min(83, 62) = 62 -> one segment per row.
        assert_eq!(e.gemv_count, 62);
        assert_eq!(e.macs, 62 * 62 * 9);
        assert_eq!(e.rows_programmed, 255);
        // Writes are tiny relative to a dense operand: high MACs/write.
        assert!(e.macs_per_write() > 2.0);
    }

    #[test]
    fn conv_geometry_refuses_what_the_engine_refuses() {
        // 256 word lines over a 128-row filter leave 2 per row: a
        // 3-wide filter does not fit, a 2-wide one does.
        assert_eq!(conv_geometry(&cfg(), 10, 128, 3), None);
        assert_eq!(conv_geometry(&cfg(), 10, 128, 2), Some((2, 1, 256)));
        assert_eq!(conv_geometry(&cfg(), 10, 200, 3), None);
        assert_eq!(conv_geometry(&cfg(), 2, 1, 3), None);
        assert_eq!(conv_geometry(&cfg(), 10, 0, 3), None);
        assert_eq!(estimate_conv2d(&cfg(), &bus(), 130, 10, 128, 3), None);
        assert_eq!(estimate_conv2d(&cfg(), &bus(), 2, 10, 3, 3), None);
    }

    #[test]
    #[should_panic(expected = "single-tile")]
    fn resident_multi_tile_panics() {
        estimate_gemm(&cfg(), &bus(), 1024, 8, 1024, true, true);
    }

    #[test]
    fn sharding_cuts_latency_but_not_work() {
        let single = estimate_gemm(&cfg(), &bus(), 512, 256, 512, true, false);
        let sharded = estimate_gemm(
            &AccelConfig::default().with_grid(2, 2),
            &bus(),
            512,
            256,
            512,
            true,
            false,
        );
        assert_eq!(single.max_tiles_active, 1);
        assert_eq!(sharded.max_tiles_active, 4);
        // The physical work is invariant: same installs, same MACs.
        assert_eq!(sharded.cell_writes, single.cell_writes);
        assert_eq!(sharded.rows_programmed, single.rows_programmed);
        assert_eq!(sharded.macs, single.macs);
        assert_eq!(sharded.gemv_count, single.gemv_count);
        // Parallel tiles collapse the serial block walk: big latency win.
        assert!(
            sharded.busy.as_ns() < 0.5 * single.busy.as_ns(),
            "{} vs {}",
            sharded.busy,
            single.busy
        );
        // Energy is nearly unchanged (only the partial-column adders).
        let (s, p) = (single.total_energy().as_pj(), sharded.total_energy().as_pj());
        let delta = (p - s) / s;
        assert!((0.0..0.05).contains(&delta), "energy delta {delta}");
    }

    #[test]
    fn reram_device_shifts_cost_balance() {
        let pcm = estimate_gemm(
            &AccelConfig::for_device(cim_pcm::DeviceKind::Pcm),
            &bus(),
            256,
            256,
            256,
            true,
            false,
        );
        let reram = estimate_gemm(
            &AccelConfig::for_device(cim_pcm::DeviceKind::Reram),
            &bus(),
            256,
            256,
            256,
            true,
            false,
        );
        assert!(reram.busy < pcm.busy, "faster writes and reads");
        assert!(reram.total_energy() < pcm.total_energy(), "cheaper programming");
        assert_eq!(reram.macs, pcm.macs);
    }
}
