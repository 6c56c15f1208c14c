//! Analytic cost estimator for accelerator operations.
//!
//! Mirrors the micro-engine's loops without touching data, so costs can be
//! predicted (a) by the offload cost model of the Selective policy,
//! (b) by the Fig. 5 endurance study at sizes too large to simulate
//! functionally, and (c) by tests that pin the functional engine and this
//! estimator together — they must never diverge.

use cim_machine::bus::BusConfig;
use cim_machine::units::{Energy, SimTime};

use crate::config::AccelConfig;
use crate::shard::{partition_grid, plan_waves, InstallClock};

/// Predicted cost of one accelerator operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpEstimate {
    /// Busy time of the accelerator.
    pub time: SimTime,
    /// Total accelerator energy.
    pub energy: Energy,
    /// 8-bit cells programmed.
    pub cell_writes: u64,
    /// Crossbar rows programmed.
    pub rows_programmed: u64,
    /// Stationary-operand block installs skipped by residency.
    pub install_skips: u64,
    /// GEMV operations.
    pub gemvs: u64,
    /// Useful MACs.
    pub macs: u64,
    /// Bytes moved by DMA.
    pub dma_bytes: u64,
    /// Most physical tiles concurrently active in any sharding wave.
    pub parallel_tiles: u64,
    /// Most per-tile DMA channels concurrently gathering in any install
    /// wave (mirrors `AccelStats::max_dma_channels_active`).
    pub dma_channels_active: u64,
}

impl OpEstimate {
    /// Accumulates another estimate.
    pub fn merge(&mut self, o: &OpEstimate) {
        self.time += o.time;
        self.energy += o.energy;
        self.cell_writes += o.cell_writes;
        self.rows_programmed += o.rows_programmed;
        self.install_skips += o.install_skips;
        self.gemvs += o.gemvs;
        self.macs += o.macs;
        self.dma_bytes += o.dma_bytes;
        self.parallel_tiles = self.parallel_tiles.max(o.parallel_tiles);
        self.dma_channels_active = self.dma_channels_active.max(o.dma_channels_active);
    }

    /// Crossbar write traffic in bytes (one byte per 8-bit cell write).
    pub fn write_bytes(&self) -> u64 {
        self.cell_writes
    }
}

/// Estimates `C = alpha*op(A)*B + beta*C` on the accelerator.
///
/// Replays the exact wave plan of the micro-engine
/// ([`crate::shard::plan_waves`]): per wave, installs pipeline serial DMA
/// against parallel row programming, and all active tiles compute each
/// `B` column simultaneously.
///
/// `beta_zero` skips the initial read of `C`; `a_resident` models the
/// stationary operand already being installed (only meaningful when `A`
/// fits in one wave of the grid — single-tile blocks that are never
/// evicted by later waves).
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
) -> OpEstimate {
    estimate_gemm_on(cfg, bus, cfg.grid, m, n, k, beta_zero, a_resident)
}

/// Whether an `m x k` stationary operand fits in one wave of a
/// `(gk, gm)` sub-grid — the condition under which tile residency can
/// survive across back-to-back kernels.
fn fits_one_wave(cfg: &AccelConfig, grid: (usize, usize), m: usize, k: usize) -> bool {
    k.div_ceil(cfg.rows) <= grid.0 && m.div_ceil(cfg.cols) <= grid.1
}

/// Per-step time of one GEMV wave: crossbar compute (all active tiles
/// fire simultaneously) vs. the aggregate DMA traffic of the step, moved
/// as one gather descriptor chain per direction. With double buffering
/// (Section II-C) DMA overlaps compute. Returns `(step, dma)`. The one
/// formula the functional engine and this estimator both use, so they
/// can never diverge.
pub(crate) fn gemv_step_time(
    cfg: &AccelConfig,
    bus: &BusConfig,
    in_bytes: u64,
    out_rmw_bytes: u64,
) -> (SimTime, SimTime) {
    let compute = cfg.energy.compute_time(1);
    let dma = bus.dma_time(in_bytes) + bus.dma_time(out_rmw_bytes);
    if cfg.double_buffering {
        (compute.max(dma), dma)
    } else {
        (compute + dma, dma)
    }
}

/// [`estimate_gemm`] confined to a sub-grid of `grid` lanes — the
/// per-region building block the batched estimator composes, mirroring
/// [`crate::CimAccelerator`]'s region-scoped execution.
#[allow(clippy::too_many_arguments)]
fn estimate_gemm_on(
    cfg: &AccelConfig,
    bus: &BusConfig,
    grid: (usize, usize),
    m: usize,
    n: usize,
    k: usize,
    beta_zero: bool,
    a_resident: bool,
) -> OpEstimate {
    let tr = cfg.rows;
    let tc = cfg.cols;
    if a_resident {
        assert!(
            fits_one_wave(cfg, grid, m, k),
            "residency only possible for single-tile (one block per lane, one wave) operands"
        );
    }
    let e = &cfg.energy;
    let mut est = OpEstimate::default();
    for wave in &plan_waves(tr, tc, grid, m, k) {
        est.parallel_tiles = est.parallel_tiles.max(wave.tiles_active() as u64);
        // Install phase: per-channel serial DMA, parallel programming
        // (see `CimAccelerator::install_wave`).
        let channels = cfg.dma_channels;
        let mut clock = InstallClock::with_channels(channels);
        let mut channel_mask = 0u32;
        for ms in &wave.m_spans {
            for ks in &wave.k_spans {
                if a_resident {
                    est.install_skips += 1;
                    continue;
                }
                let (kt, mt) = (ks.len, ms.len);
                let tile_bytes = (kt * mt * 4) as u64;
                let ch = (ks.lane * grid.1 + ms.lane) % channels;
                channel_mask |= 1 << ch;
                clock.add_on(ch, bus.dma_time(tile_bytes), e.write_time(kt as u64));
                est.energy +=
                    e.write_energy((kt * mt) as u64) + e.buffer_energy(2 * (kt * mt) as u64);
                est.cell_writes += (kt * mt) as u64;
                est.rows_programmed += kt as u64;
                est.dma_bytes += tile_bytes;
            }
        }
        est.dma_channels_active = est.dma_channels_active.max(u64::from(channel_mask.count_ones()));
        est.time += clock.finish();
        // Compute phase: one step per B column, all tiles in parallel.
        let reads_c = !(wave.first_k && beta_zero);
        let in_bytes: u64 = wave.k_spans.iter().map(|s| (s.len * 4) as u64).sum();
        let out_bytes: u64 =
            wave.m_spans.iter().map(|s| (s.len * 4 * if reads_c { 2 } else { 1 }) as u64).sum();
        let (step, _) = gemv_step_time(cfg, bus, in_bytes, out_bytes);
        est.time += step * n as f64;
        est.dma_bytes += (in_bytes + out_bytes) * n as u64;
        for ms in &wave.m_spans {
            for ks in &wave.k_spans {
                let (kt, mt) = (ks.len, ms.len);
                let reduce_ops = if ks.lane == 0 { 0 } else { mt as u64 };
                est.gemvs += n as u64;
                est.macs += (n * kt * mt) as u64;
                let per_gemv = e.compute_energy((kt * mt) as u64)
                    + e.mixed_signal_energy(1)
                    + e.digital_energy(1, (3 * mt + 2 * mt) as u64 + reduce_ops)
                    + e.dma_engine_energy(1)
                    + e.buffer_energy(2 * (kt + mt) as u64);
                est.energy += per_gemv * n as f64;
            }
        }
    }
    est
}

/// Estimates `y = alpha*op(A)*x + beta*y` (a GEMM with `n = 1`).
pub fn estimate_gemv(
    cfg: &AccelConfig,
    bus: &BusConfig,
    m: usize,
    k: usize,
    beta_zero: bool,
    a_resident: bool,
) -> OpEstimate {
    estimate_gemm(cfg, bus, m, 1, k, beta_zero, a_resident)
}

/// Estimates a batch of `count` GEMMs sharing dimensions, replaying the
/// engine's concurrent schedule exactly: elements are assigned
/// round-robin to the disjoint sub-grids of
/// [`crate::shard::partition_grid`], each region chains its elements
/// serially, and the batch's time is the table read plus the slowest
/// region's chain. The estimator assumes the batch is independent
/// (pairwise disjoint outputs) — the condition under which the engine
/// actually partitions; dependent batches run the serial full-grid
/// schedule and should be estimated with `count` single calls instead.
///
/// With `share_a` (fused kernels with a common left operand, Listing 2)
/// each *region* installs the operand once — one install per sub-grid,
/// the first round of the batch — and later rounds hit residency: the
/// endurance win of the batched call.
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
) -> OpEstimate {
    let mut est = OpEstimate::default();
    let descr_bytes = (count * 3 * 8) as u64;
    est.time += bus.dma_time(descr_bytes);
    est.dma_bytes += descr_bytes;
    let regions = partition_grid(cfg.grid, count);
    let nr = regions.len();
    let mut chain = vec![SimTime::ZERO; nr];
    let mut round_tiles = 0u64;
    for i in 0..count {
        let r = i % nr;
        if r == 0 && i > 0 {
            est.parallel_tiles = est.parallel_tiles.max(round_tiles);
            round_tiles = 0;
        }
        let shape = regions[r].shape;
        let resident = share_a && i >= nr && fits_one_wave(cfg, shape, m, k);
        let g = estimate_gemm_on(cfg, bus, shape, m, n, k, beta_zero, resident);
        est.energy += g.energy;
        est.cell_writes += g.cell_writes;
        est.rows_programmed += g.rows_programmed;
        est.install_skips += g.install_skips;
        est.gemvs += g.gemvs;
        est.macs += g.macs;
        est.dma_bytes += g.dma_bytes;
        est.dma_channels_active = est.dma_channels_active.max(g.dma_channels_active);
        chain[r] += g.time;
        round_tiles += g.parallel_tiles;
    }
    est.parallel_tiles = est.parallel_tiles.max(round_tiles);
    est.time += chain.iter().fold(SimTime::ZERO, |a, &b| a.max(b));
    est
}

/// Estimates a single-channel 2-D convolution, mirroring the Toeplitz
/// mapping of the micro-engine.
pub fn estimate_conv2d(
    cfg: &AccelConfig,
    bus: &BusConfig,
    h: usize,
    w: usize,
    fh: usize,
    fw: usize,
) -> OpEstimate {
    let e = &cfg.energy;
    let out_h = h - fh + 1;
    let out_w = w - fw + 1;
    let seg_in = cfg.rows / fh;
    let seg_out = (seg_in - (fw - 1)).min(out_w).min(cfg.cols);
    let in_dim = fh * seg_in;
    let mut est = OpEstimate::default();
    // Filter fetch + Toeplitz install.
    let filt_bytes = (fh * fw * 4) as u64;
    est.time += bus.dma_time(filt_bytes) + e.write_time(in_dim as u64);
    est.dma_bytes += filt_bytes;
    est.cell_writes += (in_dim * seg_out) as u64;
    est.rows_programmed += in_dim as u64;
    est.energy +=
        e.write_energy((in_dim * seg_out) as u64) + e.buffer_energy(2 * (in_dim * seg_out) as u64);
    for _oi in 0..out_h {
        let mut s0 = 0;
        while s0 < out_w {
            let n_out = seg_out.min(out_w - s0);
            let valid = seg_in.min(w - s0);
            let in_bytes = (fh * valid * 4) as u64;
            let out_bytes = (2 * n_out * 4) as u64; // read-modify-write
            let (step, _) = gemv_step_time(cfg, bus, in_bytes, out_bytes);
            est.time += step;
            est.gemvs += 1;
            est.macs += (fh * fw * n_out) as u64;
            est.dma_bytes += in_bytes + out_bytes;
            est.energy += e.compute_energy((in_dim * seg_out) as u64)
                + e.mixed_signal_energy(1)
                + e.digital_energy(1, (3 * seg_out) as u64)
                + e.dma_engine_energy(1)
                + e.buffer_energy(2 * (fh * valid + n_out) as u64);
            s0 += n_out;
        }
    }
    est
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
        assert_eq!(e1.gemvs, 256);
        assert_eq!(e1.cell_writes, 256 * 256);
        assert_eq!(e1.rows_programmed, 256);
        assert_eq!(e1.macs, 256 * 256 * 256);
        let e2 = estimate_gemm(&cfg(), &bus(), 512, 256, 512, true, false);
        assert_eq!(e2.cell_writes, 4 * 256 * 256);
        assert_eq!(e2.gemvs, 4 * 256);
    }

    #[test]
    fn residency_removes_install_cost() {
        let cold = estimate_gemm(&cfg(), &bus(), 128, 64, 128, true, false);
        let warm = estimate_gemm(&cfg(), &bus(), 128, 64, 128, true, true);
        assert_eq!(warm.cell_writes, 0);
        assert!(warm.time < cold.time);
        assert_eq!(warm.gemvs, cold.gemvs);
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
        let e = estimate_conv2d(&cfg(), &bus(), 64, 64, 3, 3);
        // seg_in = 85, seg_out = min(83, 62) = 62 -> one segment per row.
        assert_eq!(e.gemvs, 62);
        assert_eq!(e.macs, 62 * 62 * 9);
        assert_eq!(e.rows_programmed, 255);
        // Writes are tiny relative to a dense operand: high MACs/write.
        assert!(e.macs as f64 / e.cell_writes as f64 > 2.0);
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
        assert_eq!(single.parallel_tiles, 1);
        assert_eq!(sharded.parallel_tiles, 4);
        // The physical work is invariant: same installs, same MACs.
        assert_eq!(sharded.cell_writes, single.cell_writes);
        assert_eq!(sharded.rows_programmed, single.rows_programmed);
        assert_eq!(sharded.macs, single.macs);
        assert_eq!(sharded.gemvs, single.gemvs);
        // Parallel tiles collapse the serial block walk: big latency win.
        assert!(
            sharded.time.as_ns() < 0.5 * single.time.as_ns(),
            "{} vs {}",
            sharded.time,
            single.time
        );
        // Energy is nearly unchanged (only the partial-column adders).
        let delta = (sharded.energy.as_pj() - single.energy.as_pj()) / single.energy.as_pj();
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
        assert!(reram.time < pcm.time, "faster writes and reads");
        assert!(reram.energy < pcm.energy, "cheaper programming");
        assert_eq!(reram.macs, pcm.macs);
    }
}
