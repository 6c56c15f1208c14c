//! The micro-engine: GEMM/GEMV/batched/conv2d execution.
//!
//! "The micro-engine translates the high-level parameters stored in the
//! context registers into a series of circuit-level operations such as
//! loading the data from shared memory to row/column buffers, configuring
//! the mask values, triggering the computation on CIM tile, and writing
//! back the results from the output buffers to the shared memory.
//! Additionally, it manages the control flow involved in decomposing GEMM
//! to a series of GEMVs and supports double buffering" (Section II-C).
//!
//! Mapping: the stationary operand is `op(A)` loaded *transposed* into the
//! crossbar (`G[k][m] = op(A)[m][k]`) so that word lines carry the
//! reduction dimension and bit lines produce output rows. Each GEMV
//! streams one column of `B` and produces one column segment of `C`.
//! K- and M-dimensions larger than one crossbar are sharded across the
//! configured tile grid ([`crate::shard`]): within a wave, up to
//! `grid.0 * grid.1` tiles install and compute in parallel, reduction
//! lanes accumulate partial columns digitally, and only block waves
//! beyond the grid serialize through read-modify-write of `C` (Listing
//! 3's tiling is the compiler-side counterpart that maximizes tile
//! reuse).

use cim_machine::units::SimTime;
use cim_machine::Machine;

use crate::buffers::BufferKind;
use crate::estimate::gemv_step_time;
use crate::shard::{partition_grid, plan_waves, GridRegion, InstallClock, Wave};
use crate::tile::TileKey;
use crate::timeline::EventKind;
use crate::CimAccelerator;

/// Errors detected by the micro-engine while decoding a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The requested variant is not implemented in hardware.
    Unsupported(String),
    /// Dimensions or leading dimensions are inconsistent.
    BadDims(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Unsupported(s) => write!(f, "unsupported operation: {s}"),
            EngineError::BadDims(s) => write!(f, "bad dimensions: {s}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Decoded GEMM parameters (row-major operands, physical addresses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmParams {
    /// Rows of `C` / rows of `op(A)`.
    pub m: usize,
    /// Columns of `C` / columns of `op(B)`.
    pub n: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Scale on the product.
    pub alpha: f32,
    /// Scale on the existing `C`.
    pub beta: f32,
    /// Physical address of `A`.
    pub a: u64,
    /// Leading dimension (row stride in elements) of `A`.
    pub lda: usize,
    /// Whether `op(A) = A^T`.
    pub trans_a: bool,
    /// Physical address of `B`.
    pub b: u64,
    /// Leading dimension of `B`.
    pub ldb: usize,
    /// Whether `op(B) = B^T` (not supported by the engine).
    pub trans_b: bool,
    /// Physical address of `C`.
    pub c: u64,
    /// Leading dimension of `C`.
    pub ldc: usize,
}

/// Exact byte extent of a row-major `rows x cols` operand with leading
/// dimension `ld` (in elements): from its first `f32` to one past its
/// last, `((rows - 1) * ld + cols) * 4`. Zero for an empty operand;
/// `None` when the extent does not fit in a `u64`.
pub fn operand_bytes(rows: usize, cols: usize, ld: usize) -> Option<u64> {
    if rows == 0 || cols == 0 {
        return Some(0);
    }
    (rows as u64 - 1).checked_mul(ld as u64)?.checked_add(cols as u64)?.checked_mul(4)
}

/// Requires the `bytes`-long operand `name` at physical address `base` to
/// lie inside the machine's `mem_bytes` of memory.
fn check_in_memory(
    name: &str,
    base: u64,
    bytes: Option<u64>,
    mem_bytes: u64,
) -> Result<(), EngineError> {
    match bytes.and_then(|b| base.checked_add(b)) {
        Some(end) if end <= mem_bytes => Ok(()),
        _ => Err(EngineError::BadDims(format!(
            "operand {name} at {base:#x} extends past the {mem_bytes}-byte memory"
        ))),
    }
}

impl GemmParams {
    /// Conservative physical byte ranges `(base, len)` touched by this
    /// GEMM as `[A, B, C]`, over-approximated to whole leading-dimension
    /// rows. Used to decide whether batch elements are independent and
    /// may be modeled as running concurrently on disjoint tile regions.
    fn ranges(&self) -> [(u64, u64); 3] {
        let a_rows = if self.trans_a { self.k } else { self.m };
        let span = |rows: usize, ld: usize| (rows.saturating_mul(ld) as u64).saturating_mul(4);
        [
            (self.a, span(a_rows, self.lda)),
            (self.b, span(self.k, self.ldb)),
            (self.c, span(self.m, self.ldc)),
        ]
    }

    /// Checks the command before any DMA: a supported variant, positive
    /// dimensions, leading dimensions no smaller than their rows, and
    /// every operand's exact extent inside the `mem_bytes` of memory.
    fn validate(&self, mem_bytes: u64) -> Result<(), EngineError> {
        if self.trans_b {
            return Err(EngineError::Unsupported("transposed B operand".into()));
        }
        if self.m == 0 || self.n == 0 || self.k == 0 {
            return Err(EngineError::BadDims(format!(
                "m={}, n={}, k={} must be positive",
                self.m, self.n, self.k
            )));
        }
        // op(A) is m x k: row-major A is m x lda (or k x lda transposed).
        let min_lda = if self.trans_a { self.m } else { self.k };
        if self.lda < min_lda || self.ldb < self.n || self.ldc < self.n {
            return Err(EngineError::BadDims(format!(
                "lda={} (min {min_lda}), ldb={} (min {}), ldc={} (min {})",
                self.lda, self.ldb, self.n, self.ldc, self.n
            )));
        }
        let (a_rows, a_cols) = if self.trans_a { (self.k, self.m) } else { (self.m, self.k) };
        for (name, base, rows, cols, ld) in [
            ("A", self.a, a_rows, a_cols, self.lda),
            ("B", self.b, self.k, self.n, self.ldb),
            ("C", self.c, self.m, self.n, self.ldc),
        ] {
            check_in_memory(name, base, operand_bytes(rows, cols, ld), mem_bytes)?;
        }
        Ok(())
    }
}

/// Decoded single-channel 2-D convolution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvParams {
    /// Physical address of the `h x w` image.
    pub img: u64,
    /// Image height.
    pub h: usize,
    /// Image width.
    pub w: usize,
    /// Physical address of the `fh x fw` filter.
    pub filt: u64,
    /// Filter height.
    pub fh: usize,
    /// Filter width.
    pub fw: usize,
    /// Physical address of the `(h-fh+1) x (w-fw+1)` output.
    pub out: u64,
}

/// Whether the batch elements may be modeled as running concurrently:
/// every element's `C` range must be disjoint from every *other*
/// element's `A`, `B` and `C` ranges (aliasing within one element is the
/// single-GEMM in-place case and does not order elements against each
/// other). Ranges are conservative over-approximations, so a false
/// negative merely serializes the schedule — never the reverse.
fn batch_is_independent(params: &[GemmParams]) -> bool {
    let overlap = |(b1, l1): (u64, u64), (b2, l2): (u64, u64)| {
        b1 < b2.saturating_add(l2) && b2 < b1.saturating_add(l1)
    };
    let ranges: Vec<[(u64, u64); 3]> = params.iter().map(GemmParams::ranges).collect();
    for (i, r_i) in ranges.iter().enumerate() {
        let c = r_i[2];
        for (j, r_j) in ranges.iter().enumerate() {
            if i != j && r_j.iter().any(|&r| overlap(c, r)) {
                return false;
            }
        }
    }
    true
}

impl CimAccelerator {
    /// Installs one wave's missing blocks on the [`InstallClock`]
    /// schedule (serial DMA, parallel row programming). Returns the
    /// phase duration (zero when everything was resident). Lanes are
    /// relative to `region`, which pins the wave to a sub-array of the
    /// physical grid.
    ///
    /// Blocks install one at a time, in block order, on the calling
    /// thread: residency check, DMA gather, staging, programming, then
    /// accounting and the timeline event. A wave holds at most one block
    /// per tile, so no install can change another block's residency.
    #[allow(clippy::too_many_arguments)]
    fn install_wave(
        &mut self,
        mach: &mut Machine,
        p: &GemmParams,
        region: GridRegion,
        cmd: Option<u64>,
        wave: &Wave,
        t0: SimTime,
        t: SimTime,
    ) -> SimTime {
        let channels = self.cfg.dma_channels;
        let mut clock = InstallClock::with_channels(channels);
        let mut channel_mask = 0u32;
        let mut g: Vec<f32> = Vec::new();
        for ms in &wave.m_spans {
            for ks in &wave.k_spans {
                let (k0, kt) = (ks.start, ks.len);
                let (m0, mt) = (ms.start, ms.len);
                let key = TileKey {
                    base_pa: p.a,
                    ld: p.lda,
                    transposed: p.trans_a,
                    origin: (m0, k0),
                    extent: (kt, mt),
                    generation: self.generation,
                };
                let lane = (region.origin.0 + ks.lane, region.origin.1 + ms.lane);
                let idx = self.tile_index(lane);
                if self.tiles[idx].resident() == Some(&key) {
                    self.stats.install_skips += 1;
                    continue;
                }
                // Gather op(A)[m0..m0+mt][k0..k0+kt] transposed into G,
                // one burst per row of G.
                g.resize(kt * mt, 0.0);
                if p.trans_a {
                    // op(A)[m][k] = A[k][m]: rows k0.. of A, cols m0..
                    for r in 0..kt {
                        let base = p.a + 4 * ((k0 + r) * p.lda + m0) as u64;
                        self.dma.read_f32s(mach, base, &mut g[r * mt..(r + 1) * mt]);
                    }
                } else {
                    // op(A)[m][k] = A[m][k]: rows m0.. of A, cols k0..
                    let base = p.a + 4 * (m0 * p.lda + k0) as u64;
                    self.dma.read_f32s_transposed(mach, base, mt, kt, p.lda, &mut g);
                }
                let dma_t = self.bus_cfg.dma_time((kt * mt * 4) as u64);
                // Per-tile DMA channel: the wave-local tile picks its
                // channel, identically replayed by the estimator.
                let ch = (ks.lane * region.shape.1 + ms.lane) % channels;
                self.buffers.stage(BufferKind::Column, kt * mt);
                self.stats.buffers += self.cfg.energy.buffer_energy(2 * (kt * mt) as u64);
                let receipt = self.tiles[idx].install(key, &g, kt, mt);
                debug_assert!(!receipt.resident_hit);
                let install_t = self.cfg.energy.write_time(receipt.rows_programmed);
                self.stats.cell_writes += receipt.cells_written;
                self.stats.rows_programmed += receipt.rows_programmed;
                self.stats.crossbar_write += self.cfg.energy.write_energy(receipt.cells_written);
                self.stats.install_time += install_t;
                self.stats.dma_exposed_time += dma_t;
                self.channel_busy[ch] += dma_t;
                channel_mask |= 1 << ch;
                let program_start = clock.add_on(ch, dma_t, install_t);
                self.timeline.push_on(
                    EventKind::WriteCrossbar,
                    Some(lane),
                    cmd,
                    t0 + t + program_start,
                    t0 + t + program_start + install_t,
                    format!("install A tile m0={m0} k0={k0} ({kt}x{mt})"),
                );
            }
        }
        self.stats.max_dma_channels_active =
            self.stats.max_dma_channels_active.max(u64::from(channel_mask.count_ones()));
        clock.finish()
    }

    /// Executes a GEMM confined to `region` (the full grid for commands
    /// whose [`crate::regs::Reg::Region`] register is zero), returning
    /// the busy duration. The historical serial entry point with the
    /// region made explicit.
    pub(crate) fn run_gemm(
        &mut self,
        mach: &mut Machine,
        p: &GemmParams,
        region: GridRegion,
        t0: SimTime,
    ) -> Result<SimTime, EngineError> {
        let cmd = self.next_cmd();
        let (dur, tiles) = self.run_gemm_region(mach, p, region, Some(cmd), t0)?;
        self.stats.max_tiles_active = self.stats.max_tiles_active.max(tiles);
        Ok(dur)
    }

    /// Executes a GEMM confined to `region`, returning the busy duration
    /// and the most tiles the command had active in any wave. The block
    /// grid of `op(A)` runs in waves over the region's tiles: per wave,
    /// all tiles compute in parallel and reduction lanes accumulate
    /// partial `C` columns digitally before the single read-modify-write.
    /// Does not touch [`crate::AccelStats::max_tiles_active`] — callers
    /// modeling concurrent commands aggregate tile occupancy themselves.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn run_gemm_region(
        &mut self,
        mach: &mut Machine,
        p: &GemmParams,
        region: GridRegion,
        cmd: Option<u64>,
        t0: SimTime,
    ) -> Result<(SimTime, u64), EngineError> {
        p.validate(mach.mem.size())?;
        let tr = self.cfg.rows;
        let tc = self.cfg.cols;
        let waves = plan_waves(tr, tc, region.shape, p.m, p.k);
        let mut t = SimTime::ZERO;
        let mut tiles_peak = 0u64;
        let mut x = vec![0f32; region.shape.0 * tr];
        let mut cseg = vec![0f32; tc];
        let mut y = vec![0f32; tc];

        for wave in &waves {
            tiles_peak = tiles_peak.max(wave.tiles_active() as u64);
            t += self.install_wave(mach, p, region, cmd, wave, t0, t);

            let reads_c = !(wave.first_k && p.beta == 0.0);
            for j in 0..p.n {
                // Stream column j of B: one segment per reduction lane,
                // broadcast along the output lanes.
                let mut in_bytes = 0u64;
                for ks in &wave.k_spans {
                    let bbase = p.b + 4 * (ks.start * p.ldb + j) as u64;
                    let seg = &mut x[ks.lane * tr..ks.lane * tr + ks.len];
                    self.dma.read_f32s_strided(mach, bbase, ks.len, p.ldb, seg);
                    in_bytes += (ks.len * 4) as u64;
                }
                let mut out_bytes = 0u64;
                for ms in &wave.m_spans {
                    let (m0, mt) = (ms.start, ms.len);
                    // Read-modify-write the C column segment once per
                    // output lane, regardless of how many reduction lanes
                    // feed it.
                    let cbase = p.c + 4 * (m0 * p.ldc + j) as u64;
                    if reads_c {
                        self.dma.read_f32s_strided(mach, cbase, mt, p.ldc, &mut cseg[..mt]);
                    }
                    if wave.first_k {
                        for i in 0..mt {
                            cseg[i] = if p.beta == 0.0 { 0.0 } else { p.beta * cseg[i] };
                        }
                    }
                    for ks in &wave.k_spans {
                        let idx =
                            self.tile_index((region.origin.0 + ks.lane, region.origin.1 + ms.lane));
                        let seg = &x[ks.lane * tr..ks.lane * tr + ks.len];
                        let receipt = self.tiles[idx].gemv_into(seg, &mut y[..mt]);
                        // Accumulate the partial column; lanes beyond the
                        // first cost one extra adder pass in the digital
                        // block.
                        for i in 0..mt {
                            cseg[i] += p.alpha * y[i];
                        }
                        let reduce_ops = if ks.lane == 0 { 0 } else { mt as u64 };
                        self.account_gemv(
                            receipt.active_cells,
                            receipt.useful_macs,
                            ks.len,
                            mt,
                            receipt.extra_alu_ops + 2 * mt as u64 + reduce_ops,
                        );
                        if j < 2 {
                            self.timeline.push_on(
                                EventKind::Compute,
                                Some((region.origin.0 + ks.lane, region.origin.1 + ms.lane)),
                                cmd,
                                t0 + t,
                                t0 + t + self.cfg.energy.compute_time(1),
                                format!("gemv j={j} (tile m0={m0} k0={})", ks.start),
                            );
                        }
                    }
                    // Scatter back (strided store; the step model charges
                    // its bus time, so no burst).
                    mach.mem.write_f32_strided(cbase, 4 * p.ldc as i64, &cseg[..mt]);
                    out_bytes += (mt * 4 * if reads_c { 2 } else { 1 }) as u64;
                }
                let (step, dma_t) = gemv_step_time(&self.cfg, &self.bus_cfg, in_bytes, out_bytes);
                t += step;
                if dma_t > self.cfg.energy.compute_time(1) {
                    self.stats.dma_exposed_time += dma_t - self.cfg.energy.compute_time(1);
                }
            }
        }
        Ok((t, tiles_peak))
    }

    fn account_gemv(
        &mut self,
        active_cells: u64,
        macs: u64,
        in_bytes: usize,
        out_bytes: usize,
        alu_ops: u64,
    ) {
        self.stats.gemv_count += 1;
        self.stats.macs += macs;
        self.stats.crossbar_compute += self.cfg.energy.compute_energy(active_cells);
        self.stats.mixed_signal += self.cfg.energy.mixed_signal_energy(1);
        self.stats.digital += self.cfg.energy.digital_energy(1, alu_ops);
        self.stats.dma_engine += self.cfg.energy.dma_engine_energy(1);
        self.buffers.stage(BufferKind::Row, in_bytes);
        self.buffers.stage(BufferKind::Output, out_bytes);
        self.stats.buffers += self.cfg.energy.buffer_energy(2 * (in_bytes + out_bytes) as u64);
        self.stats.compute_time += self.cfg.energy.compute_time(1);
    }

    /// Executes a batch of GEMMs sharing dimensions and scales; the
    /// descriptor table holds `(addr_a, addr_b, addr_c)` triples. Batches
    /// that share `A` hit tile residency and skip reprogramming — the
    /// fusion endurance win of Listing 2.
    ///
    /// Independent elements (pairwise disjoint `C` ranges that no other
    /// element reads) are scheduled round-robin onto the disjoint tile
    /// sub-grids planned by [`partition_grid`]: each region runs its
    /// elements back-to-back and the batch finishes when the slowest
    /// region does, so the modeled busy time can be a fraction of the
    /// serial sum. Dependent batches fall back to the serial full-grid
    /// chain. Results are identical either way — elements always execute
    /// functionally in index order; only the timing schedule changes.
    pub(crate) fn run_gemm_batched(
        &mut self,
        mach: &mut Machine,
        template: &GemmParams,
        table_pa: u64,
        count: usize,
        t0: SimTime,
    ) -> Result<SimTime, EngineError> {
        if count == 0 {
            return Err(EngineError::BadDims("empty batch".into()));
        }
        // Everything is checked before the first DMA: the shape (with the
        // operands placed at address zero), the descriptor table, then
        // every element's operands.
        let mem_bytes = mach.mem.size();
        GemmParams { a: 0, b: 0, c: 0, ..*template }.validate(mem_bytes)?;
        let table_bytes = u64::try_from(count).ok().and_then(|n| n.checked_mul(24));
        check_in_memory("batch table", table_pa, table_bytes, mem_bytes)?;
        let (descr, table_t) = self.dma.read_u64s(mach, table_pa, count * 3);
        let params: Vec<GemmParams> = (0..count)
            .map(|i| GemmParams {
                a: descr[3 * i],
                b: descr[3 * i + 1],
                c: descr[3 * i + 2],
                ..*template
            })
            .collect();
        for p in &params {
            p.validate(mem_bytes)?;
        }
        let regions = if batch_is_independent(&params) {
            partition_grid(self.cfg.grid, count)
        } else {
            vec![GridRegion::full(self.cfg.grid)]
        };
        let nr = regions.len();
        // Per-region clocks, relative to the end of the table read.
        let mut chain = vec![SimTime::ZERO; nr];
        let mut round_tiles = 0u64;
        for (i, p) in params.iter().enumerate() {
            let r = i % nr;
            if r == 0 && i > 0 {
                // A full round of concurrent commands has been issued.
                self.stats.max_tiles_active = self.stats.max_tiles_active.max(round_tiles);
                round_tiles = 0;
            }
            let cmd = self.next_cmd();
            let (dur, tiles) =
                self.run_gemm_region(mach, p, regions[r], Some(cmd), t0 + table_t + chain[r])?;
            chain[r] += dur;
            round_tiles += tiles;
        }
        self.stats.max_tiles_active = self.stats.max_tiles_active.max(round_tiles);
        let busy = chain.iter().fold(SimTime::ZERO, |a, &b| a.max(b));
        Ok(table_t + busy)
    }

    /// Fresh logical command id (tags timeline events; one per armed
    /// command, one per batched element).
    pub(crate) fn next_cmd(&mut self) -> u64 {
        let id = self.cmd_seq;
        self.cmd_seq += 1;
        id
    }

    /// Executes a single-channel 2-D convolution by installing the filter
    /// as a doubly-blocked Toeplitz operand: word lines carry `fh`
    /// consecutive image-row segments, bit lines produce a run of output
    /// pixels, so one GEMV computes `seg` outputs with all `fh*fw` taps.
    /// Convolution always runs on tile `(0, 0)`; its Toeplitz operand is
    /// far smaller than a crossbar, so sharding buys nothing.
    pub(crate) fn run_conv2d(
        &mut self,
        mach: &mut Machine,
        p: &ConvParams,
        t0: SimTime,
    ) -> Result<SimTime, EngineError> {
        if p.fh == 0 || p.fw == 0 || p.h < p.fh || p.w < p.fw {
            return Err(EngineError::BadDims(format!(
                "image {}x{} filter {}x{}",
                p.h, p.w, p.fh, p.fw
            )));
        }
        let out_h = p.h - p.fh + 1;
        let out_w = p.w - p.fw + 1;
        let mem_bytes = mach.mem.size();
        for (name, base, rows, cols) in [
            ("image", p.img, p.h, p.w),
            ("filter", p.filt, p.fh, p.fw),
            ("output", p.out, out_h, out_w),
        ] {
            check_in_memory(name, base, operand_bytes(rows, cols, cols), mem_bytes)?;
        }
        let cmd = self.next_cmd();
        let seg_in = self.cfg.rows / p.fh;
        if seg_in < p.fw {
            return Err(EngineError::Unsupported(format!(
                "filter width {} exceeds per-row segment {seg_in}",
                p.fw
            )));
        }
        let seg_out = (seg_in - (p.fw - 1)).min(out_w).min(self.cfg.cols);
        let in_dim = p.fh * seg_in;

        // Fetch the filter and build the Toeplitz operand.
        let mut filt = vec![0f32; p.fh * p.fw];
        let mut t = self.dma.read_f32s(mach, p.filt, &mut filt);
        let mut g = vec![0f32; in_dim * seg_out];
        for fr in 0..p.fh {
            for fc in 0..p.fw {
                for c in 0..seg_out {
                    let r = fr * seg_in + c + fc;
                    g[r * seg_out + c] = filt[fr * p.fw + fc];
                }
            }
        }
        let key = TileKey {
            base_pa: p.filt,
            ld: p.fw,
            transposed: false,
            origin: (0, 0),
            extent: (in_dim, seg_out),
            generation: self.generation,
        };
        self.stats.max_tiles_active = self.stats.max_tiles_active.max(1);
        if self.tiles[0].resident() == Some(&key) {
            self.stats.install_skips += 1;
        } else {
            let receipt = self.tiles[0].install(key, &g, in_dim, seg_out);
            let install_t = self.cfg.energy.write_time(receipt.rows_programmed);
            self.stats.cell_writes += receipt.cells_written;
            self.stats.rows_programmed += receipt.rows_programmed;
            self.stats.crossbar_write += self.cfg.energy.write_energy(receipt.cells_written);
            self.stats.install_time += install_t;
            self.buffers.stage(BufferKind::Column, in_dim * seg_out);
            self.stats.buffers += self.cfg.energy.buffer_energy(2 * (in_dim * seg_out) as u64);
            self.timeline.push_on(
                EventKind::WriteCrossbar,
                Some((0, 0)),
                Some(cmd),
                t0 + t,
                t0 + t + install_t,
                format!("install Toeplitz filter ({in_dim}x{seg_out})"),
            );
            t += install_t;
        }

        let mut v = vec![0f32; in_dim];
        let mut y = vec![0f32; seg_out];
        let mut obuf = vec![0f32; seg_out];
        let mut first = true;
        for oi in 0..out_h {
            let mut s0 = 0;
            while s0 < out_w {
                let n_out = seg_out.min(out_w - s0);
                v.fill(0.0);
                let valid = seg_in.min(p.w - s0);
                for fr in 0..p.fh {
                    let base = p.img + 4 * ((oi + fr) * p.w + s0) as u64;
                    self.dma.read_f32s(mach, base, &mut v[fr * seg_in..fr * seg_in + valid]);
                }
                let receipt = self.tiles[0].gemv_into(&v, &mut y);
                // Accumulate into the existing output (the kernel is a
                // reduction: out[i][j] += ...), read-modify-write via DMA.
                let obase = p.out + 4 * (oi * out_w + s0) as u64;
                let oseg = &mut obuf[..n_out];
                self.dma.read_f32s(mach, obase, oseg);
                for (o, yv) in oseg.iter_mut().zip(&y[..n_out]) {
                    *o += yv;
                }
                self.dma.write_f32s(mach, obase, oseg);
                let in_bytes = (p.fh * valid * 4) as u64;
                let out_bytes = (2 * n_out * 4) as u64;
                let (step, dma_t) = gemv_step_time(&self.cfg, &self.bus_cfg, in_bytes, out_bytes);
                t += step;
                let useful = (p.fh * p.fw * n_out) as u64;
                self.account_gemv(
                    receipt.active_cells,
                    useful,
                    p.fh * valid,
                    n_out,
                    receipt.extra_alu_ops,
                );
                if dma_t > self.cfg.energy.compute_time(1) {
                    self.stats.dma_exposed_time += dma_t - self.cfg.energy.compute_time(1);
                }
                if first {
                    self.timeline.push_on(
                        EventKind::Compute,
                        Some((0, 0)),
                        Some(cmd),
                        t0 + t - step,
                        t0 + t,
                        format!("conv gemv row {oi}, seg {s0} (+{n_out})"),
                    );
                    first = false;
                }
                s0 += n_out;
            }
        }
        Ok(t)
    }
}
