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
use crate::tile::{GemvReceipt, InstallReceipt, TileKey};
use crate::timeline::EventKind;
use crate::CimAccelerator;

/// One pending tile install of a wave: the gathered operand plus every
/// datum phase 3 needs to account for it. Produced serially (DMA order),
/// consumed by the (possibly parallel) programming phase.
struct InstallJob {
    key: TileKey,
    idx: usize,
    lane: (usize, usize),
    ch: usize,
    g: Vec<f32>,
    kt: usize,
    mt: usize,
    m0: usize,
    k0: usize,
    dma_t: SimTime,
}

/// One tile GEMV of a wave step: `(tile index, x offset, x length)`.
type GemvUnit = (usize, usize, usize);

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

impl GemmParams {
    /// Conservative physical byte ranges `(base, len)` touched by this
    /// GEMM as `[A, B, C]`, over-approximated to whole leading-dimension
    /// rows. Used to decide whether batch elements are independent and
    /// may be modeled as running concurrently on disjoint tile regions.
    fn ranges(&self) -> [(u64, u64); 3] {
        let a_rows = if self.trans_a { self.k } else { self.m };
        let span = |rows: usize, ld: usize| 4 * (rows.saturating_mul(ld)) as u64;
        [
            (self.a, span(a_rows, self.lda)),
            (self.b, span(self.k, self.ldb)),
            (self.c, span(self.m, self.ldc)),
        ]
    }

    fn validate(&self) -> Result<(), EngineError> {
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
    let overlap = |(b1, l1): (u64, u64), (b2, l2): (u64, u64)| b1 < b2 + l2 && b2 < b1 + l1;
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
    /// How many host worker threads to simulate `units` independent tiles
    /// of one wave with. `sim_threads = 0` engages the host's parallelism
    /// only for paper-geometry tiles (small test crossbars would pay more
    /// in thread spawns than they save); an explicit `n > 1` always
    /// forces `n` workers so the determinism tests can exercise the
    /// parallel path on any shape.
    fn tile_workers(&self, units: usize) -> usize {
        if units <= 1 {
            return 1;
        }
        match self.cfg.sim_threads {
            0 => {
                let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
                if hw <= 1 || self.cfg.rows * self.cfg.cols < 64 * 64 {
                    1
                } else {
                    hw.min(units)
                }
            }
            n => n.min(units),
        }
    }

    /// Programs the jobs' operands into their (pairwise distinct) target
    /// tiles, serially or on scoped worker threads, returning one receipt
    /// per job in job order. Tile programming is pure host-side work —
    /// it never touches the machine or the stats — so the execution order
    /// is unobservable and the receipts are bit-for-bit identical for any
    /// worker count.
    fn install_jobs(&mut self, jobs: &[InstallJob]) -> Vec<InstallReceipt> {
        let workers = self.tile_workers(jobs.len());
        if workers <= 1 {
            return jobs
                .iter()
                .map(|j| self.tiles[j.idx].install(j.key, &j.g, j.kt, j.mt))
                .collect();
        }
        let mut jpos_of_tile: Vec<Option<usize>> = vec![None; self.tiles.len()];
        for (jpos, job) in jobs.iter().enumerate() {
            debug_assert!(jpos_of_tile[job.idx].is_none(), "a wave installs one block per tile");
            jpos_of_tile[job.idx] = Some(jpos);
        }
        // `iter_mut` hands out provably disjoint `&mut` tiles to pair
        // with their jobs; chunks then split both sides identically.
        let mut paired: Vec<(usize, &mut crate::tile::CimTile)> = self
            .tiles
            .iter_mut()
            .enumerate()
            .filter_map(|(i, t)| jpos_of_tile[i].map(|jpos| (jpos, t)))
            .collect();
        let mut done: Vec<Option<(usize, InstallReceipt)>> = Vec::new();
        done.resize_with(paired.len(), || None);
        let chunk = paired.len().div_ceil(workers);
        std::thread::scope(|s| {
            for (pc, dc) in paired.chunks_mut(chunk).zip(done.chunks_mut(chunk)) {
                s.spawn(move || {
                    for ((jpos, tile), slot) in pc.iter_mut().zip(dc.iter_mut()) {
                        let job = &jobs[*jpos];
                        *slot = Some((*jpos, tile.install(job.key, &job.g, job.kt, job.mt)));
                    }
                });
            }
        });
        let zero = InstallReceipt { rows_programmed: 0, cells_written: 0, resident_hit: false };
        let mut receipts = vec![zero; jobs.len()];
        for (jpos, receipt) in done.into_iter().flatten() {
            receipts[jpos] = receipt;
        }
        receipts
    }

    /// Computes one wave step's tile GEMVs ahead of the accounting loop,
    /// in parallel, returning results in unit order. `None` means "stay
    /// serial": the caller computes each GEMV inline at its original
    /// program point. GEMV reads tiles immutably and never touches the
    /// machine, so hoisting it off the accounting loop changes nothing
    /// observable.
    fn gemv_units(&self, units: &[GemvUnit], x: &[f32]) -> Option<Vec<(Vec<f32>, GemvReceipt)>> {
        let workers = self.tile_workers(units.len());
        if workers <= 1 {
            return None;
        }
        let mut out: Vec<Option<(Vec<f32>, GemvReceipt)>> = Vec::new();
        out.resize_with(units.len(), || None);
        let chunk = units.len().div_ceil(workers);
        let tiles = &self.tiles;
        std::thread::scope(|s| {
            for (uc, oc) in units.chunks(chunk).zip(out.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (&(idx, s0, len), slot) in uc.iter().zip(oc.iter_mut()) {
                        *slot = Some(tiles[idx].gemv(&x[s0..s0 + len]));
                    }
                });
            }
        });
        Some(out.into_iter().map(|o| o.expect("worker filled every slot")).collect())
    }

    /// Installs one wave's missing blocks on the [`InstallClock`]
    /// schedule (serial DMA, parallel row programming). Returns the
    /// phase duration (zero when everything was resident). Lanes are
    /// relative to `region`, which pins the wave to a sub-array of the
    /// physical grid.
    ///
    /// Three phases: (1) serial residency checks + DMA gathers in block
    /// order — DMA mutates the machine, so its issue order is part of the
    /// model; (2) pure tile programming, parallelizable across the wave's
    /// distinct tiles; (3) serial accounting in block order, so stats,
    /// timeline and the install clock are identical for any worker count.
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
        let mut jobs: Vec<InstallJob> = Vec::new();
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
                // Gather op(A)[m0..m0+mt][k0..k0+kt] transposed into G.
                let mut g = vec![0f32; kt * mt];
                for r in 0..kt {
                    if p.trans_a {
                        // op(A)[m][k] = A[k][m]: row k0+r of A, cols m0..
                        let base = p.a + 4 * ((k0 + r) * p.lda + m0) as u64;
                        self.dma.read_f32s(mach, base, &mut g[r * mt..(r + 1) * mt]);
                    } else {
                        // op(A)[m][k] = A[m][k]: column k0+r of A, rows m0..
                        let base = p.a + 4 * (m0 * p.lda + k0 + r) as u64;
                        self.dma.read_f32s_strided(
                            mach,
                            base,
                            mt,
                            p.lda,
                            &mut g[r * mt..(r + 1) * mt],
                        );
                    }
                }
                let tile_bytes = (kt * mt * 4) as u64;
                let dma_t = self.bus_cfg.dma_time(tile_bytes);
                // Per-tile DMA channel: the wave-local tile picks its
                // channel, identically replayed by the estimator.
                let ch = (ks.lane * region.shape.1 + ms.lane) % channels;
                self.buffers.stage(BufferKind::Column, kt * mt);
                self.stats.buffers += self.cfg.energy.buffer_energy(2 * (kt * mt) as u64);
                jobs.push(InstallJob { key, idx, lane, ch, g, kt, mt, m0, k0, dma_t });
            }
        }
        let receipts = self.install_jobs(&jobs);
        let mut channel_mask = 0u32;
        for (job, receipt) in jobs.iter().zip(&receipts) {
            debug_assert!(!receipt.resident_hit);
            let install_t = self.cfg.energy.write_time(receipt.rows_programmed);
            self.stats.cell_writes += receipt.cells_written;
            self.stats.rows_programmed += receipt.rows_programmed;
            self.stats.crossbar_write += self.cfg.energy.write_energy(receipt.cells_written);
            self.stats.install_time += install_t;
            self.stats.dma_exposed_time += job.dma_t;
            self.channel_busy[job.ch] += job.dma_t;
            channel_mask |= 1 << job.ch;
            let program_start = clock.add_on(job.ch, job.dma_t, install_t);
            self.timeline.push_on(
                EventKind::WriteCrossbar,
                Some(job.lane),
                cmd,
                t0 + t + program_start,
                t0 + t + program_start + install_t,
                format!("install A tile m0={} k0={} ({}x{})", job.m0, job.k0, job.kt, job.mt),
            );
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
        p.validate()?;
        let tr = self.cfg.rows;
        let tc = self.cfg.cols;
        let waves = plan_waves(tr, tc, region.shape, p.m, p.k);
        let mut t = SimTime::ZERO;
        let mut tiles_peak = 0u64;
        let mut x = vec![0f32; region.shape.0 * tr];
        let mut cseg = vec![0f32; tc];

        for wave in &waves {
            tiles_peak = tiles_peak.max(wave.tiles_active() as u64);
            t += self.install_wave(mach, p, region, cmd, wave, t0, t);

            // The wave's tile GEMVs in accounting order — used to compute
            // each step's results ahead of the serial loop when worker
            // threads are engaged.
            let mut units: Vec<GemvUnit> = Vec::with_capacity(wave.tiles_active());
            for ms in &wave.m_spans {
                for ks in &wave.k_spans {
                    let idx =
                        self.tile_index((region.origin.0 + ks.lane, region.origin.1 + ms.lane));
                    units.push((idx, ks.lane * tr, ks.len));
                }
            }

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
                let mut precomputed = self.gemv_units(&units, &x).map(Vec::into_iter);
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
                        let (y, receipt) = match precomputed.as_mut() {
                            Some(it) => it.next().expect("one result per unit"),
                            None => self.tiles[idx].gemv(seg),
                        };
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
                    // Scatter back (strided store, element-wise).
                    for i in 0..mt {
                        let addr = cbase + 4 * (i * p.ldc) as u64;
                        mach.uncached_write(addr, &cseg[i].to_le_bytes());
                    }
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
        let (descr, table_t) = self.dma.read_u64s(mach, table_pa, count * 3);
        let params: Vec<GemmParams> = (0..count)
            .map(|i| GemmParams {
                a: descr[3 * i],
                b: descr[3 * i + 1],
                c: descr[3 * i + 2],
                ..*template
            })
            .collect();
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
        let cmd = self.next_cmd();
        let out_h = p.h - p.fh + 1;
        let out_w = p.w - p.fw + 1;
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
        let mut first = true;
        for oi in 0..out_h {
            let mut s0 = 0;
            while s0 < out_w {
                let n_out = seg_out.min(out_w - s0);
                v.iter_mut().for_each(|x| *x = 0.0);
                let valid = seg_in.min(p.w - s0);
                for fr in 0..p.fh {
                    let base = p.img + 4 * ((oi + fr) * p.w + s0) as u64;
                    let mut seg = vec![0f32; valid];
                    self.dma.read_f32s(mach, base, &mut seg);
                    v[fr * seg_in..fr * seg_in + valid].copy_from_slice(&seg);
                }
                let (y, receipt) = self.tiles[0].gemv(&v);
                // Accumulate into the existing output (the kernel is a
                // reduction: out[i][j] += ...), read-modify-write via DMA.
                let obase = p.out + 4 * (oi * out_w + s0) as u64;
                let mut oseg = vec![0f32; n_out];
                self.dma.read_f32s(mach, obase, &mut oseg);
                for (o, yv) in oseg.iter_mut().zip(&y[..n_out]) {
                    *o += yv;
                }
                self.dma.write_f32s(mach, obase, &oseg);
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
