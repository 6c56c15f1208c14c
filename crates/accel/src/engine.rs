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
//!
//! The engine decodes and checks each command, then runs the cost walk of
//! [`crate::estimate`] with a handler that moves the data: tile
//! residency, DMA, the Toeplitz build, the GEMVs, the write-back of `C`
//! and the timeline labels. Every time, energy and wear charge lives in
//! the walk, which the estimator runs too.

use cim_machine::units::SimTime;
use cim_machine::Machine;

use crate::dma::{read_block, write_block};
use crate::estimate::{close_command, conv_geometry, walk_batch, walk_conv, walk_gemm, Step};
use crate::shard::{partition_grid, GridRegion};
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

/// Most columns of `B` one panel holds.
const PANEL: usize = 16;

/// Columns per panel for `p`: up to [`PANEL`], or one when `B` and `C`
/// overlap. Column `j` must then read `B` after the `C` columns before
/// it were written, as a one-column panel does.
fn panel_width(p: &GemmParams) -> usize {
    let end = |base: u64, rows: usize, ld: usize| {
        base + operand_bytes(rows, p.n, ld).expect("a validated operand's extent fits")
    };
    let overlap = p.b < end(p.c, p.m, p.ldc) && p.c < end(p.b, p.k, p.ldb);
    if overlap {
        1
    } else {
        PANEL.min(p.n)
    }
}

impl CimAccelerator {
    /// Executes a GEMM confined to `region` (the full grid for commands
    /// whose [`crate::regs::Reg::Region`] register is zero), returning
    /// the busy duration.
    pub(crate) fn run_gemm(
        &mut self,
        mach: &mut Machine,
        p: &GemmParams,
        region: GridRegion,
        t0: SimTime,
    ) -> Result<SimTime, EngineError> {
        let cmd = self.next_cmd();
        p.validate(mach.mem.size())?;
        let (busy, tiles) = self.gemm_on_region(mach, p, region, Some(cmd), t0);
        Ok(close_command(&mut self.stats, busy, tiles))
    }

    /// Runs a validated GEMM on the tiles of `region` along
    /// [`walk_gemm`], returning its busy time and the most tiles any
    /// wave held. Per wave, the missing blocks of `op(A)` are gathered
    /// and installed one at a time, in block order; then each column of
    /// `B` streams through every tile, reduction lanes accumulate
    /// partial columns digitally, and each output lane reads, updates
    /// and writes its `C` segment once.
    ///
    /// The columns move and multiply in panels of [`panel_width`]
    /// columns: each column charges its bursts, and the panel's last
    /// column gathers the panel's `B` and `C` rows, runs one panel GEMV
    /// per tile and writes `C` back. Every element of `C` gets the
    /// column-by-column value, bit for bit.
    fn gemm_on_region(
        &mut self,
        mach: &mut Machine,
        p: &GemmParams,
        region: GridRegion,
        cmd: Option<u64>,
        t0: SimTime,
    ) -> (SimTime, u64) {
        let CimAccelerator {
            cfg,
            bus_cfg,
            tiles,
            dma,
            timeline,
            stats,
            channel_busy,
            generation,
            ..
        } = self;
        let (tr, tc, gm, generation) = (cfg.rows, cfg.cols, cfg.grid.1, *generation);
        let compute = cfg.energy.compute_time(1);
        let tile_at = |lane: (usize, usize)| lane.0 * gm + lane.1;
        let width = panel_width(p);
        let mut g: Vec<f32> = Vec::new();
        let mut x = vec![0f32; region.shape.0 * tr * width];
        let mut cseg = vec![0f32; tc * width];
        let mut y = vec![0f32; tc * width];
        let dims = (p.m, p.n, p.k);
        walk_gemm(cfg, bus_cfg, region, dims, p.beta == 0.0, stats, channel_busy, |step| {
            match step {
                Step::Install(b) => {
                    let key = TileKey {
                        base_pa: p.a,
                        ld: p.lda,
                        transposed: p.trans_a,
                        origin: (b.m0, b.k0),
                        extent: (b.kt, b.mt),
                        generation,
                    };
                    let tile = &mut tiles[tile_at(b.lane)];
                    if tile.resident() == Some(&key) {
                        return true;
                    }
                    // Gather op(A)[m0..m0+mt][k0..k0+kt] transposed into G,
                    // one burst per row of G.
                    g.resize(b.kt * b.mt, 0.0);
                    if p.trans_a {
                        // op(A)[m][k] = A[k][m]: rows k0.. of A, cols m0..
                        for r in 0..b.kt {
                            let base = p.a + 4 * ((b.k0 + r) * p.lda + b.m0) as u64;
                            dma.read_f32s(mach, base, &mut g[r * b.mt..(r + 1) * b.mt]);
                        }
                    } else {
                        // op(A)[m][k] = A[m][k]: rows m0.. of A, cols k0..
                        let base = p.a + 4 * (b.m0 * p.lda + b.k0) as u64;
                        dma.read_f32s_transposed(mach, base, b.mt, b.kt, p.lda, &mut g);
                    }
                    tile.install(key, &g, b.kt, b.mt);
                }
                Step::Installed { block: b, t, program_start, program_t } => {
                    let start = t0 + t + program_start;
                    timeline.push_on(
                        EventKind::WriteCrossbar,
                        Some(b.lane),
                        cmd,
                        start,
                        start + program_t,
                        || format!("install A tile m0={} k0={} ({}x{})", b.m0, b.k0, b.kt, b.mt),
                    );
                }
                Step::Column { wave, j, t, reads_c } => {
                    // Column j streams one B segment per reduction lane,
                    // broadcast along the output lanes, and each output
                    // lane reads its C segment: those bursts are charged
                    // at every column, in stream order.
                    for ks in &wave.k_spans {
                        dma.charge_read(mach, ks.len);
                    }
                    if reads_c {
                        for ms in &wave.m_spans {
                            dma.charge_read(mach, ms.len);
                        }
                    }
                    if j < 2 {
                        for ms in &wave.m_spans {
                            for ks in &wave.k_spans {
                                let lane = (region.origin.0 + ks.lane, region.origin.1 + ms.lane);
                                timeline.push_on(
                                    EventKind::Compute,
                                    Some(lane),
                                    cmd,
                                    t0 + t,
                                    t0 + t + compute,
                                    || format!("gemv j={j} (tile m0={} k0={})", ms.start, ks.start),
                                );
                            }
                        }
                    }
                    // The data moves and multiplies at the panel's last
                    // column, which every wave's last column is.
                    let j0 = j - j % width;
                    if j + 1 < (j0 + width).min(p.n) {
                        return false;
                    }
                    let w = j + 1 - j0;
                    for ks in &wave.k_spans {
                        let bbase = p.b + 4 * (ks.start * p.ldb + j0) as u64;
                        let seg = &mut x[ks.lane * tr * width..][..ks.len * w];
                        read_block(&mut mach.mem, bbase, ks.len, w, p.ldb, seg);
                    }
                    for ms in &wave.m_spans {
                        let cseg = &mut cseg[..ms.len * w];
                        let cbase = p.c + 4 * (ms.start * p.ldc + j0) as u64;
                        if reads_c {
                            read_block(&mut mach.mem, cbase, ms.len, w, p.ldc, cseg);
                        }
                        if wave.first_k {
                            for c in cseg.iter_mut() {
                                *c = if p.beta == 0.0 { 0.0 } else { p.beta * *c };
                            }
                        }
                        // Reduction lanes fold into C in K-span order.
                        for ks in &wave.k_spans {
                            let lane = (region.origin.0 + ks.lane, region.origin.1 + ms.lane);
                            let seg = &x[ks.lane * tr * width..][..ks.len * w];
                            let y = &mut y[..ms.len * w];
                            tiles[tile_at(lane)].gemv_panel_into(seg, w, y);
                            for (i, crow) in cseg.chunks_exact_mut(w).enumerate() {
                                for (jj, c) in crow.iter_mut().enumerate() {
                                    *c += p.alpha * y[jj * ms.len + i];
                                }
                            }
                        }
                        // Write back (the step model charges its bus
                        // time, so no burst).
                        write_block(&mut mach.mem, cbase, ms.len, w, p.ldc, cseg);
                    }
                }
                Step::Segment { .. } => {}
            }
            false
        })
    }

    /// Executes a batch of GEMMs sharing dimensions and scales; the
    /// descriptor table holds `(addr_a, addr_b, addr_c)` triples. Batches
    /// that share `A` hit tile residency and skip reprogramming — the
    /// fusion endurance win of Listing 2.
    ///
    /// Independent elements (pairwise disjoint `C` ranges that no other
    /// element reads) are scheduled round-robin onto the disjoint tile
    /// sub-grids planned by [`partition_grid`] ([`walk_batch`]): each
    /// region runs its elements back-to-back and the batch finishes when
    /// the slowest region does, so the modeled busy time can be a
    /// fraction of the serial sum. Dependent batches fall back to the
    /// serial full-grid chain. Results are identical either way —
    /// elements always execute functionally in index order; only the
    /// timing schedule changes.
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
        // Element clocks are relative to the end of the table read.
        let (busy, tiles) = walk_batch(&regions, count, |i, region, start| {
            let cmd = self.next_cmd();
            self.gemm_on_region(mach, &params[i], region, Some(cmd), t0 + table_t + start)
        });
        Ok(close_command(&mut self.stats, table_t + busy, tiles))
    }

    /// Fresh logical command id (tags timeline events; one per armed
    /// command, one per batched element).
    pub(crate) fn next_cmd(&mut self) -> u64 {
        let id = self.cmd_seq;
        self.cmd_seq += 1;
        id
    }

    /// Executes a single-channel 2-D convolution along [`walk_conv`] by
    /// installing the filter as a doubly-blocked Toeplitz operand: word
    /// lines carry `fh` consecutive image-row segments, bit lines produce
    /// a run of output pixels, so one GEMV computes `seg_out` outputs
    /// with all `fh*fw` taps. Convolution always runs on tile `(0, 0)`;
    /// its Toeplitz operand is far smaller than a crossbar, so sharding
    /// buys nothing.
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
        let out_w = p.w - p.fw + 1;
        let mem_bytes = mach.mem.size();
        for (name, base, rows, cols) in [
            ("image", p.img, p.h, p.w),
            ("filter", p.filt, p.fh, p.fw),
            ("output", p.out, p.h - p.fh + 1, out_w),
        ] {
            check_in_memory(name, base, operand_bytes(rows, cols, cols), mem_bytes)?;
        }
        let cmd = self.next_cmd();
        let Some(geometry) = conv_geometry(&self.cfg, p.w, p.fh, p.fw) else {
            return Err(EngineError::Unsupported(format!(
                "filter width {} exceeds per-row segment {}",
                p.fw,
                self.cfg.rows / p.fh
            )));
        };
        let (seg_in, seg_out, in_dim) = geometry;

        // Fetch the filter and build the Toeplitz operand.
        let mut filt = vec![0f32; p.fh * p.fw];
        self.dma.read_f32s(mach, p.filt, &mut filt);
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

        let CimAccelerator { cfg, bus_cfg, tiles, dma, timeline, stats, .. } = self;
        let mut v = vec![0f32; in_dim];
        let mut y = vec![0f32; seg_out];
        let mut obuf = vec![0f32; seg_out];
        let mut first = true;
        let dims = (p.h, p.w, p.fh, p.fw);
        let busy = walk_conv(cfg, bus_cfg, dims, geometry, stats, |step| {
            match step {
                Step::Install(_) => {
                    if tiles[0].resident() == Some(&key) {
                        return true;
                    }
                    tiles[0].install(key, &g, in_dim, seg_out);
                }
                Step::Installed { t, program_start, program_t, .. } => {
                    let start = t0 + t + program_start;
                    timeline.push_on(
                        EventKind::WriteCrossbar,
                        Some((0, 0)),
                        Some(cmd),
                        start,
                        start + program_t,
                        || format!("install Toeplitz filter ({in_dim}x{seg_out})"),
                    );
                }
                Step::Segment { oi, s0, n_out, valid, t, step } => {
                    v.fill(0.0);
                    for fr in 0..p.fh {
                        let base = p.img + 4 * ((oi + fr) * p.w + s0) as u64;
                        dma.read_f32s(mach, base, &mut v[fr * seg_in..fr * seg_in + valid]);
                    }
                    tiles[0].gemv_into(&v, &mut y);
                    // Accumulate into the existing output (the kernel is a
                    // reduction: out[i][j] += ...), read-modify-write via
                    // DMA.
                    let obase = p.out + 4 * (oi * out_w + s0) as u64;
                    let oseg = &mut obuf[..n_out];
                    dma.read_f32s(mach, obase, oseg);
                    for (o, yv) in oseg.iter_mut().zip(&y) {
                        *o += yv;
                    }
                    dma.write_f32s(mach, obase, oseg);
                    if first {
                        timeline.push_on(
                            EventKind::Compute,
                            Some((0, 0)),
                            Some(cmd),
                            t0 + t - step,
                            t0 + t,
                            || format!("conv gemv row {oi}, seg {s0} (+{n_out})"),
                        );
                        first = false;
                    }
                }
                Step::Column { .. } => {}
            }
            false
        });
        Ok(close_command(stats, busy, 1))
    }
}
