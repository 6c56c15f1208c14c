//! Streamed execution of the `Dataset::XLarge` GEMM.
//!
//! At `XLarge` (N = 1024) a single operand spans a 4x4 grid of
//! paper-sized crossbars, and the three `gemm` operands together occupy
//! 12 MiB of physically contiguous shared memory. This module runs the
//! PolyBench `gemm` kernel (`C = beta*C + alpha*A*B`, `alpha = 2`,
//! `beta = 3`, `polybench` initial data) through the runtime API in two
//! schedules:
//!
//! * **unstreamed** — every operand resident in CMA, one
//!   `cim_blas_sgemm` call; the engine wave-plans the whole block grid;
//! * **streamed** — only `B` stays resident; `A` *and the `C`
//!   accumulator* are staged through two tile-sized panel buffers each
//!   (double-buffered), one `cim_blas_sgemm` per row panel of `C`, with
//!   the result panel read back just before its staging buffer is
//!   reused. The CMA footprint of both streamed operands is bounded by
//!   the panel size instead of `N^2`.
//!
//! Under [`DispatchMode::Async`] the streamed schedule pipelines: while
//! panel `p` computes, the host reads back panel `p-2`'s results and
//! copies panel `p+1`'s inputs into the other staging pair. Every copy
//! is an observation of *that staging buffer only*, so the runtime's
//! buffer-scoped doorbell
//! ([`cim_runtime::CimContext::cim_sync_range`]) lets it proceed while
//! the accelerator is busy — the host pays only the wait left over when
//! it finally observes a result panel. Results are bit-for-bit
//! identical across every schedule and dispatch mode, which the
//! Mini-scale tests pin against `polybench::reference_outputs`.

use cim_accel::estimate::estimate_gemm;
use cim_accel::AccelConfig;
use cim_machine::units::SimTime;
use cim_machine::{Machine, MachineConfig};
use cim_runtime::{CimContext, DispatchMode, DriverConfig, Transpose};
use polybench::{init_array, Dataset, Kernel};

const ALPHA: f32 = 2.0;
const BETA: f32 = 3.0;

/// Configuration of one streamed-GEMM run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Problem size (`n x n` operands).
    pub n: usize,
    /// Rows of `A`/`C` staged per panel (streamed schedule only).
    /// Defaults to the crossbar column count — one tile-row of output.
    pub panel_rows: usize,
    /// Host platform.
    pub machine: MachineConfig,
    /// Accelerator (device and grid already applied).
    pub accel: AccelConfig,
    /// Blocking or submit/overlap dispatch.
    pub dispatch: DispatchMode,
    /// Streamed panels or whole-operand residency.
    pub streamed: bool,
}

impl StreamConfig {
    /// The default configuration at a dataset size: streamed, blocking
    /// dispatch, panels one tile-row tall.
    pub fn new(dataset: Dataset, accel: AccelConfig) -> StreamConfig {
        StreamConfig {
            n: dataset.base_size(),
            panel_rows: accel.cols,
            machine: MachineConfig::default(),
            accel,
            dispatch: DispatchMode::Sync,
            streamed: true,
        }
    }

    /// Returns the configuration with another dispatch mode.
    pub fn with_dispatch(mut self, dispatch: DispatchMode) -> StreamConfig {
        self.dispatch = dispatch;
        self
    }

    /// Returns the unstreamed (whole-operand) variant.
    pub fn unstreamed(mut self) -> StreamConfig {
        self.streamed = false;
        self
    }
}

/// Everything one run produces: modeled times, the estimator's
/// prediction for the same shapes (lockstep), pipeline counters, the
/// CMA high-water mark, and the result bits.
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// Wall-clock time of the kernel region (first copy to result
    /// read-back).
    pub elapsed: SimTime,
    /// Accelerator busy time summed over all calls (engine-measured).
    pub accel_busy: SimTime,
    /// The estimates' busy time for the identical sequence of shapes —
    /// equal to `accel_busy` bit for bit (one cost walk prices both).
    pub predicted_busy: SimTime,
    /// Host time burnt spinning on the status register.
    pub busy_wait: SimTime,
    /// Most physical tiles concurrently active.
    pub max_tiles: u64,
    /// Panels issued (1 for the unstreamed schedule).
    pub panels: usize,
    /// In-flight commands that observation points did not have to wait
    /// for (the buffer-scoped doorbell at work; 0 under blocking
    /// dispatch).
    pub sync_skips: u64,
    /// CMA high-water mark in bytes.
    pub cma_peak: u64,
    /// Result matrix `C`, bit-exact.
    pub c_bits: Vec<u32>,
}

fn host_mat(mach: &mut Machine, name: &str, len: usize) -> u64 {
    let mut data = vec![0f32; len];
    init_array(Kernel::Gemm, name, &mut data);
    let va = mach.alloc_host((len * 4) as u64);
    mach.poke_f32_slice(va, &data);
    va
}

/// Runs the XLarge-style GEMM per `cfg`.
///
/// # Panics
///
/// Panics on runtime errors (allocation failures, device errors) — the
/// configurations the suite sweeps are all expected to run.
pub fn run_gemm(cfg: &StreamConfig) -> StreamRun {
    let n = cfg.n;
    let bytes = (n * n * 4) as u64;
    let mut mach = Machine::new(cfg.machine.clone());
    let drv_cfg = DriverConfig { dispatch: cfg.dispatch, ..DriverConfig::default() };
    let mut ctx = CimContext::new(cfg.accel, drv_cfg, &mach);
    ctx.cim_init(&mut mach, 0).expect("init");
    let bus = mach.cfg.bus;
    let acfg = *ctx.accel().config();

    // Application data lives in ordinary (pageable) host memory; only
    // what the accelerator needs becomes CMA-resident.
    let a_host = host_mat(&mut mach, "A", n * n);
    let b_host = host_mat(&mut mach, "B", n * n);
    let c_host = host_mat(&mut mach, "C", n * n);

    let b_dev = ctx.cim_malloc(&mut mach, bytes).expect("malloc B");

    let t0 = mach.now();
    ctx.cim_host_to_dev(&mut mach, b_dev, b_host, bytes).expect("h2d B");
    let mut accel_busy = SimTime::ZERO;
    let mut predicted_busy = SimTime::ZERO;
    let mut panels = 0usize;
    if cfg.streamed {
        let panel_bytes = (cfg.panel_rows * n * 4) as u64;
        let stage = |ctx: &mut CimContext, mach: &mut Machine, what: &str| {
            ctx.cim_malloc(mach, panel_bytes).unwrap_or_else(|e| panic!("malloc {what}: {e}"))
        };
        let staging_a =
            [stage(&mut ctx, &mut mach, "staging A0"), stage(&mut ctx, &mut mach, "staging A1")];
        let staging_c =
            [stage(&mut ctx, &mut mach, "staging C0"), stage(&mut ctx, &mut mach, "staging C1")];
        // Result rows each C staging buffer still holds: the readback is
        // deferred until just before the buffer is reused, so under
        // async dispatch it overlaps the in-flight panels.
        let mut held: [Option<(u64, u64)>; 2] = [None, None];
        let mut row0 = 0usize;
        while row0 < n {
            let pr = cfg.panel_rows.min(n - row0);
            let len = (pr * n * 4) as u64;
            let off = (row0 * n * 4) as u64;
            let slot = panels % 2;
            // Drain the results this staging pair computed two panels
            // ago — an observation of that C panel only.
            if let Some((prev_off, prev_len)) = held[slot].take() {
                ctx.cim_dev_to_host(&mut mach, c_host + prev_off, staging_c[slot], prev_len)
                    .expect("d2h C panel");
            }
            // Stage the next A and C panels. Under async dispatch these
            // copies are the overlapped host work: each only waits for
            // the command (two panels back) that last used its buffer.
            ctx.cim_host_to_dev(&mut mach, staging_a[slot], a_host + off, len)
                .expect("h2d A panel");
            ctx.cim_host_to_dev(&mut mach, staging_c[slot], c_host + off, len)
                .expect("h2d C panel");
            accel_busy += ctx
                .cim_blas_sgemm(
                    &mut mach,
                    Transpose::No,
                    Transpose::No,
                    pr,
                    n,
                    n,
                    ALPHA,
                    staging_a[slot],
                    n,
                    b_dev,
                    n,
                    BETA,
                    staging_c[slot],
                    n,
                )
                .expect("panel gemm");
            predicted_busy += estimate_gemm(&acfg, &bus, pr, n, n, false, false).busy;
            held[slot] = Some((off, len));
            row0 += pr;
            panels += 1;
        }
        // Drain the last (up to) two panels, oldest first.
        for i in 0..2 {
            let slot = (panels + i) % 2;
            if let Some((prev_off, prev_len)) = held[slot].take() {
                ctx.cim_dev_to_host(&mut mach, c_host + prev_off, staging_c[slot], prev_len)
                    .expect("d2h C tail");
            }
        }
    } else {
        let c_dev = ctx.cim_malloc(&mut mach, bytes).expect("malloc C");
        ctx.cim_host_to_dev(&mut mach, c_dev, c_host, bytes).expect("h2d C");
        let a_dev = ctx.cim_malloc(&mut mach, bytes).expect("malloc A");
        ctx.cim_host_to_dev(&mut mach, a_dev, a_host, bytes).expect("h2d A");
        accel_busy += ctx
            .cim_blas_sgemm(
                &mut mach,
                Transpose::No,
                Transpose::No,
                n,
                n,
                n,
                ALPHA,
                a_dev,
                n,
                b_dev,
                n,
                BETA,
                c_dev,
                n,
            )
            .expect("gemm");
        predicted_busy += estimate_gemm(&acfg, &bus, n, n, n, false, false).busy;
        panels = 1;
        // Observe the result: pays whatever wait is still outstanding.
        ctx.cim_dev_to_host(&mut mach, c_host, c_dev, bytes).expect("d2h C");
    }
    let elapsed = mach.now() - t0;

    let mut c = vec![0f32; n * n];
    mach.peek_f32_slice(c_host, &mut c);
    let busy_wait = ctx.driver().stats().busy_wait_time;
    let max_tiles = ctx.accel().stats().max_tiles_active;
    StreamRun {
        elapsed,
        accel_busy,
        predicted_busy,
        busy_wait,
        max_tiles,
        panels,
        sync_skips: ctx.stats().selective_sync_skips,
        cma_peak: mach.cma.peak_used(),
        c_bits: c.iter().map(|v| v.to_bits()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_cfg() -> StreamConfig {
        let accel = AccelConfig::test_small().with_grid(2, 2);
        StreamConfig {
            machine: MachineConfig::test_small(),
            panel_rows: 4,
            ..StreamConfig::new(Dataset::Mini, accel)
        }
    }

    /// The streamed path at Mini scale, bit-for-bit against both the
    /// unstreamed single call and the pure-Rust PolyBench reference.
    #[test]
    fn streamed_matches_unstreamed_and_reference_bit_for_bit() {
        let streamed = run_gemm(&mini_cfg());
        let unstreamed = run_gemm(&mini_cfg().unstreamed());
        assert_eq!(streamed.panels, 4);
        assert_eq!(unstreamed.panels, 1);
        assert_eq!(streamed.c_bits, unstreamed.c_bits);
        let outs = polybench::reference_outputs(Kernel::Gemm, Dataset::Mini);
        let (_, c_ref) = &outs[0];
        let ref_bits: Vec<u32> = c_ref.iter().map(|v| v.to_bits()).collect();
        assert_eq!(streamed.c_bits, ref_bits);
        // Streaming bounds the CMA footprint: B plus two panel pairs is
        // less than three whole operands.
        assert!(streamed.cma_peak < unstreamed.cma_peak);
        let n = Dataset::Mini.base_size() as u64;
        let panel_pairs = 4 * (4 * n * 4); // 2 A + 2 C panels of 4 rows
        assert_eq!(streamed.cma_peak, n * n * 4 + panel_pairs, "only B is whole-operand");
    }

    /// Async dispatch is pure schedule: identical bits, never slower,
    /// and the staging copies actually overlap (commands skipped at
    /// observation points, wait time reduced).
    #[test]
    fn async_streaming_overlaps_and_matches_sync() {
        let sync = run_gemm(&mini_cfg());
        let asynch = run_gemm(&mini_cfg().with_dispatch(DispatchMode::Async));
        assert_eq!(sync.c_bits, asynch.c_bits);
        assert_eq!(sync.sync_skips, 0);
        assert!(asynch.sync_skips > 0, "staging copies must not wait for disjoint commands");
        assert!(
            asynch.elapsed.as_ns() <= sync.elapsed.as_ns() * 1.001,
            "{} vs {}",
            asynch.elapsed,
            sync.elapsed
        );
        assert!(asynch.busy_wait < sync.busy_wait, "overlap must hide part of the wait");
    }

    /// Engine and estimator agree bit for bit on the streamed shapes.
    #[test]
    fn estimator_lockstep_on_panel_shapes() {
        for cfg in [mini_cfg(), mini_cfg().unstreamed()] {
            let run = run_gemm(&cfg);
            assert!(
                run.accel_busy == run.predicted_busy,
                "streamed={}: engine {} vs estimator {}",
                cfg.streamed,
                run.accel_busy,
                run.predicted_busy
            );
            assert!(run.max_tiles > 1, "panels must span multiple tiles");
        }
    }
}
