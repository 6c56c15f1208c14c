//! `stream_xl`: the XLarge GEMM (N = 1024, 12 MiB of operands) driven
//! through the `Machine` and `CimContext` API on a 2x2 grid, as
//! `workloads::stream::run_gemm` drives it, in three schedules:
//! unstreamed, streamed with blocking dispatch, streamed with async
//! dispatch.
//!
//! No compiler and no interpreter run here: accelerator installs and
//! GEMV waves (inside `cim_blas_sgemm`) and host copies hold the wall
//! clock, and the working set is larger than the modeled L2.

use cim_accel::AccelConfig;
use cim_machine::units::SimTime;
use cim_machine::{Machine, MachineConfig};
use cim_runtime::{CimContext, CimError, DevPtr, DispatchMode, DriverConfig, Transpose};
use polybench::{Dataset, Kernel};

use crate::oracle::{self, same_bits};
use crate::tally::{HostCounters, Tally};
use crate::trace::Tracer;
use crate::Workload;

const ALPHA: f32 = 2.0;
const BETA: f32 = 3.0;

#[derive(Clone, Copy)]
struct Schedule {
    streamed: bool,
    dispatch: DispatchMode,
}

const SCHEDULES: [Schedule; 3] = [
    Schedule { streamed: false, dispatch: DispatchMode::Sync },
    Schedule { streamed: true, dispatch: DispatchMode::Sync },
    Schedule { streamed: true, dispatch: DispatchMode::Async },
];

/// The set-up state: PolyBench `gemm` operands and the native result.
pub struct Stream {
    n: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    oracle: Vec<f32>,
    accel: AccelConfig,
}

pub fn setup() -> Stream {
    let n = Dataset::XLarge.base_size();
    let mat = |name: &str| {
        let mut m = vec![0f32; n * n];
        polybench::init_array(Kernel::Gemm, name, &mut m);
        m
    };
    let (a, b, c) = (mat("A"), mat("B"), mat("C"));
    let mut want = c.clone();
    oracle::gemm(&a, &b, &mut want, n, ALPHA, BETA);
    Stream { n, a, b, c, oracle: want, accel: crate::accel((2, 2)) }
}

/// `C = BETA * C + ALPHA * A * B` for a `rows x n` panel of `A` and `C`.
#[allow(clippy::too_many_arguments)]
fn sgemm(
    tr: &mut Tracer,
    ctx: &mut CimContext,
    mach: &mut Machine,
    rows: usize,
    n: usize,
    a: DevPtr,
    b: DevPtr,
    c: DevPtr,
) -> Result<SimTime, CimError> {
    tr.span("runtime.sgemm", || {
        ctx.cim_blas_sgemm(
            mach,
            Transpose::No,
            Transpose::No,
            rows,
            n,
            n,
            ALPHA,
            a,
            n,
            b,
            n,
            BETA,
            c,
            n,
        )
    })
}

impl Stream {
    fn host_mat(tr: &mut Tracer, mach: &mut Machine, data: &[f32]) -> u64 {
        tr.span("machine", || {
            let va = mach.alloc_host((data.len() * 4) as u64);
            mach.poke_f32_slice(va, data);
            va
        })
    }

    /// One schedule through the runtime API; returns the address of the
    /// host copy of `C` once every result panel has been read back.
    fn drive(
        &self,
        tr: &mut Tracer,
        mach: &mut Machine,
        ctx: &mut CimContext,
        s: Schedule,
    ) -> Result<u64, CimError> {
        let n = self.n;
        let bytes = (n * n * 4) as u64;
        tr.span("runtime.other", || ctx.cim_init(mach, 0))?;
        // Application data lives in pageable host memory; only what the
        // accelerator needs becomes CMA-resident.
        let a_host = Self::host_mat(tr, mach, &self.a);
        let b_host = Self::host_mat(tr, mach, &self.b);
        let c_host = Self::host_mat(tr, mach, &self.c);
        let b_dev = tr.span("runtime.malloc", || ctx.cim_malloc(mach, bytes))?;
        tr.span("runtime.h2d", || ctx.cim_host_to_dev(mach, b_dev, b_host, bytes))?;
        if !s.streamed {
            let c_dev = tr.span("runtime.malloc", || ctx.cim_malloc(mach, bytes))?;
            tr.span("runtime.h2d", || ctx.cim_host_to_dev(mach, c_dev, c_host, bytes))?;
            let a_dev = tr.span("runtime.malloc", || ctx.cim_malloc(mach, bytes))?;
            tr.span("runtime.h2d", || ctx.cim_host_to_dev(mach, a_dev, a_host, bytes))?;
            sgemm(tr, ctx, mach, n, n, a_dev, b_dev, c_dev)?;
            tr.span("runtime.d2h", || ctx.cim_dev_to_host(mach, c_host, c_dev, bytes))?;
            return Ok(c_host);
        }
        // Panels one tile-row tall, double-buffered: the result panel a
        // staging pair computed is read back just before the pair is
        // reused, so under async dispatch the copies overlap compute.
        let panel_rows = self.accel.cols;
        let panel_bytes = (panel_rows * n * 4) as u64;
        let mut stage = Vec::with_capacity(4);
        for _ in 0..4 {
            stage.push(tr.span("runtime.malloc", || ctx.cim_malloc(mach, panel_bytes))?);
        }
        let (staging_a, staging_c) = ([stage[0], stage[1]], [stage[2], stage[3]]);
        let mut held: [Option<(u64, u64)>; 2] = [None, None];
        let mut panels = 0usize;
        let mut row0 = 0usize;
        while row0 < n {
            let pr = panel_rows.min(n - row0);
            let (len, off) = ((pr * n * 4) as u64, (row0 * n * 4) as u64);
            let slot = panels % 2;
            if let Some((prev_off, prev_len)) = held[slot].take() {
                tr.span("runtime.d2h", || {
                    ctx.cim_dev_to_host(mach, c_host + prev_off, staging_c[slot], prev_len)
                })?;
            }
            tr.span("runtime.h2d", || {
                ctx.cim_host_to_dev(mach, staging_a[slot], a_host + off, len)
            })?;
            tr.span("runtime.h2d", || {
                ctx.cim_host_to_dev(mach, staging_c[slot], c_host + off, len)
            })?;
            sgemm(tr, ctx, mach, pr, n, staging_a[slot], b_dev, staging_c[slot])?;
            held[slot] = Some((off, len));
            row0 += pr;
            panels += 1;
        }
        for i in 0..2 {
            let slot = (panels + i) % 2;
            if let Some((prev_off, prev_len)) = held[slot].take() {
                tr.span("runtime.d2h", || {
                    ctx.cim_dev_to_host(mach, c_host + prev_off, staging_c[slot], prev_len)
                })?;
            }
        }
        tr.span("runtime.sync", || ctx.cim_sync(mach))?;
        Ok(c_host)
    }
}

impl Workload for Stream {
    fn iteration(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        for s in SCHEDULES {
            let mut mach = tr.span("machine", || Machine::new(MachineConfig::default()));
            let drv = DriverConfig { dispatch: s.dispatch, ..DriverConfig::default() };
            let mut ctx = tr.span("runtime.other", || CimContext::new(self.accel, drv, &mach));
            let ok = match self.drive(tr, &mut mach, &mut ctx, s) {
                Ok(c_host) => {
                    let mut c = vec![0f32; self.n * self.n];
                    tr.span("machine", || mach.peek_f32_slice(c_host, &mut c));
                    same_bits(&c, &self.oracle)
                }
                Err(_) => false,
            };
            tally.check(ok);
            tally.add_machine(&mach);
            let accel = *ctx.accel().stats();
            let drv_stats = ctx.driver().stats();
            tally.add_run(
                HostCounters::from_machine(&mach),
                Some(&drv_stats),
                Some(&accel),
                Some(ctx.stats()),
                mach.core.energy() + accel.total_energy(),
            );
        }
    }
}
