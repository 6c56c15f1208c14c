//! Costed execution of compiled programs on the simulated platform.
//!
//! The "back-end" of the flow: the loop IR runs on the Arm-A7 cost model
//! (every dynamic instruction retired, every access through the cache
//! simulator), and `polly_cim*` calls dispatch into the real runtime
//! library, driver and accelerator. Host-only and host+CIM binaries are
//! therefore measured by the same machinery — the methodology of
//! Section IV with ROI markers around the kernel.

use crate::options::ExecOptions;
use crate::pipeline::CompiledProgram;
use cim_accel::AccelStats;
use cim_machine::cpu::InstClass;
use cim_machine::units::{Energy, SimTime};
use cim_machine::Machine;
use cim_runtime::driver::DriverStats;
use cim_runtime::{CimContext, CimError, DevPtr, RuntimeStats, Transpose};
use std::fmt;
use tdo_ir::calls::{CimCall, ResolvedCall};
use tdo_ir::interp::{run, Backend, CostEvent, InterpError};
use tdo_ir::{ArrayId, Program, Stmt};

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError(pub InterpError);

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution failed: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// Host-side counters of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostStats {
    /// Retired instructions (including driver and spin-wait).
    pub instructions: u64,
    /// Instructions burnt spinning on the accelerator.
    pub spin_instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Memory stall cycles.
    pub stall_cycles: u64,
    /// Wall-clock time of the run.
    pub time: SimTime,
    /// Host energy (instructions x 128 pJ).
    pub energy: Energy,
}

/// Complete result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Host counters.
    pub host: HostStats,
    /// Accelerator counters (when a CIM context was created).
    pub accel: Option<AccelStats>,
    /// Runtime-library call counters.
    pub runtime: Option<RuntimeStats>,
    /// Driver counters.
    pub driver: Option<DriverStats>,
    /// Final contents of every array, in declaration order.
    pub arrays: Vec<(String, Vec<f32>)>,
    /// Rendered accelerator timeline (when recording was enabled).
    pub timeline: Option<String>,
}

impl RunResult {
    /// Total energy: host + accelerator (DRAM excluded on both sides, as
    /// in the paper: "the host and CIM-accelerator generate the same
    /// amount of traffic by accessing the same data").
    pub fn total_energy(&self) -> Energy {
        self.host.energy + self.accel.map_or(Energy::ZERO, |a| a.total_energy())
    }

    /// Wall-clock time (host time already covers accelerator waits).
    pub fn wall_time(&self) -> SimTime {
        self.host.time
    }

    /// Energy-delay product in joule-seconds.
    pub fn edp(&self) -> f64 {
        cim_machine::units::edp(self.total_energy(), self.wall_time())
    }

    /// Contents of an array by name.
    pub fn array(&self, name: &str) -> Option<&[f32]> {
        self.arrays.iter().find(|(n, _)| n == name).map(|(_, d)| d.as_slice())
    }

    /// MACs per CIM write (infinite when nothing was offloaded).
    pub fn macs_per_write(&self) -> f64 {
        self.accel.map_or(f64::INFINITY, |a| a.macs_per_write())
    }
}

/// Executes a compiled program. `init` is called once per array (by name)
/// to fill initial data; scalars receive their declared initializer first.
///
/// # Errors
///
/// [`ExecError`] on interpreter or device failures.
pub fn execute(
    compiled: &CompiledProgram,
    opts: &ExecOptions,
    init: &dyn Fn(&str, &mut [f32]),
) -> Result<RunResult, ExecError> {
    let prog = &compiled.prog;
    let mut mach = Machine::new(opts.machine.clone());
    let device_destined = malloc_targets(prog);

    // Allocate and initialize arrays: device-destined ones in the CMA
    // carve-out (zero-copy shared memory), the rest on the host heap.
    let mut base = Vec::with_capacity(prog.arrays.len());
    let mut cma_ptr: Vec<Option<DevPtr>> = Vec::with_capacity(prog.arrays.len());
    for (idx, decl) in prog.arrays.iter().enumerate() {
        let bytes = (decl.elem_count() * 4) as u64;
        let id = ArrayId(idx);
        let va = if device_destined.contains(&id) {
            let (va, pa) = mach
                .alloc_cma(bytes)
                .map_err(|e| ExecError(InterpError::Backend(e.to_string())))?;
            cma_ptr.push(Some(DevPtr { va, pa, len: bytes }));
            va
        } else {
            cma_ptr.push(None);
            mach.alloc_host(bytes)
        };
        base.push(va);
        let mut data = vec![0f32; decl.elem_count()];
        if let Some(v) = decl.scalar_init {
            data[0] = v as f32;
        }
        init(&decl.name, &mut data);
        mach.poke_f32_slice(va, &data);
    }

    let mut accel_cfg = opts.accel;
    if !opts.record_timeline {
        accel_cfg.timeline_capacity = 0;
    }
    let mut backend = MachineBackend {
        prog,
        mach,
        base,
        cma_ptr,
        device: vec![None; prog.arrays.len()],
        ctx: None,
        accel_cfg,
        driver_cfg: opts.driver,
    };
    run(prog, &mut backend).map_err(ExecError)?;

    // Under async dispatch the program may end with commands still in
    // flight (e.g. a trailing batched call): the run is not over until
    // the host has paid the residual wait for every one of them.
    if let Some(ctx) = backend.ctx.as_mut() {
        ctx.cim_sync(&mut backend.mach).map_err(cim_err).map_err(ExecError)?;
    }

    // Harvest results.
    let mut arrays = Vec::with_capacity(prog.arrays.len());
    for (idx, decl) in prog.arrays.iter().enumerate() {
        let mut data = vec![0f32; decl.elem_count()];
        backend.mach.peek_f32_slice(backend.base[idx], &mut data);
        arrays.push((decl.name.clone(), data));
    }
    let core = &backend.mach.core;
    let host = HostStats {
        instructions: core.instructions(),
        spin_instructions: core.spin_instructions(),
        cycles: core.cycles(),
        stall_cycles: core.stall_cycles(),
        time: core.elapsed(),
        energy: core.energy(),
    };
    let timeline = backend
        .ctx
        .as_ref()
        .filter(|_| opts.record_timeline)
        .map(|c| c.accel().timeline().render());
    Ok(RunResult {
        host,
        accel: backend.ctx.as_ref().map(|c| *c.accel().stats()),
        runtime: backend.ctx.as_ref().map(|c| *c.stats()),
        driver: backend.ctx.as_ref().map(|c| c.driver().stats()),
        arrays,
        timeline,
    })
}

/// Arrays passed to `polly_cimMalloc` anywhere in the program.
fn malloc_targets(prog: &Program) -> Vec<ArrayId> {
    let mut out = Vec::new();
    for s in &prog.body {
        s.visit(&mut |s| {
            if let Stmt::Call(CimCall::Malloc(a)) = s {
                if !out.contains(a) {
                    out.push(*a);
                }
            }
        });
    }
    out
}

struct MachineBackend<'p> {
    prog: &'p Program,
    mach: Machine,
    base: Vec<u64>,
    cma_ptr: Vec<Option<DevPtr>>,
    device: Vec<Option<DevPtr>>,
    ctx: Option<CimContext>,
    accel_cfg: cim_accel::AccelConfig,
    driver_cfg: cim_runtime::DriverConfig,
}

impl<'p> MachineBackend<'p> {
    /// The device pointer of `a` from its `(row, col)` origin on, for a
    /// leading dimension of `ld`. An origin whose byte offset or address
    /// passes `u64::MAX` is an error, never a wrapped pointer.
    fn view(&self, a: ArrayId, off: (usize, usize), ld: usize) -> Result<DevPtr, InterpError> {
        let name = &self.prog.array(a).name;
        let ptr = self.device[a.0].ok_or_else(|| {
            InterpError::Backend(format!(
                "array {name} used on device before {}",
                CimCall::Malloc(a).callee()
            ))
        })?;
        let delta = off
            .0
            .checked_mul(ld)
            .and_then(|e| e.checked_add(off.1))
            .and_then(|e| u64::try_from(e).ok()?.checked_mul(4));
        let ends = delta.and_then(|d| Some((d, ptr.va.checked_add(d)?, ptr.pa.checked_add(d)?)));
        let Some((delta, va, pa)) = ends else {
            return Err(InterpError::Backend(format!(
                "view of array {name} at origin {off:?} (ld {ld}) overflows the address space"
            )));
        };
        Ok(DevPtr { va, pa, len: ptr.len.saturating_sub(delta) })
    }

    fn dev(&self, a: ArrayId) -> Result<DevPtr, InterpError> {
        self.view(a, (0, 0), 0)
    }

    fn ctx(&mut self) -> Result<(&mut CimContext, &mut Machine), InterpError> {
        match self.ctx.as_mut() {
            Some(ctx) => Ok((ctx, &mut self.mach)),
            None => Err(InterpError::Backend(format!(
                "runtime call before {}",
                CimCall::Init(0).callee()
            ))),
        }
    }
}

fn cim_err(e: CimError) -> InterpError {
    InterpError::Backend(e.to_string())
}

impl<'p> Backend for MachineBackend<'p> {
    fn load(&mut self, array: ArrayId, flat: usize) -> f32 {
        self.mach.host_load_f32(self.base[array.0] + 4 * flat as u64)
    }

    fn store(&mut self, array: ArrayId, flat: usize, v: f32) {
        self.mach.host_store_f32(self.base[array.0] + 4 * flat as u64, v);
    }

    fn prefers_bulk_runs(&self) -> bool {
        // The machine charges a run's aggregate stall in one call; values
        // and instruction totals are unchanged, so let the fast
        // interpreter batch per-array runs.
        true
    }

    fn load_run(&mut self, array: ArrayId, flat: i64, stride: i64, out: &mut [f32]) {
        let va = (self.base[array.0] as i64 + 4 * flat) as u64;
        self.mach.host_load_f32_run(va, 4 * stride, out);
    }

    fn store_run(&mut self, array: ArrayId, flat: i64, stride: i64, data: &[f32]) {
        let va = (self.base[array.0] as i64 + 4 * flat) as u64;
        self.mach.host_store_f32_run(va, 4 * stride, data);
    }

    fn cost(&mut self, ev: CostEvent, n: u64) {
        let class = match ev {
            CostEvent::IntAlu => InstClass::IntAlu,
            CostEvent::IntMul => InstClass::IntMul,
            CostEvent::FpAdd => InstClass::FpAdd,
            CostEvent::FpMul => InstClass::FpMul,
            CostEvent::FpDiv => InstClass::FpDiv,
            CostEvent::Load => InstClass::Load,
            CostEvent::Store => InstClass::Store,
            CostEvent::Cmp => InstClass::IntAlu,
            CostEvent::Branch => InstClass::Branch,
            CostEvent::CallOverhead => InstClass::Other,
        };
        self.mach.core.retire(class, n);
    }

    fn call(&mut self, call: &ResolvedCall<'_>) -> Result<(), InterpError> {
        let done = match *call {
            ResolvedCall::Init(device) => {
                let mut ctx = CimContext::new(self.accel_cfg, self.driver_cfg, &self.mach);
                ctx.cim_init(&mut self.mach, device).map_err(cim_err)?;
                self.ctx = Some(ctx);
                Ok(())
            }
            ResolvedCall::Malloc(a) => {
                let ptr = self.cma_ptr[a.0].ok_or_else(|| {
                    InterpError::Backend(format!(
                        "array {} was not placed in the CMA region",
                        self.prog.array(a).name
                    ))
                })?;
                let (ctx, mach) = self.ctx()?;
                ctx.cim_adopt(mach, ptr).map_err(cim_err)?;
                self.device[a.0] = Some(ptr);
                Ok(())
            }
            ResolvedCall::HostToDev(a) => {
                let ptr = self.dev(a)?;
                let (ctx, mach) = self.ctx()?;
                ctx.cim_sync_to_dev(mach, ptr)
            }
            ResolvedCall::DevToHost(a) => {
                let ptr = self.dev(a)?;
                let (ctx, mach) = self.ctx()?;
                ctx.cim_sync_to_host(mach, ptr)
            }
            ResolvedCall::Pin(a) => {
                let ptr = self.dev(a)?;
                let (ctx, mach) = self.ctx()?;
                ctx.cim_pin(mach, ptr)
            }
            ResolvedCall::Gemm(g) => {
                let (s, (a, b, c), [a_off, b_off, c_off]) = (g.shape, g.operands, g.origins);
                let (a, b, c) = (
                    self.view(a, a_off, s.lda)?,
                    self.view(b, b_off, s.ldb)?,
                    self.view(c, c_off, s.ldc)?,
                );
                let (ctx, mach) = self.ctx()?;
                let (alpha, beta) = (s.alpha as f32, s.beta as f32);
                let trans_a = if s.trans_a { Transpose::Yes } else { Transpose::No };
                ctx.cim_blas_sgemm(
                    mach,
                    trans_a,
                    Transpose::No,
                    s.m,
                    s.n,
                    s.k,
                    alpha,
                    a,
                    s.lda,
                    b,
                    s.ldb,
                    beta,
                    c,
                    s.ldc,
                )
                .map(drop)
            }
            ResolvedCall::Gemv(g) => {
                let (a, x, y) = (self.dev(g.a)?, self.dev(g.x)?, self.dev(g.y)?);
                let (ctx, mach) = self.ctx()?;
                let trans = if g.trans_a { Transpose::Yes } else { Transpose::No };
                let (m, k, lda, alpha, beta) = (g.m, g.k, g.lda, g.alpha as f32, g.beta as f32);
                ctx.cim_blas_sgemv(mach, trans, m, k, alpha, a, lda, x, beta, y).map(drop)
            }
            ResolvedCall::Batched { shape: s, problems } => {
                let mut al = Vec::with_capacity(problems.len());
                let mut bl = Vec::with_capacity(problems.len());
                let mut cl = Vec::with_capacity(problems.len());
                for &(a, b, c) in problems {
                    al.push(self.dev(a)?);
                    bl.push(self.dev(b)?);
                    cl.push(self.dev(c)?);
                }
                let (ctx, mach) = self.ctx()?;
                let (alpha, beta) = (s.alpha as f32, s.beta as f32);
                let trans_a = if s.trans_a { Transpose::Yes } else { Transpose::No };
                ctx.cim_blas_gemm_batched(
                    mach,
                    trans_a,
                    Transpose::No,
                    s.m,
                    s.n,
                    s.k,
                    alpha,
                    &al,
                    s.lda,
                    &bl,
                    s.ldb,
                    beta,
                    &cl,
                    s.ldc,
                )
                .map(drop)
            }
            ResolvedCall::Conv(c) => {
                let (img, filt, out) = (self.dev(c.img)?, self.dev(c.filt)?, self.dev(c.out)?);
                let (ctx, mach) = self.ctx()?;
                ctx.cim_conv2d(mach, img, c.h, c.w, filt, c.fh, c.fw, out).map(drop)
            }
        };
        done.map_err(cim_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CompileOptions;
    use crate::pipeline::compile;

    const GEMM: &str = r#"
        const int N = 8;
        float A[N][N]; float B[N][N]; float C[N][N];
        void kernel() {
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                C[i][j] += A[i][k] * B[k][j];
        }
    "#;

    fn small_opts() -> ExecOptions {
        ExecOptions {
            machine: cim_machine::MachineConfig::test_small(),
            accel: cim_accel::AccelConfig::test_small(),
            ..ExecOptions::default()
        }
    }

    fn det_init(name: &str, data: &mut [f32]) {
        let seed = name.bytes().map(|b| b as usize).sum::<usize>();
        for (j, v) in data.iter_mut().enumerate() {
            *v = ((seed + j * 7) % 11) as f32 - 5.0;
        }
    }

    #[test]
    fn host_and_offloaded_runs_agree_exactly() {
        let host = compile(GEMM, &CompileOptions::host_only()).expect("compiles");
        let cim = compile(GEMM, &CompileOptions::with_tactics()).expect("compiles");
        let r1 = execute(&host, &small_opts(), &det_init).expect("host runs");
        let r2 = execute(&cim, &small_opts(), &det_init).expect("cim runs");
        assert_eq!(r1.array("C").unwrap(), r2.array("C").unwrap());
        assert!(r2.accel.is_some());
        assert!(r1.accel.is_none());
    }

    #[test]
    fn host_run_counts_instructions_and_energy() {
        let host = compile(GEMM, &CompileOptions::host_only()).expect("compiles");
        let r = execute(&host, &small_opts(), &det_init).expect("runs");
        // 512 MACs plus loop overhead: thousands of instructions.
        assert!(r.host.instructions > 4000, "{}", r.host.instructions);
        assert!(r.total_energy().as_pj() > 0.0);
        assert!(r.edp() > 0.0);
        // Instruction count drives energy at 128 pJ/inst.
        let expect = r.host.instructions as f64 * 128.0;
        assert!((r.host.energy.as_pj() - expect).abs() < 1e-6);
    }

    #[test]
    fn offloaded_run_reports_accel_stats() {
        let cim = compile(GEMM, &CompileOptions::with_tactics()).expect("compiles");
        let r = execute(&cim, &small_opts(), &det_init).expect("runs");
        let acc = r.accel.expect("accelerator used");
        assert!(acc.gemv_count > 0);
        assert!(acc.cell_writes > 0);
        assert!(acc.macs >= 512);
        assert!(r.host.spin_instructions > 0, "driver spin-waits by default");
        let rt = r.runtime.expect("runtime stats");
        assert_eq!(rt.gemm_calls, 1);
        assert!(rt.malloc_calls >= 3);
    }

    #[test]
    fn timeline_recording() {
        let cim = compile(GEMM, &CompileOptions::with_tactics()).expect("compiles");
        let opts = ExecOptions { record_timeline: true, ..small_opts() };
        let r = execute(&cim, &opts, &det_init).expect("runs");
        let tl = r.timeline.expect("timeline recorded");
        assert!(tl.contains("write-crossbar"));
        assert!(tl.contains("result-ready"));
    }

    #[test]
    fn conservative_runtime_reinstalls_per_call() {
        // Two consecutive GEMMs on the same operands under the
        // conservative schedule: the paper's runtime syncs every input
        // before each call, so A is installed twice.
        let src = r#"
            const int N = 8;
            float A[N][N]; float B[N][N]; float C[N][N]; float D[N][N];
            void kernel() {
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    C[i][j] += A[i][k] * B[k][j];
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    D[i][j] += A[i][k] * B[k][j];
            }
        "#;
        // Disable fusion so two separate sgemm calls are emitted; use the
        // legacy detect-only pipeline so the schedule stays conservative
        // (the default pipeline would pin A and skip the second install).
        let mut opts = CompileOptions::without_dataflow();
        opts.tactics.fusion = false;
        let cim = compile(src, &opts).expect("compiles");
        assert_eq!(cim.pseudo_c().matches("polly_cimBlasSGemm").count(), 2);
        let r = execute(&cim, &small_opts(), &det_init).expect("runs");
        assert_eq!(r.accel.expect("accel").rows_programmed, 16);
    }

    #[test]
    fn async_dispatch_matches_sync_for_batched_program() {
        use cim_runtime::DispatchMode;
        // Fusion turns the two GEMMs sharing A into one
        // polly_cimBlasGemmBatched call — the interpreter dispatches it
        // through the async submit path when the driver is configured so.
        let src = r#"
            const int N = 8;
            float A[N][N]; float B[N][N]; float C[N][N]; float D[N][N];
            void kernel() {
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    C[i][j] += A[i][k] * B[k][j];
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    D[i][j] += A[i][k] * B[k][j];
            }
        "#;
        let cim = compile(src, &CompileOptions::with_tactics()).expect("compiles");
        assert!(cim.pseudo_c().contains("polly_cimBlasGemmBatched"));
        let sync_run = execute(&cim, &small_opts(), &det_init).expect("sync runs");
        let async_opts = small_opts().with_dispatch(DispatchMode::Async);
        let async_run = execute(&cim, &async_opts, &det_init).expect("async runs");
        // Dispatch mode is pure schedule: results are bit-for-bit equal.
        assert_eq!(sync_run.array("C").unwrap(), async_run.array("C").unwrap());
        assert_eq!(sync_run.array("D").unwrap(), async_run.array("D").unwrap());
        assert!(async_run.runtime.expect("runtime stats").async_submits > 0);
        assert_eq!(sync_run.runtime.expect("runtime stats").async_submits, 0);
        // With no host work between submit and the d2h sync, async pays
        // the same wait — it must never be slower than blocking.
        let (t_async, t_sync) = (async_run.host.time.as_ns(), sync_run.host.time.as_ns());
        assert!(t_async <= t_sync * 1.001, "{t_async} vs {t_sync}");
    }

    #[test]
    fn dataflow_schedule_is_bit_identical_and_skips_installs() {
        // Two kernels sharing the stationary operand, followed by host
        // code independent of the first result: the offload dataflow
        // graph elides the redundant h2d syncs, pins A, and sinks the
        // d2h of C past the second kernel. Results must match the
        // conservative schedule bit for bit in both dispatch modes,
        // while the pinned operand installs once instead of twice.
        use cim_runtime::DispatchMode;
        let src = r#"
            const int N = 8;
            float A[N][N]; float B[N][N]; float C[N][N]; float D[N][N]; float s[N];
            void kernel() {
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    C[i][j] += A[i][k] * B[k][j];
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    D[i][j] += A[i][k] * B[k][j];
              for (int i = 0; i < N; i++)
                s[i] = s[i] + 1.0;
            }
        "#;
        let mut base_copts = CompileOptions::without_dataflow();
        base_copts.tactics.fusion = false;
        // The dataflow pipeline is the default — no opt-in needed.
        let mut df_copts = CompileOptions::default();
        df_copts.tactics.fusion = false;
        let baseline = compile(src, &base_copts).expect("compiles");
        let optimized = compile(src, &df_copts).expect("compiles");
        assert!(!baseline.dataflow_optimized());
        assert!(optimized.dataflow_optimized());
        assert!(optimized.pass_counter("hoisted_syncs") >= 1, "{:?}", optimized.passes);
        assert!(optimized.pass_counter("elided_syncs") >= 1, "{:?}", optimized.passes);
        assert_eq!(optimized.pass_counter("pins"), 1, "{:?}", optimized.passes);
        let base_run = execute(&baseline, &small_opts(), &det_init).expect("baseline runs");
        for dispatch in [DispatchMode::Sync, DispatchMode::Async] {
            let opts = small_opts().with_dispatch(dispatch);
            let run = execute(&optimized, &opts, &det_init).expect("optimized runs");
            for name in ["C", "D", "s"] {
                assert_eq!(
                    base_run.array(name).unwrap(),
                    run.array(name).unwrap(),
                    "{name} diverged under {dispatch:?}"
                );
            }
            let acc = run.accel.expect("accel");
            let base_acc = base_run.accel.expect("accel");
            // The pinned A installs once (8 rows); the conservative
            // schedule re-installs it for the second kernel.
            assert_eq!(base_acc.rows_programmed, 16);
            assert_eq!(acc.rows_programmed, 8, "{dispatch:?}");
            assert!(acc.install_skips >= 1, "{dispatch:?}");
            let rt = run.runtime.expect("runtime stats");
            assert_eq!(rt.pin_calls, 1);
            assert!(rt.pin_hits >= 1);
        }
    }

    #[test]
    fn kernel_overwritten_operand_is_not_served_from_stale_residency() {
        // Regression: A is the pinned stationary operand of two kernels,
        // then a *device kernel* overwrites A, then a fourth kernel uses
        // A again. The dataflow pass must not let that last kernel hit a
        // pre-overwrite crossbar install — the kernel write ends A's
        // clean window (graph side) and the runtime invalidates
        // residency over every dispatched command's write ranges
        // (runtime side), so results stay bit-for-bit identical to the
        // conservative schedule.
        use cim_runtime::DispatchMode;
        let src = r#"
            const int N = 8;
            float A[N][N]; float B[N][N]; float X[N][N]; float W[N][N];
            float Y[N][N]; float Z[N][N]; float U[N][N];
            void kernel() {
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    Y[i][j] += A[i][k] * B[k][j];
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    Z[i][j] += A[i][k] * B[k][j];
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    A[i][j] += X[i][k] * W[k][j];
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    U[i][j] += A[i][k] * B[k][j];
            }
        "#;
        let mut base_copts = CompileOptions::without_dataflow();
        base_copts.tactics.fusion = false;
        let mut df_copts = CompileOptions::default();
        df_copts.tactics.fusion = false;
        let baseline = compile(src, &base_copts).expect("compiles");
        let optimized = compile(src, &df_copts).expect("compiles");
        // A's reuse window ends at the overwriting kernel: exactly one
        // pin, covering the first two kernels only.
        assert_eq!(optimized.pass_counter("pins"), 1, "{:?}", optimized.passes);
        let opts_grid = ExecOptions { ..small_opts() }.with_tile_grid(2, 2);
        let base_run = execute(&baseline, &opts_grid, &det_init).expect("baseline runs");
        for dispatch in [DispatchMode::Sync, DispatchMode::Async] {
            let run = execute(&optimized, &opts_grid.clone().with_dispatch(dispatch), &det_init)
                .expect("optimized runs");
            for name in ["Y", "Z", "A", "U"] {
                assert_eq!(
                    base_run.array(name).unwrap(),
                    run.array(name).unwrap(),
                    "{name} diverged under {dispatch:?}"
                );
            }
        }
    }

    /// A `polly_cimBlasSGemmView` whose `A` row origin is 2^61 on a 4x4
    /// `A` (ld 4): the byte offset `4 * (row * ld + col)` is 2^65. It must
    /// be rejected, not wrapped to 0 (which read `A` from its first row)
    /// and not a panic.
    #[test]
    fn view_origin_whose_offset_overflows_is_rejected() {
        use tdo_ir::calls::{GemmCall, GemmExtent, TileView};
        use tdo_ir::Expr;
        let mut prog = Program::new("view-overflow");
        let [a, b, c] = ["A", "B", "C"].map(|n| prog.add_array(n, vec![4, 4]));
        let int = |v: i64| Expr::Int(v);
        let view = TileView {
            m: int(4),
            n: int(4),
            k: int(4),
            a_off: (int(1 << 61), int(0)),
            b_off: (int(0), int(0)),
            c_off: (int(0), int(0)),
        };
        let gemm = GemmCall {
            trans_a: false,
            extent: GemmExtent::View(Box::new(view)),
            alpha: Expr::Float(1.0),
            a,
            lda: 4,
            b,
            ldb: 4,
            beta: Expr::Float(0.0),
            c,
            ldc: 4,
        };
        let mut calls = vec![CimCall::Init(0)];
        calls.extend([a, b, c].map(CimCall::Malloc));
        calls.push(CimCall::Gemm(Box::new(gemm)));
        prog.body = calls.into_iter().map(Stmt::Call).collect();
        let compiled = CompiledProgram {
            source_ir: prog.clone(),
            prog,
            report: None,
            passes: Vec::new(),
            scop_skipped: None,
        };
        match execute(&compiled, &small_opts(), &det_init) {
            Err(ExecError(InterpError::Backend(msg))) => {
                assert!(msg.contains("overflows the address space"), "{msg}")
            }
            other => panic!("expected a backend error, got {other:?}"),
        }
    }

    #[test]
    fn malloc_targets_found() {
        let cim = compile(GEMM, &CompileOptions::with_tactics()).expect("compiles");
        let targets = malloc_targets(&cim.prog);
        assert_eq!(targets.len(), 3);
    }
}
