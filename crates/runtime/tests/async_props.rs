//! Property tests: asynchronous, tile-partitioned batched dispatch is
//! pure schedule — `C` results stay bit-for-bit identical to the serial
//! synchronous path for every tile grid, the modeled time
//! never regresses, and identical async runs replay identical timelines.

use cim_accel::AccelConfig;
use cim_machine::units::SimTime;
use cim_machine::{Machine, MachineConfig};
use cim_runtime::{CimContext, DevPtr, DispatchMode, DriverConfig, Transpose};
use proptest::prelude::*;

struct BatchCase {
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    beta: f32,
    count: usize,
}

fn fill(len: usize, seed: usize, scale: f32) -> Vec<f32> {
    (0..len).map(|i| ((seed + i * 7) % 13) as f32 * scale - 1.5).collect()
}

struct BatchRun {
    c_bits: Vec<Vec<u32>>,
    elapsed: SimTime,
    max_tiles_active: u64,
    timeline: String,
}

/// Builds a context over `grid` and runs the case's batch,
/// either as one `cim_blas_gemm_batched` call under `dispatch`, or — with
/// `serial` — as `count` individual synchronous `cim_blas_sgemm` calls.
fn run_batch(
    case: &BatchCase,
    grid: (usize, usize),
    dispatch: DispatchMode,
    serial: bool,
) -> BatchRun {
    let mut mach = Machine::new(MachineConfig::test_small());
    let accel_cfg = AccelConfig::test_small().with_grid(grid.0, grid.1);
    let drv_cfg = DriverConfig { dispatch, ..DriverConfig::default() };
    let mut ctx = CimContext::new(accel_cfg, drv_cfg, &mach);
    ctx.cim_init(&mut mach, 0).expect("init");
    let dev_mat = |ctx: &mut CimContext, mach: &mut Machine, data: &[f32]| -> DevPtr {
        let dev = ctx.cim_malloc(mach, (data.len() * 4) as u64).expect("malloc");
        mach.poke_f32_slice(dev.va, data);
        dev
    };
    let mut a_list = Vec::new();
    let mut b_list = Vec::new();
    let mut c_list = Vec::new();
    for i in 0..case.count {
        let (m, n, k) = (case.m, case.n, case.k);
        a_list.push(dev_mat(&mut ctx, &mut mach, &fill(m * k, 3 + i * 31, 0.25)));
        b_list.push(dev_mat(&mut ctx, &mut mach, &fill(k * n, 11 + i * 17, 0.125)));
        c_list.push(dev_mat(&mut ctx, &mut mach, &fill(m * n, 7 + i * 5, 0.5)));
    }
    let t0 = mach.now();
    if serial {
        for i in 0..case.count {
            ctx.cim_blas_sgemm(
                &mut mach,
                Transpose::No,
                Transpose::No,
                case.m,
                case.n,
                case.k,
                case.alpha,
                a_list[i],
                case.k,
                b_list[i],
                case.n,
                case.beta,
                c_list[i],
                case.n,
            )
            .expect("sgemm");
        }
    } else {
        ctx.cim_blas_gemm_batched(
            &mut mach,
            Transpose::No,
            Transpose::No,
            case.m,
            case.n,
            case.k,
            case.alpha,
            &a_list,
            case.k,
            &b_list,
            case.n,
            case.beta,
            &c_list,
            case.n,
        )
        .expect("batched");
    }
    ctx.cim_sync(&mut mach).expect("sync");
    let elapsed = mach.now() - t0;
    let c_bits = c_list
        .iter()
        .map(|c| {
            let mut out = vec![0f32; case.m * case.n];
            mach.peek_f32_slice(c.va, &mut out);
            out.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    let max_tiles_active = ctx.accel().stats().max_tiles_active;
    let timeline = ctx.accel().timeline().render();
    BatchRun { c_bits, elapsed, max_tiles_active, timeline }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Async batched dispatch produces bit-for-bit the `C` results of
    /// the serial synchronous path, for every grid.
    #[test]
    fn async_batched_matches_serial_bit_for_bit(
        m in 1usize..16,
        n in 1usize..5,
        k in 1usize..16,
        gk in 1usize..4,
        gm in 1usize..4,
        count in 1usize..5,
        alpha_q in -3i32..4,
        beta_q in -2i32..3,
    ) {
        let case = BatchCase {
            m, n, k, count,
            alpha: alpha_q as f32 * 0.5,
            beta: beta_q as f32 * 0.5,
        };
        let serial = run_batch(&case, (1, 1), DispatchMode::Sync, true);
        let async_run = run_batch(&case, (gk, gm), DispatchMode::Async, false);
        prop_assert_eq!(&async_run.c_bits, &serial.c_bits);
        // (No universal timing claim here: for degenerate batches the
        // descriptor-table overhead legitimately outweighs the saved
        // ioctls — `async_batch_beats_serial_sum` pins the timing win on
        // a real workload.)
    }

    /// Two identical async runs replay identical schedules: same
    /// rendered timeline, same occupancy, same clock.
    #[test]
    fn async_dispatch_is_deterministic(
        m in 1usize..12,
        k in 1usize..12,
        count in 1usize..4,
        gk in 1usize..3,
        gm in 1usize..3,
    ) {
        let case = BatchCase { m, n: 3, k, count, alpha: 1.0, beta: 0.5 };
        let one = run_batch(&case, (gk, gm), DispatchMode::Async, false);
        let two = run_batch(&case, (gk, gm), DispatchMode::Async, false);
        prop_assert_eq!(one.timeline, two.timeline);
        prop_assert_eq!(one.c_bits, two.c_bits);
        prop_assert_eq!(one.elapsed, two.elapsed);
        prop_assert_eq!(one.max_tiles_active, two.max_tiles_active);
    }
}

/// The fig-7 acceptance pinned as a test: a batch of independent GEMMs
/// under async dispatch finishes in strictly less modeled time than the
/// serial sum of synchronous calls, with at least two tiles active.
#[test]
fn async_batch_beats_serial_sum() {
    let case = BatchCase { m: 8, n: 8, k: 8, count: 4, alpha: 1.0, beta: 0.0 };
    let serial = run_batch(&case, (1, 1), DispatchMode::Sync, true);
    let async_run = run_batch(&case, (2, 2), DispatchMode::Async, false);
    assert_eq!(async_run.c_bits, serial.c_bits, "results must not depend on the schedule");
    assert!(
        async_run.elapsed.as_ns() < serial.elapsed.as_ns(),
        "async batch {} not faster than serial sum {}",
        async_run.elapsed,
        serial.elapsed
    );
    assert_eq!(serial.max_tiles_active, 1);
    assert!(async_run.max_tiles_active >= 2, "tile regions ran concurrently");
}
