//! Guard suite for the driver's one completion path: for any schedule —
//! sync or async dispatch, any tile grid, any DMA channel count,
//! spinning or polling waits — the completion reactor must leave
//! results bit-for-bit identical to the paper-default blocking Sync+Spin
//! run of the same schedule, account every status read, and end with
//! nothing in flight and nothing unclaimed. A golden anchor pins the
//! Sync+Spin timing itself, so every committed fig5/fig6/table1
//! baseline stays put by construction.

use cim_accel::AccelConfig;
use cim_machine::units::SimTime;
use cim_machine::{Machine, MachineConfig};
use cim_runtime::driver::DriverStats;
use cim_runtime::{CimContext, DevPtr, DispatchMode, DriverConfig, Transpose, WaitPolicy};
use proptest::prelude::*;

#[derive(Clone, Copy)]
struct Schedule {
    m: usize,
    n: usize,
    k: usize,
    count: usize,
    alpha: f32,
    beta: f32,
    grid: (usize, usize),
    channels: usize,
    dispatch: DispatchMode,
    wait: WaitPolicy,
}

fn fill(len: usize, seed: usize, scale: f32) -> Vec<f32> {
    (0..len).map(|i| ((seed + i * 7) % 13) as f32 * scale - 1.5).collect()
}

struct Run {
    c_bits: Vec<Vec<u32>>,
    elapsed: SimTime,
    timeline: String,
    stats: DriverStats,
    in_flight: usize,
    unclaimed: usize,
}

/// Runs the schedule's GEMMs as individual calls, so async dispatch
/// produces several concurrent futures, then drains them all.
fn run(s: &Schedule) -> Run {
    let mut mach = Machine::new(MachineConfig::test_small());
    let accel_cfg =
        AccelConfig::test_small().with_grid(s.grid.0, s.grid.1).with_dma_channels(s.channels);
    let drv_cfg = DriverConfig { dispatch: s.dispatch, wait: s.wait, ..DriverConfig::default() };
    let mut ctx = CimContext::new(accel_cfg, drv_cfg, &mach);
    ctx.cim_init(&mut mach, 0).expect("init");
    let dev_mat = |ctx: &mut CimContext, mach: &mut Machine, data: &[f32]| -> DevPtr {
        let dev = ctx.cim_malloc(mach, (data.len() * 4) as u64).expect("malloc");
        mach.poke_f32_slice(dev.va, data);
        dev
    };
    let mut c_list = Vec::new();
    let t0 = mach.now();
    for i in 0..s.count {
        let a = dev_mat(&mut ctx, &mut mach, &fill(s.m * s.k, 3 + i * 31, 0.25));
        let b = dev_mat(&mut ctx, &mut mach, &fill(s.k * s.n, 11 + i * 17, 0.125));
        let c = dev_mat(&mut ctx, &mut mach, &fill(s.m * s.n, 7 + i * 5, 0.5));
        ctx.cim_blas_sgemm(
            &mut mach,
            Transpose::No,
            Transpose::No,
            s.m,
            s.n,
            s.k,
            s.alpha,
            a,
            s.k,
            b,
            s.n,
            s.beta,
            c,
            s.n,
        )
        .expect("sgemm");
        c_list.push(c);
    }
    ctx.cim_sync(&mut mach).expect("sync");
    let c_bits = c_list
        .iter()
        .map(|c| {
            let mut out = vec![0f32; s.m * s.n];
            mach.peek_f32_slice(c.va, &mut out);
            out.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    let timeline = ctx.accel().timeline().render();
    let drv = ctx.driver();
    Run {
        c_bits,
        elapsed: mach.now() - t0,
        timeline,
        stats: drv.stats(),
        in_flight: drv.reactor().in_flight(),
        unclaimed: drv.reactor().unclaimed(),
    }
}

fn assert_guards(s: &Schedule, label: &str) -> Result<(), TestCaseError> {
    let r = run(s);
    let d = r.stats;
    let reference = run(&Schedule { dispatch: DispatchMode::Sync, wait: WaitPolicy::Spin, ..*s });
    prop_assert!(r.c_bits == reference.c_bits, "{}: results depend on the schedule", label);
    // Every status read is accounted: a sync whose doorbell an earlier
    // sweep delivered is free, any other pays one read — plus, under a
    // polled wait, one per further poll interval it slept.
    let poll_reads = match s.wait {
        WaitPolicy::Spin => 0.0,
        WaitPolicy::Poll { interval, .. } => d.idle_wait_time.as_ns() / interval.as_ns(),
    };
    prop_assert!(
        d.status_reads as f64 <= d.invocations as f64 + poll_reads + 1e-6,
        "{}: {} status reads for {} commands",
        label,
        d.status_reads,
        d.invocations
    );
    if s.dispatch == DispatchMode::Sync && s.wait == WaitPolicy::Spin {
        prop_assert!(d.status_reads == d.invocations, "{}: one read per blocking call", label);
    }
    prop_assert!(d.completions_polled == d.invocations, "{}: one doorbell per command", label);
    prop_assert!(r.in_flight + r.unclaimed == 0, "{}: commands left behind", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random schedules under every dispatch/wait/grid/channel axis.
    #[test]
    fn reactor_guards_hold_on_random_schedules(
        m in 1usize..14,
        n in 1usize..5,
        k in 1usize..14,
        count in 1usize..5,
        gk in 1usize..4,
        gm in 1usize..4,
        ch_ix in 0usize..3,
        alpha_q in -3i32..4,
        beta_q in -2i32..3,
        async_dispatch in proptest::bool::ANY,
        poll_wait in proptest::bool::ANY,
    ) {
        let s = Schedule {
            m, n, k, count,
            alpha: alpha_q as f32 * 0.5,
            beta: beta_q as f32 * 0.5,
            grid: (gk, gm),
            channels: [1, 2, 4][ch_ix],
            dispatch: if async_dispatch { DispatchMode::Async } else { DispatchMode::Sync },
            wait: if poll_wait {
                WaitPolicy::Poll { interval: SimTime::from_us(1.0), insts_per_poll: 20 }
            } else {
                WaitPolicy::Spin
            },
        };
        let label = format!(
            "m={m} n={n} k={k} count={count} grid={gk}x{gm} ch={} {:?} poll={poll_wait}",
            s.channels, s.dispatch
        );
        assert_guards(&s, &label)?;
    }
}

/// Device timeline of the golden Sync+Spin schedule below.
const GOLDEN_TIMELINE: &str = "\
event               tile   cmd          start            end     duration  detail
trigger                -    #0      12.254 us      12.254 us     0.000 ns  Gemm armed
write-crossbar     (0,0)    #0      12.518 us      32.518 us    20.000 us  install A tile m0=0 k0=0 (8x8)
write-crossbar     (1,0)    #0      12.750 us      22.750 us    10.000 us  install A tile m0=0 k0=8 (4x8)
write-crossbar     (0,1)    #0      12.486 us      32.486 us    20.000 us  install A tile m0=8 k0=0 (8x4)
write-crossbar     (1,1)    #0      12.702 us      22.702 us    10.000 us  install A tile m0=8 k0=8 (4x4)
compute            (0,0)    #0      32.518 us      33.518 us     1.000 us  gemv j=0 (tile m0=0 k0=0)
compute            (1,0)    #0      32.518 us      33.518 us     1.000 us  gemv j=0 (tile m0=0 k0=8)
compute            (0,1)    #0      32.518 us      33.518 us     1.000 us  gemv j=0 (tile m0=8 k0=0)
compute            (1,1)    #0      32.518 us      33.518 us     1.000 us  gemv j=0 (tile m0=8 k0=8)
compute            (0,0)    #0      33.518 us      34.518 us     1.000 us  gemv j=1 (tile m0=0 k0=0)
compute            (1,0)    #0      33.518 us      34.518 us     1.000 us  gemv j=1 (tile m0=0 k0=8)
compute            (0,1)    #0      33.518 us      34.518 us     1.000 us  gemv j=1 (tile m0=8 k0=0)
compute            (1,1)    #0      33.518 us      34.518 us     1.000 us  gemv j=1 (tile m0=8 k0=8)
result-ready           -    #0      36.518 us      36.518 us     0.000 ns  status := done
trigger                -    #1      47.575 us      47.575 us     0.000 ns  Gemm armed
write-crossbar     (0,0)    #1      47.839 us      67.839 us    20.000 us  install A tile m0=0 k0=0 (8x8)
write-crossbar     (1,0)    #1      48.071 us      58.071 us    10.000 us  install A tile m0=0 k0=8 (4x8)
write-crossbar     (0,1)    #1      47.807 us      67.807 us    20.000 us  install A tile m0=8 k0=0 (8x4)
write-crossbar     (1,1)    #1      48.023 us      58.023 us    10.000 us  install A tile m0=8 k0=8 (4x4)
compute            (0,0)    #1      67.839 us      68.839 us     1.000 us  gemv j=0 (tile m0=0 k0=0)
compute            (1,0)    #1      67.839 us      68.839 us     1.000 us  gemv j=0 (tile m0=0 k0=8)
compute            (0,1)    #1      67.839 us      68.839 us     1.000 us  gemv j=0 (tile m0=8 k0=0)
compute            (1,1)    #1      67.839 us      68.839 us     1.000 us  gemv j=0 (tile m0=8 k0=8)
compute            (0,0)    #1      68.839 us      69.839 us     1.000 us  gemv j=1 (tile m0=0 k0=0)
compute            (1,0)    #1      68.839 us      69.839 us     1.000 us  gemv j=1 (tile m0=0 k0=8)
compute            (0,1)    #1      68.839 us      69.839 us     1.000 us  gemv j=1 (tile m0=8 k0=0)
compute            (1,1)    #1      68.839 us      69.839 us     1.000 us  gemv j=1 (tile m0=8 k0=8)
result-ready           -    #1      71.839 us      71.839 us     0.000 ns  status := done
trigger                -    #2      82.896 us      82.896 us     0.000 ns  Gemm armed
write-crossbar     (0,0)    #2      83.160 us     103.160 us    20.000 us  install A tile m0=0 k0=0 (8x8)
write-crossbar     (1,0)    #2      83.392 us      93.392 us    10.000 us  install A tile m0=0 k0=8 (4x8)
write-crossbar     (0,1)    #2      83.128 us     103.128 us    20.000 us  install A tile m0=8 k0=0 (8x4)
write-crossbar     (1,1)    #2      83.344 us      93.344 us    10.000 us  install A tile m0=8 k0=8 (4x4)
compute            (0,0)    #2     103.160 us     104.160 us     1.000 us  gemv j=0 (tile m0=0 k0=0)
compute            (1,0)    #2     103.160 us     104.160 us     1.000 us  gemv j=0 (tile m0=0 k0=8)
compute            (0,1)    #2     103.160 us     104.160 us     1.000 us  gemv j=0 (tile m0=8 k0=0)
compute            (1,1)    #2     103.160 us     104.160 us     1.000 us  gemv j=0 (tile m0=8 k0=8)
compute            (0,0)    #2     104.160 us     105.160 us     1.000 us  gemv j=1 (tile m0=0 k0=0)
compute            (1,0)    #2     104.160 us     105.160 us     1.000 us  gemv j=1 (tile m0=0 k0=8)
compute            (0,1)    #2     104.160 us     105.160 us     1.000 us  gemv j=1 (tile m0=8 k0=0)
compute            (1,1)    #2     104.160 us     105.160 us     1.000 us  gemv j=1 (tile m0=8 k0=8)
result-ready           -    #2     107.160 us     107.160 us     0.000 ns  status := done
";

/// Golden anchor: under blocking Sync+Spin — the paper-default figure
/// configuration — the clock, the wait, the status reads and the device
/// timeline are bit-for-bit what the per-future wait loops produced
/// before the reactor replaced them.
#[test]
fn sync_spin_timing_is_bit_identical() {
    let s = Schedule {
        m: 12,
        n: 4,
        k: 12,
        count: 3,
        alpha: 1.0,
        beta: 0.5,
        grid: (2, 2),
        channels: 2,
        dispatch: DispatchMode::Sync,
        wait: WaitPolicy::Spin,
    };
    let r = run(&s);
    assert_eq!(r.elapsed.as_ns(), 105_962.5, "sync+spin must not shift at all");
    assert_eq!(r.stats.total_wait_time().as_ns(), 72_792.0);
    assert_eq!(r.stats.status_reads, 3);
    assert_eq!(r.timeline, GOLDEN_TIMELINE);
}
