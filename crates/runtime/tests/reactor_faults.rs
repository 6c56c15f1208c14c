//! Fault-injection harness for the reactor's submission slots and
//! delivered completions: deterministic schedules forcing every boundary
//! the slot rule can hit — queue-full backpressure, completion-before-
//! poll, out-of-order retirement, wraparound at and around capacity —
//! asserting that stalls are counted and that no completion is ever lost
//! or double-delivered.

use cim_accel::{AccelConfig, GridRegion};
use cim_machine::units::SimTime;
use cim_machine::{Machine, MachineConfig};
use cim_runtime::reactor::{CmdRecord, Reactor};
use cim_runtime::{CimContext, DispatchMode, DriverConfig, Transpose};

fn rec(cmd_id: u64, ready_ns: f64) -> CmdRecord {
    CmdRecord {
        cmd_id,
        ready_at: SimTime::from_ns(ready_ns),
        busy: SimTime::from_ns(1.0),
        region: GridRegion::full((1, 1)),
        reads: Vec::new(),
        writes: Vec::new(),
        owner: None,
        scratch: None,
    }
}

/// Streams `total` commands through a capacity-`cap` reactor, obeying
/// backpressure the way the driver does (wait for the pinning command,
/// sweep, retry), and returns every claimed command id in claim order.
fn stream_through(cap: usize, total: u64) -> Vec<u64> {
    let mut r = Reactor::new(cap);
    let mut claimed = Vec::new();
    for id in 0..total {
        let ready = 10.0 * (id + 1) as f64;
        let mut record = rec(id, ready);
        while let Err(back) = r.submit(record) {
            let wake = r.blocking_ready_at().expect("full ring names its pinning command");
            r.poll(wake);
            // Claim everything delivered so the freed doorbells cannot
            // mask a lost or duplicated completion later.
            for cand in 0..total {
                if r.claim(cand).is_some() {
                    claimed.push(cand);
                }
            }
            record = *back;
        }
    }
    r.poll(SimTime::from_ns(10.0 * (total + 1) as f64));
    for cand in 0..total {
        if r.claim(cand).is_some() {
            claimed.push(cand);
        }
    }
    assert_eq!(r.in_flight(), 0, "every submission slot must free");
    assert_eq!(r.unclaimed(), 0, "every doorbell must be claimed");
    claimed
}

#[test]
fn wraparound_delivers_every_command_exactly_once() {
    // Capacities around the boundary: 1 (every push wraps), 2, exact
    // fit for the stream, one short of it, one beyond it.
    for cap in [1, 2, 9, 10, 11] {
        let claimed = stream_through(cap, 10);
        assert_eq!(claimed, (0..10).collect::<Vec<_>>(), "capacity {cap}");
    }
}

#[test]
fn exact_fit_never_stalls_and_off_by_one_does() {
    // Exact fit: 4 commands through 4 slots — no push may fail.
    let mut r = Reactor::new(4);
    for id in 0..4 {
        r.submit(rec(id, 10.0)).expect("exact fit cannot stall");
    }
    assert!(!r.can_submit(), "ring is now exactly full");
    // Off by one: the 5th pushes into the slot command 0 pins.
    assert_eq!(r.submit(rec(4, 10.0)).unwrap_err().cmd_id, 4);
    assert_eq!(r.blocking_ready_at(), Some(SimTime::from_ns(10.0)));
    assert_eq!(r.poll(SimTime::from_ns(10.0)), 4);
    r.submit(rec(4, 20.0)).expect("delivery freed the pinned slot");
    assert_eq!(r.poll(SimTime::from_ns(20.0)), 1);
    assert!((0..5).all(|id| r.claim(id).is_some()), "all five delivered exactly once");
}

#[test]
fn completion_before_poll_is_preserved_not_lost() {
    // The device retires a command long before the host ever looks: the
    // doorbell must wait for the host's first sweep, not vanish.
    let mut r = Reactor::new(2);
    r.submit(rec(0, 5.0)).unwrap();
    // Host is far past ready_at by its first poll.
    assert_eq!(r.poll(SimTime::from_ns(500.0)), 1);
    assert!(r.is_delivered(0));
    // Polling again re-delivers nothing.
    assert_eq!(r.poll(SimTime::from_ns(1000.0)), 0);
    assert!(r.claim(0).is_some());
    assert!(r.claim(0).is_none(), "a claimed doorbell is gone");
}

#[test]
fn out_of_order_retirement_across_channels_keeps_fifo_slots() {
    // Five commands whose completion order (by ready_at) is a shuffle
    // of submission order — disjoint regions on different DMA channels.
    let readies = [50.0, 10.0, 40.0, 20.0, 30.0];
    let mut r = Reactor::new(5);
    for (id, ready) in readies.iter().enumerate() {
        r.submit(rec(id as u64, *ready)).unwrap();
    }
    // Sweep instants between retirements: each poll delivers exactly
    // the newly due command.
    let mut order = Vec::new();
    for t in [15.0, 25.0, 35.0, 45.0, 55.0] {
        let before = r.unclaimed();
        r.poll(SimTime::from_ns(t));
        for id in 0..5 {
            if r.is_delivered(id) && !order.contains(&id) {
                order.push(id);
            }
        }
        assert_eq!(r.unclaimed(), before + 1, "one retirement per window");
    }
    assert_eq!(order, vec![1, 3, 4, 2, 0], "delivery follows retirement order");
    assert!((0..5).all(|id| r.claim(id).is_some()));
    assert_eq!(r.in_flight(), 0);
}

#[test]
fn driver_counts_queue_full_backpressure_stalls() {
    // End-to-end: a capacity-2 submission queue under async dispatch.
    // The third in-flight command must stall the host, be counted, and
    // still complete with correct results.
    let mut mach = Machine::new(MachineConfig::test_small());
    let drv_cfg = DriverConfig {
        dispatch: DispatchMode::Async,
        queue_capacity: 2,
        ..DriverConfig::default()
    };
    let mut ctx = CimContext::new(AccelConfig::test_small(), drv_cfg, &mach);
    ctx.cim_init(&mut mach, 0).expect("init");
    let n = 4usize;
    let ident: Vec<f32> = (0..n * n).map(|i| if i % (n + 1) == 0 { 1.0 } else { 0.0 }).collect();
    let mut cs = Vec::new();
    for i in 0..4 {
        let a = ctx.cim_malloc(&mut mach, (n * n * 4) as u64).expect("malloc a");
        let b = ctx.cim_malloc(&mut mach, (n * n * 4) as u64).expect("malloc b");
        let c = ctx.cim_malloc(&mut mach, (n * n * 4) as u64).expect("malloc c");
        mach.poke_f32_slice(a.va, &ident);
        let bv: Vec<f32> = (0..n * n).map(|j| (i * 100 + j) as f32).collect();
        mach.poke_f32_slice(b.va, &bv);
        ctx.cim_blas_sgemm(
            &mut mach,
            Transpose::No,
            Transpose::No,
            n,
            n,
            n,
            1.0,
            a,
            n,
            b,
            n,
            0.0,
            c,
            n,
        )
        .expect("sgemm");
        cs.push((c, bv));
    }
    assert!(
        ctx.driver().stats().queue_full_stalls >= 1,
        "third in-flight command must stall on the full ring"
    );
    ctx.cim_sync(&mut mach).expect("sync");
    assert_eq!(ctx.driver().reactor().in_flight(), 0);
    assert_eq!(ctx.driver().reactor().unclaimed(), 0);
    for (c, bv) in cs {
        let mut out = vec![0f32; n * n];
        mach.peek_f32_slice(c.va, &mut out);
        assert_eq!(out, bv, "identity GEMM through a stalling ring stays exact");
    }
}

#[test]
fn generous_ring_never_stalls() {
    // Same workload, default (64-slot) ring: zero backpressure events —
    // the stall counter isolates genuine ring pressure.
    let mut mach = Machine::new(MachineConfig::test_small());
    let drv_cfg = DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() };
    let mut ctx = CimContext::new(AccelConfig::test_small(), drv_cfg, &mach);
    ctx.cim_init(&mut mach, 0).expect("init");
    let n = 4usize;
    for _ in 0..4 {
        let a = ctx.cim_malloc(&mut mach, (n * n * 4) as u64).expect("malloc a");
        let b = ctx.cim_malloc(&mut mach, (n * n * 4) as u64).expect("malloc b");
        let c = ctx.cim_malloc(&mut mach, (n * n * 4) as u64).expect("malloc c");
        mach.poke_f32_slice(a.va, &vec![1.0; n * n]);
        mach.poke_f32_slice(b.va, &vec![0.5; n * n]);
        ctx.cim_blas_sgemm(
            &mut mach,
            Transpose::No,
            Transpose::No,
            n,
            n,
            n,
            1.0,
            a,
            n,
            b,
            n,
            0.0,
            c,
            n,
        )
        .expect("sgemm");
    }
    ctx.cim_sync(&mut mach).expect("sync");
    assert_eq!(ctx.driver().stats().queue_full_stalls, 0);
}
