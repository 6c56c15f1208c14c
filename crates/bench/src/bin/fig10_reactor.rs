//! Reactor batching and per-tile DMA channels — the two host/device
//! mechanisms the runtime adds on top of the paper's single status
//! register and single install bus. Two phases:
//!
//! 1. **doorbell batching** — the fig7 batched workload (independent
//!    async GEMMs on disjoint tile sub-grids) drained through the
//!    completion reactor: one batched completion-queue read services
//!    every in-flight command, with results bit-for-bit identical to the
//!    serial reference. The per-future drain it replaced — one PMIO
//!    status-register read per future — is derived analytically from
//!    the same pre-drain host state.
//! 2. **DMA channel sweep** — one install-heavy GEMM whose 2x2 block
//!    wave gathers its stationary operand over 1, 2 and `--channels`
//!    per-tile DMA channels: disjoint tiles stop serializing on one
//!    bus and the install phase shrinks, again bit-for-bit.
//!
//! Usage: `cargo run --release -p tdo_bench --bin fig10_reactor --
//!     [--grid KxM] [--batch N] [--size N] [--channels N]
//!     [--device pcm|reram] [--json PATH]`

use cim_accel::{AccelConfig, MAX_DMA_CHANNELS};
use cim_machine::cpu::InstClass;
use cim_machine::units::SimTime;
use cim_machine::{Machine, MachineConfig};
use cim_report::{BenchRecord, BenchReport};
use cim_runtime::{CimContext, DevPtr, DispatchMode, DriverConfig, Transpose, WaitPolicy};
use tdo_bench::{
    batch_from_args_or, bench_config, device_flag_help, device_from_args, emit_report,
    grid_flag_help, grid_from_args_or, handle_help, json_flag_help, size_from_args_or,
    usize_flag_or,
};

fn fill(len: usize, seed: usize) -> Vec<f32> {
    (0..len).map(|i| ((seed + i * 7) % 13) as f32 * 0.25 - 1.5).collect()
}

fn dev_mat(ctx: &mut CimContext, mach: &mut Machine, data: &[f32]) -> DevPtr {
    let dev = ctx.cim_malloc(mach, (data.len() * 4) as u64).expect("malloc");
    mach.poke_f32_slice(dev.va, data);
    dev
}

struct DrainOut {
    status_reads: u64,
    batched_polls: u64,
    completions_polled: u64,
    elapsed: SimTime,
}

struct DrainRun {
    reactor: DrainOut,
    legacy: DrainOut,
    wall: std::time::Duration,
    c_bits: Vec<u32>,
}

/// Phase 1 run: `batch` independent async GEMMs on disjoint sub-grids;
/// the host overlaps past every completion, then drains all futures in
/// one batched doorbell sweep. Returns that reactor drain and the
/// per-future drain it replaced: from the same pre-drain host state,
/// every future pays its own PMIO status-register read — a bus access
/// plus `reg_access_insts` instructions, as `CimDriver::read_reg`
/// charges it — and nothing else, since every command already retired.
fn run_drain(
    grid: (usize, usize),
    batch: usize,
    n: usize,
    device: cim_pcm::DeviceKind,
) -> DrainRun {
    let wall_t0 = std::time::Instant::now();
    let mut mach = Machine::new(MachineConfig::default());
    let accel_cfg = AccelConfig::for_device(device).with_grid(grid.0, grid.1);
    let drv_cfg = DriverConfig {
        dispatch: DispatchMode::Async,
        wait: WaitPolicy::Poll { interval: SimTime::from_us(1.0), insts_per_poll: 20 },
        ..DriverConfig::default()
    };
    let mut ctx = CimContext::new(accel_cfg, drv_cfg, &mach);
    ctx.cim_init(&mut mach, 0).expect("init");
    let mut c_list = Vec::new();
    let mut busy = SimTime::ZERO;
    for i in 0..batch {
        let a = dev_mat(&mut ctx, &mut mach, &fill(n * n, 3 + 31 * i));
        let b = dev_mat(&mut ctx, &mut mach, &fill(n * n, 11 + 17 * i));
        let c = dev_mat(&mut ctx, &mut mach, &vec![0.0; n * n]);
        busy += ctx
            .cim_blas_sgemm(
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
        c_list.push(c);
    }
    let t0 = mach.now();
    // "Continue with other tasks" past every predicted completion: the
    // whole batch retires while the host computes, so the drain below
    // measures pure completion-discovery cost.
    mach.advance_host(busy * 1.1);
    let mut per_future = mach.core.clone();
    let futures = ctx.pending_commands() as u64;
    for _ in 0..futures {
        per_future.idle_wait(mach.cfg.bus.pmio_access);
        per_future.retire(InstClass::Load, 1);
        per_future.retire(InstClass::IntAlu, drv_cfg.reg_access_insts - 1);
    }
    ctx.cim_sync(&mut mach).expect("sync");
    let elapsed = mach.now() - t0;
    let mut c_bits = Vec::new();
    for c in &c_list {
        let mut out = vec![0f32; n * n];
        mach.peek_f32_slice(c.va, &mut out);
        c_bits.extend(out.iter().map(|v| v.to_bits()));
    }
    let d = ctx.driver().stats();
    DrainRun {
        reactor: DrainOut {
            status_reads: d.status_reads,
            batched_polls: d.batched_polls,
            completions_polled: d.completions_polled,
            elapsed,
        },
        legacy: DrainOut {
            status_reads: futures,
            batched_polls: 0,
            completions_polled: 0,
            elapsed: per_future.elapsed() - t0,
        },
        wall: wall_t0.elapsed(),
        c_bits,
    }
}

/// Serial blocking reference for phase 1's bit-identity check.
fn run_serial_reference(batch: usize, n: usize, device: cim_pcm::DeviceKind) -> Vec<u32> {
    let mut mach = Machine::new(MachineConfig::default());
    let accel_cfg = AccelConfig::for_device(device);
    let mut ctx = CimContext::new(accel_cfg, DriverConfig::default(), &mach);
    ctx.cim_init(&mut mach, 0).expect("init");
    let mut c_bits = Vec::new();
    for i in 0..batch {
        let a = dev_mat(&mut ctx, &mut mach, &fill(n * n, 3 + 31 * i));
        let b = dev_mat(&mut ctx, &mut mach, &fill(n * n, 11 + 17 * i));
        let c = dev_mat(&mut ctx, &mut mach, &vec![0.0; n * n]);
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
        let mut out = vec![0f32; n * n];
        mach.peek_f32_slice(c.va, &mut out);
        c_bits.extend(out.iter().map(|v| v.to_bits()));
    }
    c_bits
}

struct ChannelOut {
    channels: usize,
    channels_active: u64,
    install: SimTime,
    elapsed: SimTime,
    busy_per_channel: Vec<SimTime>,
    wall: std::time::Duration,
    c_bits: Vec<u32>,
}

/// Phase 2 run: one install-heavy GEMM whose stationary operand covers
/// a full block wave of the grid, gathered over `channels` DMA channels.
fn run_channels(channels: usize, grid: (usize, usize), device: cim_pcm::DeviceKind) -> ChannelOut {
    let wall_t0 = std::time::Instant::now();
    let mut mach = Machine::new(MachineConfig::default());
    let accel_cfg =
        AccelConfig::for_device(device).with_grid(grid.0, grid.1).with_dma_channels(channels);
    // One block of A per grid tile: a (rows*gk) x (cols*gm) stationary
    // operand installs as a single full wave of concurrent gathers.
    let (m, k, n) = (accel_cfg.cols * grid.1, accel_cfg.rows * grid.0, 8);
    let mut ctx = CimContext::new(accel_cfg, DriverConfig::default(), &mach);
    ctx.cim_init(&mut mach, 0).expect("init");
    let a = dev_mat(&mut ctx, &mut mach, &fill(m * k, 3));
    let b = dev_mat(&mut ctx, &mut mach, &fill(k * n, 11));
    let c = dev_mat(&mut ctx, &mut mach, &vec![0.0; m * n]);
    let t0 = mach.now();
    ctx.cim_blas_sgemm(
        &mut mach,
        Transpose::No,
        Transpose::No,
        m,
        n,
        k,
        1.0,
        a,
        k,
        b,
        n,
        0.0,
        c,
        n,
    )
    .expect("sgemm");
    let elapsed = mach.now() - t0;
    let stats = *ctx.accel().stats();
    let busy_per_channel = ctx.accel().dma_channel_busy().to_vec();
    let mut out = vec![0f32; m * n];
    mach.peek_f32_slice(c.va, &mut out);
    ChannelOut {
        channels,
        channels_active: stats.max_dma_channels_active,
        install: stats.install_time,
        elapsed,
        busy_per_channel,
        wall: wall_t0.elapsed(),
        c_bits: out.iter().map(|v| v.to_bits()).collect(),
    }
}

fn main() {
    handle_help(
        "fig10_reactor",
        "reactor doorbell batching and per-tile DMA channel sweep",
        &[
            grid_flag_help((2, 2)),
            "--batch <N>                             independent GEMMs (default: 8)".into(),
            "--size <N>                              per-GEMM dimension (default: 96)".into(),
            "--channels <N>                          top DMA channel count (default: 4)".into(),
            device_flag_help(),
            json_flag_help(),
        ],
    );
    let grid = grid_from_args_or((2, 2));
    let batch = batch_from_args_or(8);
    let n = size_from_args_or(96);
    let top_channels = usize_flag_or("--channels", 4).clamp(1, MAX_DMA_CHANNELS);
    let device = device_from_args();
    eprintln!(
        "running fig10 reactor study: {batch} async {n}x{n} GEMMs on {device}, grid {}x{}, \
         DMA channels up to {top_channels} ...",
        grid.0, grid.1
    );

    // Phase 1: doorbell batching.
    let serial_bits = run_serial_reference(batch, n, device);
    let drain = run_drain(grid, batch, n, device);
    assert_eq!(drain.c_bits, serial_bits, "reactor drain must match the serial reference");
    let (legacy, reactor) = (&drain.legacy, &drain.reactor);
    let read_ratio = legacy.status_reads as f64 / reactor.status_reads.max(1) as f64;
    assert!(
        read_ratio >= 5.0,
        "reactor must cut status reads >= 5x: {} vs {}",
        legacy.status_reads,
        reactor.status_reads
    );

    println!(
        "FIG. 10 — REACTOR DOORBELL BATCHING ({batch} x {n}x{n} async GEMMs, {device}, {}x{} \
         tiles)",
        grid.0, grid.1
    );
    println!("{}", "=".repeat(78));
    println!(
        "{:<10} {:>13} {:>13} {:>16} {:>13}",
        "drain", "status reads", "cq sweeps", "completions/poll", "drain time"
    );
    println!("{}", "-".repeat(78));
    for (name, r) in [("legacy", legacy), ("reactor", reactor)] {
        let per_poll = r.completions_polled as f64 / r.batched_polls.max(1) as f64;
        println!(
            "{:<10} {:>13} {:>13} {:>16.2} {:>13}",
            name,
            r.status_reads,
            r.batched_polls,
            per_poll,
            format!("{}", r.elapsed)
        );
    }
    println!("{}", "-".repeat(78));
    println!("status-read reduction:               {read_ratio:>6.2}x  (legacy / reactor)");

    // Phase 2: DMA channel sweep.
    let mut sweep = vec![1usize, 2, top_channels];
    sweep.dedup();
    let runs: Vec<ChannelOut> = sweep.iter().map(|&c| run_channels(c, grid, device)).collect();
    for r in &runs[1..] {
        assert_eq!(r.c_bits, runs[0].c_bits, "channel count must not change results");
    }
    let top = runs.last().expect("sweep is non-empty");
    let full_wave = (grid.0 * grid.1) as u64;
    assert!(
        top.channels_active >= top_channels.min(grid.0 * grid.1) as u64,
        "a full {}-tile wave must overlap {} channels, saw {}",
        full_wave,
        top_channels.min(grid.0 * grid.1),
        top.channels_active
    );
    // `install_time` is the per-tile programming *sum* — invariant under
    // channel count; the overlap win is wall time, where the install
    // clock's DMA gathers stop serializing.
    for pair in runs.windows(2) {
        assert!(
            pair[1].elapsed < pair[0].elapsed,
            "{} channels must beat {}: {} vs {}",
            pair[1].channels,
            pair[0].channels,
            pair[1].elapsed,
            pair[0].elapsed
        );
    }

    println!(
        "\nFIG. 10 — PER-TILE DMA CHANNELS (one {}x{} block wave, {device})",
        grid.0 * 256,
        grid.1 * 256
    );
    println!("{}", "=".repeat(78));
    println!(
        "{:<10} {:>16} {:>14} {:>13} {:>15}",
        "channels", "channels active", "install time", "total time", "busy channels"
    );
    println!("{}", "-".repeat(78));
    for r in &runs {
        let busy_channels = r.busy_per_channel.iter().filter(|t| **t > SimTime::ZERO).count();
        println!(
            "{:<10} {:>16} {:>14} {:>13} {:>15}",
            r.channels,
            r.channels_active,
            format!("{}", r.install),
            format!("{}", r.elapsed),
            busy_channels
        );
    }
    println!("{}", "-".repeat(78));
    println!(
        "wall speedup at {} channels:          {:>6.2}x  (serial bus / {} channels)",
        top.channels,
        runs[0].elapsed / top.elapsed,
        top.channels
    );
    println!("\nresults bit-for-bit identical to the serial reference and across channel counts.");

    let mut report = BenchReport::new("fig10_reactor");
    for (name, r) in [("drain_legacy", legacy), ("drain_reactor", reactor)] {
        report.push(
            BenchRecord {
                name: name.into(),
                config: bench_config(Some(device), Some(grid), None, Some("async")),
                wall_ns: drain.wall.as_nanos() as f64,
                modeled_ns: r.elapsed.as_ns(),
                installs: 0,
                installs_skipped: 0,
                hoisted_syncs: 0,
                max_tiles_active: 0,
                metrics: Default::default(),
            }
            .with_metric("status_reads", r.status_reads as f64)
            .with_metric("batched_polls", r.batched_polls as f64)
            .with_metric("completions_polled", r.completions_polled as f64),
        );
    }
    for r in &runs {
        report.push(
            BenchRecord {
                name: format!("dma_channels_{}", r.channels),
                config: bench_config(Some(device), Some(grid), None, Some("sync")),
                wall_ns: r.wall.as_nanos() as f64,
                modeled_ns: r.elapsed.as_ns(),
                installs: 0,
                installs_skipped: 0,
                hoisted_syncs: 0,
                max_tiles_active: 0,
                metrics: Default::default(),
            }
            .with_metric("install_ns", r.install.as_ns())
            .with_metric("max_dma_channels_active", r.channels_active as f64),
        );
    }
    emit_report(&report);
}
