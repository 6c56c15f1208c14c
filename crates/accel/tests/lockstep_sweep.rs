//! The engine/estimator guard. The micro-engine and the estimator run
//! one cost walk (`cim_accel::estimate`), so an estimate must equal the
//! statistics a fresh accelerator reports for the same command — the
//! whole `AccelStats`, every bit — and its `busy` must equal the
//! duration `execute` returns. Checked over device x tile grid x shape
//! x DMA channels, for single GEMMs, batches with and without
//! a shared stationary operand, and convolutions. The estimate feeds the
//! Selective offload policy, the pin planner and the Fig. 5 endurance
//! study, so a divergence would skew published numbers without failing
//! any functional test.

use cim_accel::estimate::{estimate_conv2d, estimate_gemm, estimate_gemm_batched};
use cim_accel::regs::{Command, Reg, Status};
use cim_accel::{AccelConfig, AccelStats, CimAccelerator};
use cim_machine::units::SimTime;
use cim_machine::{Machine, MachineConfig};
use cim_pcm::DeviceKind;
use proptest::prelude::*;

/// One accelerator command of the sweep.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    /// `C = op(A)*B + beta*C` of shape `(m, n, k)`.
    Gemm { dims: (usize, usize, usize), beta_zero: bool },
    /// `count` independent GEMMs of one shape, `beta = 0`.
    Batch { dims: (usize, usize, usize), count: usize, share_a: bool },
    /// An `h x w` image convolved with an `fh x fw` filter.
    Conv { h: usize, w: usize, fh: usize, fw: usize },
}

fn fill(len: usize, seed: usize) -> Vec<f32> {
    (0..len).map(|i| ((seed + i * 7) % 13) as f32 * 0.25 - 1.5).collect()
}

fn alloc_mat(mach: &mut Machine, data: &[f32]) -> u64 {
    let (_va, pa) = mach.alloc_cma((data.len() * 4) as u64).expect("cma");
    mach.mem.write_f32_run(pa, 4, data);
    pa
}

/// `tile x tile` crossbars of the selected device technology: at 8x8 the
/// shape axis exercises multi-wave sharding with the device's real
/// energy/latency constants.
fn sweep_config(
    device: DeviceKind,
    tile: usize,
    grid: (usize, usize),
    dma_channels: usize,
) -> AccelConfig {
    AccelConfig { rows: tile, cols: tile, ..AccelConfig::for_device(device) }
        .with_grid(grid.0, grid.1)
        .with_dma_channels(dma_channels)
}

/// The per-tile DMA channel counts the sweeps exercise (serial bus,
/// partially and fully de-serialized installs).
const CHANNEL_SWEEP: [usize; 3] = [1, 2, 4];

fn arm_gemm(
    acc: &mut CimAccelerator,
    (m, n, k): (usize, usize, usize),
    (a, b, c): (u64, u64, u64),
    beta: f32,
) {
    for (r, v) in [
        (Reg::M, m as u64),
        (Reg::N, n as u64),
        (Reg::K, k as u64),
        (Reg::Lda, k as u64),
        (Reg::Ldb, n as u64),
        (Reg::Ldc, n as u64),
        (Reg::AddrA, a),
        (Reg::AddrB, b),
        (Reg::AddrC, c),
        (Reg::Alpha, 1.0f32.to_bits() as u64),
        (Reg::Beta, beta.to_bits() as u64),
        (Reg::TransA, 0),
        (Reg::TransB, 0),
    ] {
        acc.pmio_write(r, v);
    }
}

/// Runs `cmd` on a fresh accelerator: its statistics and the duration
/// `execute` returned.
fn run_engine(cfg: AccelConfig, cmd: Cmd) -> (AccelStats, SimTime) {
    let mut mach = Machine::new(MachineConfig::test_small());
    let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
    let operands = |mach: &mut Machine, (m, n, k): (usize, usize, usize), i: usize| {
        (
            alloc_mat(mach, &fill(m * k, 3 + 31 * i)),
            alloc_mat(mach, &fill(k * n, 11 + 17 * i)),
            alloc_mat(mach, &fill(m * n, 7 + 5 * i)),
        )
    };
    match cmd {
        Cmd::Gemm { dims, beta_zero } => {
            let ptrs = operands(&mut mach, dims, 0);
            arm_gemm(&mut acc, dims, ptrs, if beta_zero { 0.0 } else { 0.5 });
            acc.pmio_write(Reg::Command, Command::Gemm as u64);
        }
        Cmd::Batch { dims, count, share_a } => {
            let shared_a = alloc_mat(&mut mach, &fill(dims.0 * dims.2, 3));
            let mut raw = Vec::new();
            let mut first = None;
            for i in 0..count {
                let (a, b, c) = operands(&mut mach, dims, i);
                let a = if share_a { shared_a } else { a };
                first.get_or_insert((a, b, c));
                for v in [a, b, c] {
                    raw.extend_from_slice(&v.to_le_bytes());
                }
            }
            let (_va, table) = mach.alloc_cma(raw.len() as u64).expect("cma");
            mach.mem.write(table, &raw);
            arm_gemm(&mut acc, dims, first.expect("count >= 1"), 0.0);
            acc.pmio_write(Reg::BatchCount, count as u64);
            acc.pmio_write(Reg::AddrBatch, table);
            acc.pmio_write(Reg::Command, Command::GemmBatched as u64);
        }
        Cmd::Conv { h, w, fh, fw } => {
            let img = alloc_mat(&mut mach, &fill(h * w, 5));
            let filt = alloc_mat(&mut mach, &fill(fh * fw, 9));
            let out = alloc_mat(&mut mach, &fill((h - fh + 1) * (w - fw + 1), 2));
            for (r, v) in [
                (Reg::AddrA, img),
                (Reg::AddrB, filt),
                (Reg::AddrC, out),
                (Reg::ImgH, h as u64),
                (Reg::ImgW, w as u64),
                (Reg::FiltH, fh as u64),
                (Reg::FiltW, fw as u64),
                (Reg::Command, Command::Conv2d as u64),
            ] {
                acc.pmio_write(r, v);
            }
        }
    }
    let dur = acc.execute(&mut mach);
    assert_eq!(acc.regs().status(), Status::Done, "{:?}", acc.last_error());
    (*acc.stats(), dur)
}

fn estimate(cfg: &AccelConfig, cmd: Cmd) -> AccelStats {
    let bus = MachineConfig::test_small().bus;
    match cmd {
        Cmd::Gemm { dims: (m, n, k), beta_zero } => {
            estimate_gemm(cfg, &bus, m, n, k, beta_zero, false)
        }
        Cmd::Batch { dims: (m, n, k), count, share_a } => {
            estimate_gemm_batched(cfg, &bus, m, n, k, true, count, share_a)
        }
        Cmd::Conv { h, w, fh, fw } => estimate_conv2d(cfg, &bus, h, w, fh, fw).expect("fits"),
    }
}

/// The fields where two statistics differ, times and energies with all
/// their digits (their `Debug` rounds).
fn differing_fields(a: &AccelStats, b: &AccelStats) -> Vec<String> {
    let fields = |s: &AccelStats| {
        let count = |v: u64| v as f64;
        [
            ("gemv_count", count(s.gemv_count)),
            ("cell_writes", count(s.cell_writes)),
            ("rows_programmed", count(s.rows_programmed)),
            ("install_skips", count(s.install_skips)),
            ("macs", count(s.macs)),
            ("max_tiles_active", count(s.max_tiles_active)),
            ("max_dma_channels_active", count(s.max_dma_channels_active)),
            ("crossbar_compute_pj", s.crossbar_compute.as_pj()),
            ("crossbar_write_pj", s.crossbar_write.as_pj()),
            ("mixed_signal_pj", s.mixed_signal.as_pj()),
            ("buffers_pj", s.buffers.as_pj()),
            ("digital_pj", s.digital.as_pj()),
            ("dma_engine_pj", s.dma_engine.as_pj()),
            ("install_time_ns", s.install_time.as_ns()),
            ("compute_time_ns", s.compute_time.as_ns()),
            ("dma_exposed_time_ns", s.dma_exposed_time.as_ns()),
            ("busy_ns", s.busy.as_ns()),
        ]
    };
    fields(a)
        .iter()
        .zip(fields(b))
        .filter(|((_, x), (_, y))| x.to_bits() != y.to_bits())
        .map(|((name, x), (_, y))| format!("{name}: engine {x:?} vs estimate {y:?}"))
        .collect()
}

/// The guard: the estimate is the engine's own accounting.
fn assert_exact(cfg: AccelConfig, cmd: Cmd) -> Result<(), TestCaseError> {
    let (stats, dur) = run_engine(cfg, cmd);
    let est = estimate(&cfg, cmd);
    prop_assert!(stats == est, "{cmd:?}: {:?}", differing_fields(&stats, &est));
    prop_assert!(dur == est.busy, "{cmd:?}: execute took {dur:?}, estimate {:?}", est.busy);
    Ok(())
}

/// Deterministic anchor for the channel model: a full 2x2 wave on four
/// channels overlaps all four gathers, and de-serializing the install
/// bus strictly shortens the run.
#[test]
fn four_channels_overlap_disjoint_tile_installs() {
    let cmd = Cmd::Gemm { dims: (16, 2, 16), beta_zero: true }; // one 4-tile wave
    let mut durs = Vec::new();
    for channels in CHANNEL_SWEEP {
        let cfg = sweep_config(DeviceKind::Pcm, 8, (2, 2), channels);
        assert_exact(cfg, cmd).unwrap();
        let (stats, dur) = run_engine(cfg, cmd);
        assert_eq!(stats.max_dma_channels_active, channels.min(4) as u64);
        durs.push(dur);
    }
    assert!(durs[1] < durs[0], "2 channels must beat the serial bus");
    assert!(durs[2] < durs[1], "4 channels must beat 2");
}

/// Fixed inputs: one plain GEMM, one sharded over a 2x2 grid, batches
/// that partition 2x2 and 4x1 grids, a conv on 8x8 tiles, and a shared
/// operand whose later elements hit only some of their tiles.
#[test]
fn anchored_commands_match_exactly() {
    let small = AccelConfig::test_small();
    let gemm = |n| Cmd::Gemm { dims: (n, n, n), beta_zero: true };
    let batch = |count, share_a| Cmd::Batch { dims: (8, 8, 8), count, share_a };
    for (cfg, cmd) in [
        (small, gemm(8)),
        (small.with_grid(2, 2), gemm(20)),
        (small.with_grid(2, 2), batch(4, false)),
        (small.with_grid(2, 2), batch(3, false)),
        (small.with_grid(4, 1), batch(5, false)),
        (small, Cmd::Conv { h: 10, w: 10, fh: 2, fw: 2 }),
        // On the 2x2 sub-grids of a 4x4 grid, a reduction of three
        // K-blocks leaves K-block 1 resident on K-lane 1 for element 4:
        // one install skip, though `A` spans two waves.
        (small.with_grid(4, 4), Cmd::Batch { dims: (8, 3, 20), count: 5, share_a: true }),
    ] {
        assert_exact(cfg, cmd).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Single GEMMs over device x grid x shape x beta x DMA channels.
    #[test]
    fn single_gemm_engine_matches_estimator(
        device_ix in 0usize..DeviceKind::ALL.len(),
        gk in 1usize..=4,
        gm in 1usize..=4,
        m in 1usize..=20,
        n in 1usize..=8,
        k in 1usize..=20,
        beta_zero in proptest::bool::ANY,
        ch_ix in 0usize..CHANNEL_SWEEP.len(),
    ) {
        let cfg = sweep_config(DeviceKind::ALL[device_ix], 8, (gk, gm), CHANNEL_SWEEP[ch_ix]);
        assert_exact(cfg, Cmd::Gemm { dims: (m, n, k), beta_zero })?;
    }

    /// Batched GEMMs (the fused-kernel path), with and without a shared
    /// stationary operand.
    #[test]
    fn batched_gemm_engine_matches_estimator(
        device_ix in 0usize..DeviceKind::ALL.len(),
        gk in 1usize..=4,
        gm in 1usize..=4,
        m in 1usize..=20,
        n in 1usize..=8,
        k in 1usize..=20,
        count in 1usize..=5,
        share_a in proptest::bool::ANY,
        ch_ix in 0usize..CHANNEL_SWEEP.len(),
    ) {
        let cfg = sweep_config(DeviceKind::ALL[device_ix], 8, (gk, gm), CHANNEL_SWEEP[ch_ix]);
        assert_exact(cfg, Cmd::Batch { dims: (m, n, k), count, share_a })?;
    }

    /// Convolutions on 8x8 and 32x32 tiles, with filters that fit the
    /// Toeplitz mapping.
    #[test]
    fn conv_engine_matches_estimator(
        device_ix in 0usize..DeviceKind::ALL.len(),
        big_tile in proptest::bool::ANY,
        gk in 1usize..=2,
        fh in 1usize..=4,
        fw_pick in 0usize..4,
        h_extra in 0usize..12,
        w_extra in 0usize..40,
    ) {
        let tile = if big_tile { 32 } else { 8 };
        let fw = 1 + fw_pick % (tile / fh).min(4);
        let cfg = sweep_config(DeviceKind::ALL[device_ix], tile, (gk, 1), 1);
        assert_exact(cfg, Cmd::Conv { h: fh + h_extra, w: fw + w_extra, fh, fw })?;
    }
}
