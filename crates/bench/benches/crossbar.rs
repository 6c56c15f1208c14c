//! Criterion micro-benchmarks of the PCM crossbar simulator itself
//! (simulation throughput, not modelled hardware performance).

use cim_accel::regs::{Command, Reg};
use cim_accel::tile::{CimTile, TileKey};
use cim_accel::{AccelConfig, CimAccelerator};
use cim_machine::{Machine, MachineConfig};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn key() -> TileKey {
    TileKey {
        base_pa: 0x1000,
        ld: 256,
        transposed: false,
        origin: (0, 0),
        extent: (256, 256),
        generation: 0,
    }
}

/// One 256x256 tile GEMV, recorded as `tile_gemv_256/Exact`, the name
/// its committed baseline carries.
fn bench_gemv(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_gemv_256");
    let g: Vec<f32> = (0..256 * 256).map(|i| (i % 17) as f32 - 8.0).collect();
    let x: Vec<f32> = (0..256).map(|i| (i % 13) as f32 - 6.0).collect();
    let mut tile = CimTile::new(&AccelConfig::default());
    tile.install(key(), &g, 256, 256);
    group.bench_function("Exact", |b| b.iter(|| black_box(tile.gemv(black_box(&x)))));
    group.finish();
}

fn bench_install(c: &mut Criterion) {
    let g: Vec<f32> = (0..256 * 256).map(|i| (i % 17) as f32 - 8.0).collect();
    c.bench_function("tile_install_256x256", |b| {
        b.iter_batched(
            || CimTile::new(&AccelConfig::default()),
            |mut tile| {
                tile.install(key(), black_box(&g), 256, 256);
                tile
            },
            BatchSize::SmallInput,
        )
    });
}

/// One 64x64 operand reinstalled onto a default 256x256 tile: the install
/// every `serving` request makes (a fresh generation defeats residency).
fn bench_install_64(c: &mut Criterion) {
    let g: Vec<f32> = (0..64 * 64).map(|i| (i % 17) as f32 - 8.0).collect();
    let mut tile = CimTile::new(&AccelConfig::default());
    let mut generation = 0;
    c.bench_function("tile_install_64x64", |b| {
        b.iter(|| {
            generation += 1;
            let key = TileKey { ld: 64, extent: (64, 64), generation, ..key() };
            tile.install(key, black_box(&g), 64, 64)
        })
    });
}

/// The accelerator half of a `serving` request: one 64x64
/// `Command::Gemv` through the micro-engine on a default device. The
/// generation is bumped every iteration, so every run gathers `op(A)`
/// over DMA, installs it, streams `x` and writes `y` back.
fn bench_accel_gemv_64(c: &mut Criterion) {
    const N: u64 = 64;
    let mut mach = Machine::new(MachineConfig::default());
    let mut acc = CimAccelerator::new(AccelConfig::default(), mach.cfg.bus);
    let (_, a) = mach.alloc_cma(4 * N * N).expect("cma");
    let (_, x) = mach.alloc_cma(4 * N).expect("cma");
    let (_, y) = mach.alloc_cma(4 * N).expect("cma");
    let a_data: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 - 8.0).collect();
    let x_data: Vec<f32> = (0..N).map(|i| (i % 13) as f32 - 6.0).collect();
    mach.mem.write_f32_run(a, 4, &a_data);
    mach.mem.write_f32_run(x, 4, &x_data);
    for (r, v) in [
        (Reg::M, N),
        (Reg::N, 1),
        (Reg::K, N),
        (Reg::Lda, N),
        (Reg::Ldb, 1),
        (Reg::Ldc, 1),
        (Reg::AddrA, a),
        (Reg::AddrB, x),
        (Reg::AddrC, y),
        (Reg::Alpha, u64::from(1.0f32.to_bits())),
        (Reg::Beta, 0),
        (Reg::Command, Command::Gemv as u64),
    ] {
        acc.pmio_write(r, v);
    }
    c.bench_function("accel_gemv_64x64", |b| {
        b.iter(|| {
            acc.bump_generation();
            black_box(acc.execute(&mut mach))
        })
    });
}

/// The engine's half of one `stream_xl` panel: a 256x256 `A` and 16
/// columns of `B` through one `Command::Gemm` on a default device, with
/// `stream_xl`'s leading dimension of 1024 for `B` and `C` and a `C`
/// that is read (`beta != 0`). The generation is bumped every
/// iteration, so every run gathers and installs `A`, then runs one
/// 16-column panel.
fn bench_accel_gemm_panel(c: &mut Criterion) {
    const N: u64 = 256;
    const COLS: u64 = 16;
    const LD: u64 = 1024;
    let mut mach = Machine::new(MachineConfig::default());
    let mut acc = CimAccelerator::new(AccelConfig::default(), mach.cfg.bus);
    let (_, a) = mach.alloc_cma(4 * N * N).expect("cma");
    let (_, b) = mach.alloc_cma(4 * N * LD).expect("cma");
    let (_, y) = mach.alloc_cma(4 * N * LD).expect("cma");
    let a_data: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 - 8.0).collect();
    let b_data: Vec<f32> = (0..N * LD).map(|i| (i % 13) as f32 - 6.0).collect();
    mach.mem.write_f32_run(a, 4, &a_data);
    mach.mem.write_f32_run(b, 4, &b_data);
    for (r, v) in [
        (Reg::M, N),
        (Reg::N, COLS),
        (Reg::K, N),
        (Reg::Lda, N),
        (Reg::Ldb, LD),
        (Reg::Ldc, LD),
        (Reg::AddrA, a),
        (Reg::AddrB, b),
        (Reg::AddrC, y),
        (Reg::Alpha, u64::from(1.0f32.to_bits())),
        (Reg::Beta, u64::from(1.0f32.to_bits())),
        (Reg::Command, Command::Gemm as u64),
    ] {
        acc.pmio_write(r, v);
    }
    c.bench_function("accel_gemm_256x256x16", |b| {
        b.iter(|| {
            acc.bump_generation();
            black_box(acc.execute(&mut mach))
        })
    });
}

criterion_group!(
    benches,
    bench_gemv,
    bench_install,
    bench_install_64,
    bench_accel_gemv_64,
    bench_accel_gemm_panel
);
criterion_main!(benches);
