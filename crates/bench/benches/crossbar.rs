//! Criterion micro-benchmarks of the PCM crossbar simulator itself
//! (simulation throughput, not modelled hardware performance).

use cim_accel::tile::{CimTile, TileKey};
use cim_accel::AccelConfig;
use cim_pcm::{Crossbar, Fidelity};
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

fn bench_gemv(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_gemv_256");
    let g: Vec<f32> = (0..256 * 256).map(|i| (i % 17) as f32 - 8.0).collect();
    let x: Vec<f32> = (0..256).map(|i| (i % 13) as f32 - 6.0).collect();
    for fidelity in [Fidelity::Exact, Fidelity::Int8] {
        let cfg = AccelConfig { fidelity, ..AccelConfig::default() };
        let mut tile = CimTile::new(&cfg);
        tile.install(key(), &g, 256, 256);
        group.bench_function(format!("{fidelity:?}"), |b| {
            b.iter(|| black_box(tile.gemv(black_box(&x))))
        });
    }
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

fn bench_raw_crossbar(c: &mut Criterion) {
    let mut xbar = Crossbar::new(256, 256);
    let levels: Vec<u8> = (0..256).map(|i| (i % 16) as u8).collect();
    for r in 0..256 {
        xbar.program_row(r, &levels);
    }
    let inputs: Vec<i32> = (0..256).map(|i| (i % 255) - 127).collect();
    c.bench_function("crossbar_dot_levels_256", |b| {
        b.iter(|| black_box(xbar.dot_levels(black_box(&inputs))))
    });
}

criterion_group!(benches, bench_gemv, bench_install, bench_install_64, bench_raw_crossbar);
criterion_main!(benches);
