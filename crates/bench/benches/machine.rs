//! Criterion benchmarks of the host-platform simulator (cache hierarchy
//! and memory throughput of the *simulator*).
//!
//! `hierarchy_streaming_4k` models the same traffic it always has — 1024
//! sequential 4-byte accesses per iteration — but issues it through the
//! bulk [`Hierarchy::access_block`] path the interpreter now uses;
//! `hierarchy_streaming_4k_scalar` keeps the per-scalar loop as the
//! reference point the PR 10 speedup is measured against.
//! `hierarchy_column_run_128` is the access pattern the bulk path cannot
//! fold: a GEMM's `B[k][j]` column, one line per element, missing the
//! L1 every time. `hierarchy_flush_range_16k` is the driver's
//! per-request range flush, where most line probes miss.

use cim_machine::cache::{CacheConfig, Hierarchy, MemLatency};
use cim_machine::{Machine, MachineConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn a7_hierarchy() -> Hierarchy {
    Hierarchy::new(
        CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 4 },
        CacheConfig { size_bytes: 2 * 1024 * 1024, line_bytes: 64, ways: 8 },
        MemLatency::default(),
        1.2e9,
    )
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut h = a7_hierarchy();
    c.bench_function("hierarchy_streaming_4k", |b| {
        let mut addr = 0u64;
        b.iter(|| {
            // 1024 sequential word accesses, classified per line: the
            // wrap point is 4 KiB aligned, so one run never straddles it.
            black_box(h.access_block(addr, 4, 1024, 4, false));
            addr = (addr + 4 * 1024) % (8 * 1024 * 1024);
        })
    });
    let mut h = a7_hierarchy();
    c.bench_function("hierarchy_streaming_4k_scalar", |b| {
        let mut addr = 0u64;
        b.iter(|| {
            for _ in 0..1024 {
                black_box(h.access(addr, 4, false));
                addr = (addr + 4) % (8 * 1024 * 1024);
            }
        })
    });
    // Strided run: 16-byte stride touches every fourth word, 4 words per
    // line — the run path still folds them into one lookup per line.
    let mut h = a7_hierarchy();
    c.bench_function("hierarchy_strided_run_1k", |b| {
        let mut addr = 0u64;
        b.iter(|| {
            black_box(h.access_block(addr, 4, 1024, 16, false));
            addr = (addr + 16 * 1024) % (32 * 1024 * 1024);
        })
    });
    // 128 accesses at a 512 B stride: `B[k][j]` down a column of a
    // 128x128 f32 matrix. Every element is on its own line, and the 128
    // lines fall on 16 L1 sets of 4 ways, so the L1 misses on every
    // access and the L2 (which holds the whole matrix) serves it.
    let mut h = a7_hierarchy();
    c.bench_function("hierarchy_column_run_128", |b| {
        let mut j = 0u64;
        b.iter(|| {
            black_box(h.access_block(0x10_0000 + 4 * j, 4, 128, 512, false));
            j = (j + 1) % 128;
        })
    });
    // Serving's per-request `flush_shared` of a 64x64 f32 operand: 16
    // lines of the 16 KiB range written, then all 256 lines flushed from
    // both levels. A 64 KiB stream warms the hierarchy first: the L1
    // probes scan full sets, and each L2 probe finds one warm line in its
    // set, so most probes of both levels miss.
    let mut h = a7_hierarchy();
    h.access_block(0x40_0000, 4, 16 * 1024, 4, true);
    c.bench_function("hierarchy_flush_range_16k", |b| {
        b.iter(|| {
            h.access_block(0x10_0000, 4, 16, 1024, true);
            black_box(h.flush_range(0x10_0000, 16 * 1024))
        })
    });
}

fn bench_host_loads(c: &mut Criterion) {
    let mut m = Machine::new(MachineConfig::test_small());
    let va = m.alloc_host(64 * 1024);
    for i in 0..1024 {
        m.host_store_f32(va + 4 * i, i as f32);
    }
    c.bench_function("machine_host_load_1k", |b| {
        b.iter(|| {
            let mut acc = 0f32;
            for i in 0..1024u64 {
                acc += m.host_load_f32(va + 4 * (i % 1024));
            }
            black_box(acc)
        })
    });
    // The same 1024 loads as one run: one translate per page, one cache
    // classification per line, one stall charge.
    let mut m = Machine::new(MachineConfig::test_small());
    let va = m.alloc_host(64 * 1024);
    for i in 0..1024 {
        m.host_store_f32(va + 4 * i, i as f32);
    }
    let mut buf = vec![0f32; 1024];
    c.bench_function("machine_host_load_run_1k", |b| {
        b.iter(|| {
            m.host_load_f32_run(va, 4, &mut buf);
            black_box(buf[1023])
        })
    });
}

criterion_group!(benches, bench_hierarchy, bench_host_loads);
criterion_main!(benches);
