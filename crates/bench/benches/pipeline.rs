//! Criterion benchmark of the end-to-end pipeline: compile + simulate a
//! small kernel both host-only and offloaded, and execute a precompiled
//! multi-head inference chain.

use cim_runtime::DispatchMode;
use criterion::{criterion_group, criterion_main, Criterion};
use polybench::{init_fn, source, Dataset, Kernel};
use std::hint::black_box;
use tdo_cim::{compile, execute, CompileOptions, ExecOptions};
use workloads::ChainSpec;

fn bench_end_to_end(c: &mut Criterion) {
    let src = source(Kernel::Gemm, Dataset::Mini);
    let host = compile(&src, &CompileOptions::host_only()).expect("compiles");
    let cim = compile(&src, &CompileOptions::with_tactics()).expect("compiles");
    let init = init_fn(Kernel::Gemm);
    let opts = ExecOptions::default();
    let mut group = c.benchmark_group("end_to_end_gemm_mini");
    // Each iteration is ~1 ms and the shared container is noisy; a
    // larger sample count keeps the median stable for the perf gate.
    group.sample_size(60);
    group.bench_function("host_only", |b| {
        b.iter(|| black_box(execute(&host, &opts, &init).expect("runs")))
    });
    group.bench_function("host_cim", |b| {
        b.iter(|| black_box(execute(&cim, &opts, &init).expect("runs")))
    });
    group.finish();
}

fn bench_compile_all(c: &mut Criterion) {
    let sources: Vec<String> = Kernel::ALL.iter().map(|k| source(*k, Dataset::Medium)).collect();
    c.bench_function("compile_all_kernels_tactics", |b| {
        b.iter(|| {
            for src in &sources {
                black_box(compile(src, &CompileOptions::with_tactics()).expect("compiles"));
            }
        })
    });
}

/// A Small 3-head chain, 2 micro-batches x 2 layers, compiled once and
/// executed asynchronously on a 2x2 grid: 12 offloaded GEMMs and 4 host
/// nests that combine the heads, in a program of 44 loop variables, so
/// every host loop entry evaluates subscripts in a many-variable
/// program.
fn bench_chain(c: &mut Criterion) {
    let spec = ChainSpec { batch: 2, layers: 2, ..ChainSpec::for_dataset(Dataset::Small) };
    let chain =
        compile(&spec.with_heads(3).source(), &CompileOptions::default()).expect("compiles");
    let opts = ExecOptions::default().with_tile_grid(2, 2).with_dispatch(DispatchMode::Async);
    let init = workloads::chain::init_fn();
    c.bench_function("exec_chain_small_3h/host_cim", |b| {
        b.iter(|| black_box(execute(&chain, &opts, &init).expect("runs")))
    });
}

criterion_group!(benches, bench_end_to_end, bench_compile_all, bench_chain);
criterion_main!(benches);
