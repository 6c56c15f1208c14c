//! The GEMM-chain suite end to end: generated chains are offloaded
//! *transparently* (detected and fused by Loop Tactics, never
//! hand-dispatched), results match the native reference bit for bit,
//! and dispatch mode is pure schedule — async and sync agree exactly
//! for every chain shape.

use cim_runtime::DispatchMode;
use proptest::prelude::*;
use tdo_cim::{compile, execute, CompileOptions, ExecOptions, RunResult};
use workloads::chain::init_fn;
use workloads::ChainSpec;

fn to_bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Bit pattern of array `name` in `run`.
fn bits(run: &RunResult, name: &str) -> Vec<u32> {
    to_bits(run.array(name).unwrap_or_else(|| panic!("missing {name}")))
}

fn run_chain(spec: &ChainSpec, dispatch: DispatchMode) -> (RunResult, tdo_cim::CompiledProgram) {
    let compiled = compile(&spec.source(), &CompileOptions::with_tactics()).expect("compiles");
    let opts = ExecOptions {
        machine: cim_machine::MachineConfig::test_small(),
        accel: cim_accel::AccelConfig::test_small().with_grid(2, 2),
        ..ExecOptions::default()
    }
    .with_dispatch(dispatch);
    let run = execute(&compiled, &opts, &init_fn()).expect("runs");
    (run, compiled)
}

#[test]
fn chain_is_fused_per_layer_and_matches_reference() {
    let spec = ChainSpec { rows: 6, width: 8, batch: 3, layers: 2, heads: 1 };
    let (run, compiled) = run_chain(&spec, DispatchMode::Sync);
    // Transparent offload: one batched call per layer, no serial GEMMs.
    let report = compiled.report.as_ref().expect("tactics ran");
    assert_eq!(report.fused_groups, spec.layers);
    assert_eq!(report.kernels.len(), spec.layers * spec.batch);
    assert!(report.kernels.iter().all(|k| k.offloaded && k.fused), "{report}");
    let text = compiled.pseudo_c();
    assert_eq!(text.matches("polly_cimBlasGemmBatched").count(), spec.layers, "{text}");
    assert!(!text.contains("polly_cimBlasSGemm("), "{text}");
    // The host activations stayed host loops.
    assert!(text.contains("* 0.03125;"), "{text}");
    // Batch elements land on disjoint tile sub-grids concurrently.
    assert!(run.accel.expect("accel used").max_tiles_active > 1);
    // Bit-for-bit against the native reference.
    for (name, want) in spec.reference_outputs() {
        assert_eq!(bits(&run, &name), to_bits(&want), "{name} diverges");
    }
}

#[test]
fn multi_head_chain_matches_reference_host_and_offloaded() {
    // Deep enough that a reference summing the heads in f64 with one
    // final rounding drifts from the interpreter's per-op f32 rounding;
    // narrow enough that every reduction fits one tile, so offloading
    // keeps the interpreter's summation order.
    let spec = ChainSpec { rows: 8, width: 16, batch: 1, layers: 8, heads: 3 };
    let opts = ExecOptions::default();
    let run = |copts: &CompileOptions| {
        let compiled = compile(&spec.source(), copts).expect("compiles");
        execute(&compiled, &opts, &init_fn()).expect("runs")
    };
    let offloaded = run(&CompileOptions::default());
    let host = run(&CompileOptions::host_only());
    assert!(offloaded.driver.expect("driver").invocations > 0, "nothing was offloaded");
    for (name, want) in spec.reference_outputs() {
        let want = to_bits(&want);
        assert_eq!(bits(&host, &name), want, "{name}: host-only diverges from the reference");
        assert_eq!(bits(&offloaded, &name), want, "{name}: offloaded diverges from the reference");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Async dispatch of a chain produces bit-for-bit the results of the
    /// blocking dispatch, and never a slower run, for arbitrary shapes.
    #[test]
    fn chain_async_and_sync_dispatch_agree(
        rows in 1usize..8,
        width in 1usize..10,
        batch in 1usize..4,
        layers in 1usize..4,
    ) {
        let spec = ChainSpec { rows, width, batch, layers, heads: 1 };
        let (sync_run, _) = run_chain(&spec, DispatchMode::Sync);
        let (async_run, _) = run_chain(&spec, DispatchMode::Async);
        for (name, _) in spec.reference_outputs() {
            let s: Vec<u32> =
                sync_run.array(&name).expect("sync array").iter().map(|v| v.to_bits()).collect();
            let a: Vec<u32> =
                async_run.array(&name).expect("async array").iter().map(|v| v.to_bits()).collect();
            prop_assert!(s == a, "{} diverges across dispatch modes", name);
        }
        if batch > 1 {
            prop_assert!(async_run.runtime.expect("stats").async_submits > 0);
        }
        let (t_async, t_sync) = (async_run.host.time.as_ns(), sync_run.host.time.as_ns());
        prop_assert!(t_async <= t_sync * 1.001, "async {} vs sync {}", t_async, t_sync);
    }
}
