//! The offload dataflow graph end to end (Fig. 9): compiler sync
//! hoisting + residency placement against PR 4's fused-async baseline.
//!
//! Section A compiles a *multi-head* GEMM chain (`workloads::chain` with
//! `heads > 1`: every layer projects the same input through per-head
//! weights, the Q/K/V shape) three ways:
//!
//! * **fused async** — the PR 4 baseline: Loop Tactics fuses each
//!   layer's `batch * heads` GEMMs into one `polly_cimBlasGemmBatched`,
//!   dispatched asynchronously. Elements sharing a stationary operand
//!   land on *different* tile regions, so every element installs.
//! * **dataflow sync / dataflow async** — fusion off, the *default*
//!   compile path (the full compiler pass pipeline, no opt-in):
//!   redundant `polly_cimHostToDev` syncs are elided, each
//!   `(layer, micro-batch)` input is pinned (`polly_cimPin`) so its
//!   `heads` kernels reuse one install on one region, and every
//!   `polly_cimDevToHost` is sunk past independent host code. Under
//!   async dispatch the per-region doorbells overlap *separate* runtime
//!   calls across micro-batches while the host combine overlaps the
//!   accelerator.
//!
//! All three schedules are asserted bit-for-bit identical to the native
//! reference, the estimator prices the pinned schedule (cold and warm
//! calls) as the engine runs it, and the run fails loudly unless at least
//! one sync was hoisted and one install was skipped — the passes cannot
//! silently regress to no-ops.
//!
//! Section B re-runs the streamed XLarge GEMM, now with *both* streamed
//! operands (`A` and the `C` accumulator) panel-resident.
//!
//! Usage: `cargo run --release -p tdo_bench --bin fig9_dataflow --
//!     [--dataset D] [--stream-dataset D] [--device pcm|reram]
//!     [--grid KxM] [--batch N] [--layers N] [--heads N]`

use cim_accel::estimate::estimate_gemm;
use cim_accel::AccelConfig;
use cim_machine::units::SimTime;
use cim_report::BenchReport;
use cim_runtime::DispatchMode;
use polybench::Dataset;
use tdo_bench::{
    batch_from_args_or, bench_config, dataset_flag_help, device_flag_help, device_from_args,
    emit_report, grid_flag_help, grid_from_args_or, handle_help, json_flag_help,
    parse_dataset_flag, print_pass_reports, record_from_run, stream_record, usize_flag_or,
    verbose_flag_help,
};
use tdo_cim::{compile, execute, CompileOptions, ExecOptions, RunResult};
use workloads::chain::init_fn;
use workloads::{run_gemm, ChainSpec, StreamConfig};

struct ChainRun {
    label: &'static str,
    run: RunResult,
    hoisted: usize,
    elided: usize,
    pins: usize,
    wall: std::time::Duration,
}

fn run_chain(
    spec: &ChainSpec,
    base: &ExecOptions,
    copts: &CompileOptions,
    dispatch: DispatchMode,
    label: &'static str,
) -> ChainRun {
    let wall_t0 = std::time::Instant::now();
    let compiled = compile(&spec.source(), copts).expect("chain compiles");
    print_pass_reports(label, &compiled);
    let report = compiled.report.as_ref().expect("tactics ran");
    assert!(report.any_offloaded(), "chain must offload transparently");
    let (hoisted, elided, pins) = (
        compiled.pass_counter("hoisted_syncs") as usize,
        compiled.pass_counter("elided_syncs") as usize,
        compiled.pass_counter("pins") as usize,
    );
    let run =
        execute(&compiled, &base.clone().with_dispatch(dispatch), &init_fn()).expect("chain runs");
    ChainRun { label, run, hoisted, elided, pins, wall: wall_t0.elapsed() }
}

fn chain_bits(spec: &ChainSpec, run: &RunResult) -> Vec<u32> {
    spec.output_names()
        .iter()
        .flat_map(|n| run.array(n).expect("output present").iter().map(|v| v.to_bits()))
        .collect()
}

fn main() {
    handle_help(
        "fig9_dataflow",
        "offload dataflow graph: sync hoisting + residency placement vs fused async",
        &[
            dataset_flag_help(Dataset::Small) + "  (chain suite)",
            format!("--stream-dataset <{}>   streamed GEMM size (default: XLarge)", Dataset::NAMES),
            device_flag_help(),
            grid_flag_help((2, 2)),
            "--batch <N>                             chain micro-batches (default: 4)".into(),
            "--layers <N>                            chain layers (default: 3)".into(),
            "--heads <N>                             projection heads per layer (default: 3)"
                .into(),
            verbose_flag_help(),
            json_flag_help(),
        ],
    );
    let dataset = parse_dataset_flag("--dataset", Dataset::Small);
    let stream_dataset = parse_dataset_flag("--stream-dataset", Dataset::XLarge);
    let device = device_from_args();
    let grid = grid_from_args_or((2, 2));
    let batch = batch_from_args_or(4);
    let layers = usize_flag_or("--layers", 3);
    let heads = usize_flag_or("--heads", 3);
    assert!(heads >= 2, "the residency study needs shared stationary operands (--heads >= 2)");

    // ------------- Section A: multi-head chain, three schedules -------------
    let spec = ChainSpec { batch, layers, ..ChainSpec::for_dataset(dataset) }.with_heads(heads);
    eprintln!(
        "running fig9 chain suite: {}x {} layers x {} heads of {}x{} GEMMs on {device}, \
         grid {}x{} ...",
        spec.batch, spec.layers, spec.heads, spec.rows, spec.width, grid.0, grid.1
    );
    let working_set = 4
        * (spec.batch * spec.rows * spec.width * (spec.layers * (spec.heads + 1) + 1)
            + spec.layers * spec.heads * spec.width * spec.width) as u64;
    let mut base = ExecOptions::default().with_device(device).with_tile_grid(grid.0, grid.1);
    if 2 * working_set > base.machine.cma_bytes {
        base = base.with_cma_bytes(2 * working_set);
    }
    // The fused baseline is the legacy conservative schedule (detection +
    // fusion, no graph passes); the dataflow runs use the *default*
    // compile path — the full pass pipeline with no opt-in (fusion is
    // turned off so the per-head kernels stay separate and pinnable).
    let fused_copts = CompileOptions::without_dataflow();
    let mut df_copts = CompileOptions::default();
    df_copts.tactics.fusion = false;
    let fused = run_chain(&spec, &base, &fused_copts, DispatchMode::Async, "fused async");
    let df_sync = run_chain(&spec, &base, &df_copts, DispatchMode::Sync, "dataflow sync");
    let df_async = run_chain(&spec, &base, &df_copts, DispatchMode::Async, "dataflow async");

    let ref_bits: Vec<u32> = spec
        .reference_outputs()
        .into_iter()
        .filter(|(n, _)| spec.output_names().contains(n))
        .flat_map(|(_, d)| d.into_iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        .collect();
    for r in [&fused, &df_sync, &df_async] {
        assert_eq!(chain_bits(&spec, &r.run), ref_bits, "{}: diverges from reference", r.label);
    }

    // The graph passes engaged: syncs hoisted, redundant syncs elided,
    // one pin per (layer, micro-batch) input.
    assert!(df_async.hoisted >= 1, "no d2h sync was hoisted");
    assert!(df_async.elided >= 1, "no redundant h2d sync was elided");
    assert_eq!(df_async.pins, spec.layers * spec.batch, "one pin per shared input");

    // Residency: the pinned schedule installs each shared input once;
    // the fused baseline installs per (element, region) pair.
    let acc_fused = fused.run.accel.expect("accel");
    let acc_df = df_async.run.accel.expect("accel");
    assert!(
        acc_df.rows_programmed < acc_fused.rows_programmed,
        "residency placement must install less than the fused baseline ({} vs {})",
        acc_df.rows_programmed,
        acc_fused.rows_programmed
    );
    assert!(acc_df.install_skips >= 1, "no install was skipped");
    let rt_df = df_async.run.runtime.expect("runtime stats");
    assert_eq!(rt_df.pin_calls as usize, spec.layers * spec.batch);
    assert!(rt_df.pin_hits >= 1, "no pinned kernel hit residency");

    // The headline: hoisting + residency beat the fused-async baseline
    // on wall clock, not just install counts (PCM installs are the
    // expensive phase, and the sunk d2h syncs hide behind host code).
    assert!(
        df_async.run.wall_time().as_ns() < fused.run.wall_time().as_ns(),
        "dataflow schedule must beat the fused-async baseline ({} vs {})",
        df_async.run.wall_time(),
        fused.run.wall_time()
    );

    // Estimator lockstep on the pinned schedule: per (layer,
    // micro-batch), the first head installs cold, the rest are resident.
    let acfg = AccelConfig::for_device(device).with_grid(grid.0, grid.1);
    let bus = base.machine.bus;
    let cold = estimate_gemm(&acfg, &bus, spec.rows, spec.width, spec.width, true, false).busy;
    let warm = estimate_gemm(&acfg, &bus, spec.rows, spec.width, spec.width, true, true).busy;
    let predicted = (cold + warm * (spec.heads - 1) as f64) * (spec.layers * spec.batch) as f64;
    assert!(
        (acc_df.busy.as_ns() - predicted.as_ns()).abs() < 1e-6,
        "estimator diverged on the pinned schedule: engine {} vs estimator {predicted}",
        acc_df.busy
    );

    println!(
        "FIG. 9A — OFFLOAD DATAFLOW GRAPH ({dataset:?}: {} x {} layers x {} heads of \
         {}x{}x{} GEMMs, {device}, {}x{} tiles)",
        spec.batch, spec.layers, spec.heads, spec.rows, spec.width, spec.width, grid.0, grid.1
    );
    println!("{}", "=".repeat(96));
    println!(
        "{:<15} {:>13} {:>13} {:>9} {:>9} {:>10} {:>9} {:>9}",
        "schedule", "total time", "host wait", "installs", "skipped", "max tiles", "pins", "energy"
    );
    println!("{}", "-".repeat(96));
    for r in [&fused, &df_sync, &df_async] {
        let acc = r.run.accel.expect("accel");
        let d = r.run.driver.as_ref().expect("driver stats");
        println!(
            "{:<15} {:>13} {:>13} {:>9} {:>9} {:>10} {:>9} {:>8.2}mJ",
            r.label,
            format!("{}", r.run.wall_time()),
            format!("{}", d.total_wait_time()),
            acc.rows_programmed,
            acc.install_skips,
            acc.max_tiles_active,
            r.run.runtime.map_or(0, |s| s.pin_calls),
            r.run.total_energy().as_mj(),
        );
    }
    println!("{}", "-".repeat(96));
    let hidden = SimTime::from_ns(
        (df_sync.run.wall_time().as_ns() - df_async.run.wall_time().as_ns()).max(0.0),
    );
    println!(
        "residency win:  {:.2}x fewer crossbar rows programmed than fused async ({} vs {})",
        acc_fused.rows_programmed as f64 / acc_df.rows_programmed as f64,
        acc_df.rows_programmed,
        acc_fused.rows_programmed,
    );
    println!(
        "dataflow-over-fused speedup: {:>6.2}x   hoisting hidden behind host code: {hidden}",
        fused.run.wall_time() / df_async.run.wall_time()
    );
    println!(
        "fig9 stats: hoisted_syncs={} elided_syncs={} pins={} installs_skipped={} \
         installs_dataflow={} installs_fused={} hidden_d2h={hidden}",
        df_async.hoisted,
        df_async.elided,
        df_async.pins,
        acc_df.install_skips,
        acc_df.rows_programmed,
        acc_fused.rows_programmed,
    );
    println!(
        "results bit-for-bit identical to the native reference in all three schedules; \
         estimator in lockstep with the engine on the pinned schedule."
    );

    // ------------- Section B: streamed XLarge, both operands paneled -------------
    let accel = AccelConfig::for_device(device).with_grid(grid.0, grid.1);
    let n = stream_dataset.base_size();
    eprintln!("running fig9 streamed gemm: {n}x{n} on {device}, A and C panel-resident ...");
    let base_cfg = StreamConfig::new(stream_dataset, accel);
    let timed = |cfg: &StreamConfig| {
        let t0 = std::time::Instant::now();
        (run_gemm(cfg), t0.elapsed())
    };
    let (streamed, streamed_wall) = timed(&base_cfg);
    let (streamed_async, streamed_async_wall) =
        timed(&base_cfg.clone().with_dispatch(DispatchMode::Async));
    assert_eq!(streamed.c_bits, streamed_async.c_bits, "dispatch must not change results");
    for (label, r) in [("sync", &streamed), ("async", &streamed_async)] {
        assert!(
            r.accel_busy == r.predicted_busy,
            "{label}: estimator diverged ({} vs {})",
            r.accel_busy,
            r.predicted_busy
        );
    }
    println!();
    println!(
        "FIG. 9B — STREAMED GEMM, BOTH OPERANDS PANELED ({stream_dataset:?}: {n}x{n}, {device}, \
         {}x{} tiles, {}-row panels)",
        grid.0, grid.1, base_cfg.panel_rows
    );
    println!("{}", "-".repeat(96));
    for (label, r) in [("streamed sync", &streamed), ("streamed async", &streamed_async)] {
        println!(
            "{:<15} total {:>13}   accel busy {:>13}   panels {:>4}   CMA peak {:>5} MiB   \
             doorbell skips {:>5}",
            label,
            format!("{}", r.elapsed),
            format!("{}", r.accel_busy),
            r.panels,
            r.cma_peak / (1024 * 1024),
            r.sync_skips,
        );
    }
    if streamed.panels > 1 {
        assert!(
            streamed_async.elapsed.as_ns() < streamed.elapsed.as_ns(),
            "async streaming must beat blocking streaming"
        );
    }
    println!(
        "A and C bounded to two panels each: CMA peak {} MiB vs {} MiB for one whole operand \
         more.",
        streamed.cma_peak / (1024 * 1024),
        (streamed.cma_peak + (n * n * 4) as u64) / (1024 * 1024),
    );

    let mut report = BenchReport::new("fig9_dataflow");
    for (name, dispatch, r) in [
        ("chain_fused_async", "fused-async", &fused),
        ("chain_dataflow_sync", "dataflow-sync", &df_sync),
        ("chain_dataflow_async", "dataflow-async", &df_async),
    ] {
        let cfg = bench_config(Some(device), Some(grid), Some(dataset), Some(dispatch));
        let mut rec = record_from_run(name, cfg, &r.run, r.wall)
            .with_metric("elided_syncs", r.elided as f64)
            .with_metric("pins", r.pins as f64)
            .with_metric(
                "host_wait_ns",
                r.run.driver.as_ref().expect("driver stats").total_wait_time().as_ns(),
            );
        rec.hoisted_syncs = r.hoisted as u64;
        report.push(rec);
    }
    for (name, dispatch, r, wall) in [
        ("stream_sync", "streamed-sync", &streamed, streamed_wall),
        ("stream_async", "streamed-async", &streamed_async, streamed_async_wall),
    ] {
        let cfg = bench_config(Some(device), Some(grid), Some(stream_dataset), Some(dispatch));
        report.push(stream_record(name, cfg, r, wall));
    }
    emit_report(&report);
}
