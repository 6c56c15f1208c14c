//! The repository benchmark: one seeded workload per run, every output
//! checked against an oracle independent of the compiler under test,
//! end-to-end metrics from untraced iterations and per-layer metrics from
//! a traced run. See `NOTES.md` next to this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <polybench|chain|stream_xl|serving> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it reports every end-to-end metric the workload defines, including
//! the workload-specific ones.

mod oracle;
mod stages;
mod tally;
mod trace;
mod wl_chain;
mod wl_polybench;
mod wl_serving;
mod wl_stream;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use cim_report::json::Value;
use tdo_cim::CompileOptions;

use tally::{Modeled, Tally};
use trace::Tracer;

/// One workload: state built at set-up, then iterations that each start
/// from source text and fresh platforms and check every output.
pub trait Workload {
    /// Runs one iteration, counting checks and modeled counters in `tally`.
    fn iteration(&mut self, tr: &mut Tracer, tally: &mut Tally);
}

const WORKLOADS: [&str; 4] = ["polybench", "chain", "stream_xl", "serving"];
/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Span events written to the trace file (whole iterations, at least
/// one); the per-layer metrics cover every traced iteration.
const TRACE_FILE_EVENTS: usize = 100_000;

/// The accelerator every workload runs on: the default device with
/// `grid` tiles, simulated on the benchmark's one host thread. The
/// engine's default spawns scoped workers for every GEMV step of a
/// multi-tile wave; on a 2-vCPU VM those spawns cost `stream_xl` about
/// 3x its serial wall time and made it follow the host's load (see
/// `NOTES.md`). Modeled results do not depend on the worker count.
pub fn accel(grid: (usize, usize)) -> cim_accel::AccelConfig {
    cim_accel::AccelConfig::default().with_grid(grid.0, grid.1).with_sim_threads(1)
}

/// End-to-end metrics of every workload (`--trace 0`), with units.
/// Modeled-clock quantities carry `sim_` units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("iter_s_p50", "s"),
    ("peak_rss_mib", "MiB"),
    ("modeled_ms", "sim_ms"),
    ("modeled_energy_mj", "sim_mJ"),
    ("cell_writes", "count"),
];

/// Layers timed by span self time, as `<layer>.wall_ms`. `runtime` is
/// the sum of the `runtime.*` call kinds (and of init and queries).
const WALL_LAYERS: [&str; 18] = [
    "bench",
    "lang",
    "poly",
    "tactics.detect",
    "tactics.hoist",
    "tactics.elide",
    "tactics.pins",
    "exec.host",
    "exec.cim",
    "machine",
    "runtime",
    "runtime.sgemm",
    "runtime.sgemv",
    "runtime.h2d",
    "runtime.d2h",
    "runtime.malloc",
    "runtime.free",
    "runtime.sync",
];

/// Per-layer metrics taken from the model (`--trace 1`), with units.
const MODELED_LAYERS: [(&str, &str); 37] = [
    ("tactics.kernels_matched", "count"),
    ("tactics.kernels_offloaded", "count"),
    ("tactics.hoisted_syncs", "count"),
    ("tactics.elided_syncs", "count"),
    ("tactics.pin_candidates", "count"),
    ("tactics.pins", "count"),
    ("tactics.spills", "count"),
    ("machine.issue_ms", "sim_ms"),
    ("machine.mem_stall_ms", "sim_ms"),
    ("driver.busy_wait_ms", "sim_ms"),
    ("driver.idle_wait_ms", "sim_ms"),
    ("machine.spin_share", "ratio"),
    ("machine.l1_miss_ratio", "ratio"),
    ("machine.l2_miss_ratio", "ratio"),
    ("machine.writebacks", "count"),
    ("machine.cma_peak_mib", "MiB"),
    ("runtime.pin_hit_ratio", "ratio"),
    ("runtime.pin_evictions", "count"),
    ("runtime.sync_skips", "count"),
    ("runtime.queue_full_stalls", "count"),
    ("driver.status_reads", "count"),
    ("driver.completions_per_poll", "ratio"),
    ("driver.flush_dirty_ratio", "ratio"),
    ("serve.grants", "count"),
    ("serve.sched_throttles", "count"),
    ("serve.wear_throttles", "count"),
    ("serve.tile_busy_share", "ratio"),
    ("accel.busy_ms", "sim_ms"),
    ("accel.install_ms", "sim_ms"),
    ("accel.compute_ms", "sim_ms"),
    ("accel.dma_exposed_ms", "sim_ms"),
    ("accel.rows_programmed", "count"),
    ("accel.install_skips", "count"),
    ("accel.gemv_count", "count"),
    ("accel.max_tiles_active", "count"),
    ("pcm.cell_writes", "count"),
    ("pcm.macs_per_write", "ratio"),
];

/// Workload-specific end-to-end results, reported on the line before
/// the result line.
const SPECIFIC: [(&str, &str); 6] = [
    ("energy_gain_x", "x"),
    ("edp_gain_x", "x"),
    ("serve_p99_us", "sim_us"),
    ("serve_max_load_x", "x"),
    ("victim_p99_us", "sim_us"),
    ("serve_gen_lag_us", "sim_us"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value}: expected 0 < s <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join("|")));
    }
    Ok(args)
}

/// Checks that the staged compile of a traced run yields the program
/// text `tdo_cim::compile` does.
pub fn check_staged_compile(src: &str, opts: &CompileOptions) -> Result<(), String> {
    let mut tr = Tracer::new(Instant::now());
    tr.set_enabled(true);
    let staged = stages::compile(&mut tr, src, opts).map_err(|e| e.to_string())?;
    let direct = tdo_cim::compile(src, opts).map_err(|e| e.to_string())?;
    if staged.pseudo_c() == direct.pseudo_c() {
        Ok(())
    } else {
        Err("staged compile differs from tdo_cim::compile".into())
    }
}

fn setup(args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "polybench" => Box::new(wl_polybench::setup(args.trace)?),
        "chain" => Box::new(wl_chain::setup(args.seed, args.trace)?),
        "stream_xl" => Box::new(wl_stream::setup()),
        "serving" => Box::new(wl_serving::setup(args.seed)),
        other => unreachable!("workload {other} was validated"),
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile; 0 for no samples (every request failed).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks, counts and modeled values accumulated over a run.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    split_violations: u64,
    /// Iterations whose modeled values differed from the first one's.
    modeled_drift: u64,
    first: Option<Modeled>,
}

impl Totals {
    fn iteration(&mut self, w: &mut dyn Workload, tr: &mut Tracer) -> f64 {
        let mut tally = Tally::default();
        let t = Instant::now();
        tr.begin_iteration();
        w.iteration(tr, &mut tally);
        tr.end_iteration();
        let secs = t.elapsed().as_secs_f64();
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.split_violations += tally.split_violations;
        let modeled = tally.finish();
        match &self.first {
            None => self.first = Some(modeled),
            Some(first) => {
                let same = first.len() == modeled.len()
                    && first
                        .iter()
                        .zip(&modeled)
                        .all(|((k1, v1), (k2, v2))| k1 == k2 && v1.to_bits() == v2.to_bits());
                if !same {
                    self.modeled_drift += 1;
                }
            }
        }
        secs
    }
}

fn metric(value: f64, unit: &str) -> Value {
    let mut m = BTreeMap::new();
    m.insert("value".to_string(), Value::Num(value));
    m.insert("unit".to_string(), Value::Str(unit.to_string()));
    Value::Obj(m)
}

/// One-line JSON.
fn one_line(v: &Value) -> String {
    v.to_pretty().lines().map(str::trim).collect()
}

/// The per-layer metrics of a traced run, and whether the span self
/// times — the `bench` remainder included — add up to the traced
/// iterations' wall time.
fn per_layer(
    tr: &Tracer,
    modeled: &Modeled,
    traced: &[f64],
    plain: &[f64],
) -> (BTreeMap<String, Value>, bool) {
    let st = tr.self_times();
    let iters = f64::from(st.iterations.max(1));
    let layer_ns = |layer: &str| -> u64 {
        let prefix = format!("{layer}.");
        st.by_name
            .iter()
            .filter(|(name, _)| **name == layer || name.starts_with(&prefix))
            .map(|(_, ns)| *ns)
            .sum()
    };
    let mut metrics = BTreeMap::new();
    for layer in WALL_LAYERS {
        // `runtime` totals its call kinds; every other layer is one span name.
        let ns = if layer == "runtime" {
            layer_ns(layer)
        } else {
            st.by_name.get(layer).copied().unwrap_or(0)
        };
        metrics.insert(format!("{layer}.wall_ms"), metric(ns as f64 / iters / 1e6, "ms"));
    }
    let exec_s = layer_ns("exec") as f64 / iters / 1e9;
    let minst = if exec_s > 0.0 { modeled["exec.instructions"] / exec_s / 1e6 } else { 0.0 };
    metrics.insert("ir.sim_minst_per_s".into(), metric(minst, "Minst/s"));
    let traced_p50 = median(traced);
    metrics.insert("trace.iter_s_p50".into(), metric(traced_p50, "s"));
    metrics.insert("trace.overhead_ms".into(), metric((traced_p50 - median(plain)) * 1e3, "ms"));
    for (name, unit) in MODELED_LAYERS {
        metrics.insert(name.into(), metric(modeled[name], unit));
    }
    let self_sum: u64 = st.by_name.values().sum();
    let adds_up = st.malformed == 0 && self_sum == st.root_ns;
    if !adds_up {
        eprintln!(
            "perfbench: span self times do not add up ({} malformed, {self_sum} vs {} ns)",
            st.malformed, st.root_ns
        );
    }
    (metrics, adds_up)
}

fn main() {
    let start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let mut tr = Tracer::new(start);
    let mut totals = Totals::default();

    // Set-up: inputs from the seed, oracles, and one checked warm-up
    // iteration — repeated, the first one timed from process start.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for i in 0..SETUPS {
        let t = if i == 0 { start } else { Instant::now() };
        let mut w = setup(&args).unwrap_or_else(|e| {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        });
        totals.iteration(w.as_mut(), &mut tr);
        setups.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    // Timed iterations; a traced run alternates traced and untraced ones
    // so that it measures its own overhead.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let measure = Instant::now();
    while measure.elapsed().as_secs_f64() < args.seconds
        || plain.is_empty()
        || (args.trace && traced.is_empty())
    {
        let on = args.trace && (plain.len() + traced.len()) % 2 == 0;
        tr.set_enabled(on);
        let secs = totals.iteration(w.as_mut(), &mut tr);
        if on { &mut traced } else { &mut plain }.push(secs);
    }
    tr.set_enabled(false);

    let modeled = totals.first.clone().expect("iterations ran");
    let peak_rss = peak_rss_mib();
    let e2e: BTreeMap<String, Value> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => median(&setups),
                "iter_s_p50" => median(&plain),
                "peak_rss_mib" => peak_rss,
                _ => modeled[name],
            };
            (name.to_string(), metric(value, unit))
        })
        .collect();

    // The workload's full end-to-end report.
    let mut report = e2e.clone();
    report.insert("iter_count".into(), metric(plain.len() as f64, "count"));
    if plain.len() >= 100 {
        report.insert("iter_s_p90".into(), metric(percentile(&plain, 0.9), "s"));
    }
    let fail_ratio = totals.failed as f64 / totals.attempted.max(1) as f64;
    report.insert("fail_ratio".into(), metric(fail_ratio, "fraction"));
    for (name, unit) in SPECIFIC {
        if let Some(v) = modeled.get(name) {
            report.insert(name.into(), metric(*v, unit));
        }
    }

    let (metrics, trace_ok) = if args.trace {
        let path = Path::new("perfbench/out")
            .join(format!("trace_{}_seed{}.json", args.workload, args.seed));
        if let Err(e) = tr.write_chrome(&path, TRACE_FILE_EVENTS) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        per_layer(&tr, &modeled, &traced, &plain)
    } else {
        (e2e, true)
    };

    if totals.split_violations > 0 {
        eprintln!(
            "perfbench: {} run(s) whose host-time split missed the core clock",
            totals.split_violations
        );
    }
    if totals.modeled_drift > 0 {
        eprintln!("perfbench: modeled values changed across {} iteration(s)", totals.modeled_drift);
    }
    let correct =
        totals.failed == 0 && totals.split_violations == 0 && totals.modeled_drift == 0 && trace_ok;

    let mut head = BTreeMap::new();
    head.insert("workload".to_string(), Value::Str(args.workload.clone()));
    head.insert("seed".to_string(), Value::Num(args.seed as f64));
    head.insert("trace".to_string(), Value::Bool(args.trace));
    head.insert("metrics".to_string(), Value::Obj(report));
    println!("{}", one_line(&Value::Obj(head)));

    let mut out = BTreeMap::new();
    out.insert("correct".to_string(), Value::Bool(correct));
    out.insert("attempted".to_string(), Value::Num(totals.attempted as f64));
    out.insert("failed".to_string(), Value::Num(totals.failed as f64));
    out.insert("metrics".to_string(), Value::Obj(metrics));
    println!("{}", one_line(&Value::Obj(out)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_report::json;

    /// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.as_obj().expect("object")[key]
            .as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_obj().expect("metric");
                (m["name"].as_str().expect("name").into(), m["unit"].as_str().expect("unit").into())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let mut e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        let mut listed_e2e = listed(&doc, "end_to_end");
        e2e.sort();
        listed_e2e.sort();
        assert_eq!(listed_e2e, e2e);

        let mut layers: Vec<(String, String)> =
            WALL_LAYERS.iter().map(|l| (format!("{l}.wall_ms"), "ms".to_string())).collect();
        for (n, u) in [
            ("trace.iter_s_p50", "s"),
            ("trace.overhead_ms", "ms"),
            ("ir.sim_minst_per_s", "Minst/s"),
        ]
        .into_iter()
        .chain(MODELED_LAYERS)
        {
            layers.push((n.into(), u.into()));
        }
        let mut listed_layers = listed(&doc, "per_layer");
        layers.sort();
        listed_layers.sort();
        assert_eq!(listed_layers, layers);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.9), 4.0);
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }
}
