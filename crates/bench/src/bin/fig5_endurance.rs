//! Regenerates Fig. 5: system lifetime vs PCM cell endurance for the
//! Listing-2 workload, naive vs "smart" (fusion) mapping.
//!
//! Following the paper's accounting: square matrices of 4096
//! byte-elements, S = 512 KiB crossbar, writes uniform across the array.
//! The naive mapping writes `B` and `E` to the crossbar and streams `A`;
//! the smart mapping writes the shared `A` once. `B` (write traffic) is
//! the written bytes divided by the kernel-pair execution time, which the
//! analytic accelerator model provides at this scale.

use cim_accel::estimate::estimate_gemm;
use cim_accel::AccelConfig;
use cim_machine::bus::BusConfig;
use cim_report::{BenchRecord, BenchReport};
use tdo_bench::{
    bench_config, device_flag_help, device_from_args, emit_report, handle_help, json_flag_help,
};

fn main() {
    handle_help(
        "fig5_endurance",
        "system lifetime vs PCM endurance, naive vs smart (fusion) mapping",
        &[device_flag_help(), json_flag_help()],
    );
    let wall_t0 = std::time::Instant::now();
    let n = 4096usize;
    let device = device_from_args();
    let model_src = device.model();
    let cfg = AccelConfig::for_device(device);
    let bus = BusConfig::default();

    // Execution time of the two GEMMs (identical under both mappings: the
    // same GEMVs run either way).
    let pair = {
        let mut e = estimate_gemm(&cfg, &bus, n, n, n, false, false);
        e.merge(&estimate_gemm(&cfg, &bus, n, n, n, false, false));
        e
    };
    let exec_s = pair.busy.as_s();

    // Write volume per mapping: each written matrix is n*n 8-bit cells.
    let matrix_bytes = (n * n) as f64;
    let naive_bytes = 2.0 * matrix_bytes; // B and E programmed
    let smart_bytes = matrix_bytes; // shared A programmed once
    let b_naive = naive_bytes / exec_s;
    let b_smart = smart_bytes / exec_s;

    // The paper's x-axis is 10..40 Mwrites for its 1e7-nominal PCM part:
    // 1x..4x the nominal budget. Sweep the same 1x..4x band relative to
    // whichever device is selected, through the device's Eq.-1 model.
    let nominal = model_src.endurance_writes();
    let model = model_src.lifetime(512.0 * 1024.0);
    println!(
        "FIG. 5 — SYSTEM LIFETIME vs {} CELL ENDURANCE (Listing 2)",
        device.name().to_uppercase()
    );
    println!("{}", "=".repeat(68));
    println!("workload: 2x GEMM {n}x{n}, shared A; exec time {:.3} s; S = 512 KiB", exec_s);
    println!("device nominal endurance: {:.0e} writes/cell", nominal);
    println!("write traffic: naive {:.2} KB/s, smart {:.2} KB/s", b_naive / 1e3, b_smart / 1e3);
    println!("{}", "-".repeat(68));
    println!(
        "{:>22} {:>20} {:>20}",
        "endurance (Mwrites)", "naive mapping (y)", "smart mapping (y)"
    );
    for step in 0..=6 {
        let e = nominal * (1.0 + 0.5 * step as f64);
        println!(
            "{:>22} {:>20.2} {:>20.2}",
            e / 1e6,
            model.years(e, b_naive),
            model.years(e, b_smart)
        );
    }
    println!("{}", "-".repeat(68));
    println!(
        "smart/naive lifetime ratio: {:.2}x (paper: ~2x)",
        model.years(2.0 * nominal, b_smart) / model.years(2.0 * nominal, b_naive)
    );

    let mut report = BenchReport::new("fig5_endurance");
    report.push(
        BenchRecord {
            name: "listing2_lifetime".into(),
            config: bench_config(Some(device), None, None, None),
            wall_ns: wall_t0.elapsed().as_nanos() as f64,
            modeled_ns: pair.busy.as_ns(),
            ..BenchRecord::default()
        }
        .with_metric("write_traffic_naive_bps", b_naive)
        .with_metric("write_traffic_smart_bps", b_smart)
        .with_metric("years_naive_at_2x", model.years(2.0 * nominal, b_naive))
        .with_metric("years_smart_at_2x", model.years(2.0 * nominal, b_smart))
        .with_metric(
            "smart_over_naive_x",
            model.years(2.0 * nominal, b_smart) / model.years(2.0 * nominal, b_naive),
        ),
    );
    emit_report(&report);
}
