//! Regenerates Table I: CIM and host system configuration, plus the
//! device/tile sweep matrix the simulator supports beyond the paper's
//! fixed part (see `docs/DEVICES.md`).

use cim_accel::{AccelConfig, BUFFER_BYTES};
use cim_machine::MachineConfig;
use cim_pcm::DeviceKind;
use cim_report::{BenchRecord, BenchReport};
use tdo_bench::{bench_config, emit_report, handle_help, json_flag_help};

fn main() {
    handle_help(
        "table1",
        "CIM and host system configuration (Table I) + sweep matrix",
        &[json_flag_help()],
    );
    let a = AccelConfig::default();
    let e = a.energy;
    let m = MachineConfig::default();

    println!("TABLE I — CIM AND HOST SYSTEM CONFIGURATION");
    println!("{}", "=".repeat(72));
    println!("{:<44} Value", "CIM Parameter");
    println!("{}", "-".repeat(72));
    let tech = format!("IBM PCM 2x({}x{} @4-bit) = {}x{} @8-bit", a.rows, a.cols, a.rows, a.cols);
    println!("{:<44} {tech}", "PCM Crossbar technology");
    println!(
        "{:<44} {} us/GEMV and {} us/row-program",
        "Compute and Write Latency/8-bit",
        e.compute_ns_per_gemv / 1000.0,
        e.write_ns_per_row / 1000.0
    );
    println!(
        "{:<44} {} fJ (2x {} fJ/4-bit PCM)",
        "Compute Energy/8-bit",
        e.compute_fj_per_cell,
        e.compute_fj_per_cell / 2.0
    );
    println!(
        "{:<44} {} pJ (2x {} pJ/4-bit PCM)",
        "Write Energy/8-bit",
        e.write_pj_per_cell,
        e.write_pj_per_cell / 2.0
    );
    println!(
        "{:<44} {} nJ (@1.2GHz)",
        "Energy for Mixed signal circuit", e.mixed_signal_nj_per_gemv
    );
    println!(
        "{:<44} {} pJ/byte-access",
        format!("Input/Output buffer Energy ({:.1}KB)", BUFFER_BYTES as f64 / 1024.0),
        e.buffer_pj_per_byte
    );
    println!(
        "{:<44} {} pJ/GEMV weighted sum, {} pJ/extra ALU op",
        "Digital Logic", e.weighted_sum_pj_per_gemv, e.alu_pj_per_op
    );
    println!("{:<44} <{} nJ/GEMV", "Energy for DMA and microEngine", e.dma_engine_nj_per_gemv);
    println!("{}", "-".repeat(72));
    println!("{:<44} ", "Host CPU Spec");
    let cpu = format!("{}x Arm-A7 @{:.1}GHz", m.cores, m.freq_hz / 1e9);
    println!("{cpu:<44} {}GB LPDDR3", m.phys_mem_bytes >> 30);
    println!(
        "{:<44} {} pJ/inst (including cache)",
        format!("L1-I/D-{}KB, L2-{}MB", m.l1d.size_bytes / 1024, m.l2.size_bytes / (1024 * 1024)),
        m.pj_per_inst
    );
    println!("{}", "=".repeat(72));

    println!();
    println!("DEVICE / TILE SWEEP MATRIX (beyond the paper's fixed part)");
    println!("{}", "-".repeat(72));
    println!(
        "{:<26} {:>10} {:>12} {:>10} {:>10}",
        "device", "write pJ", "write ns/row", "read ns", "endurance"
    );
    for kind in DeviceKind::ALL {
        let d = kind.model();
        let de = d.energy();
        println!(
            "{:<26} {:>10} {:>12} {:>10} {:>10.0e}",
            d.name(),
            de.write_pj_per_cell,
            de.write_ns_per_row,
            de.compute_ns_per_gemv,
            d.endurance_writes()
        );
    }
    println!("{}", "-".repeat(72));
    println!(
        "tile grid: default {}x{} ({} tile(s)); sweep with fig6_edp --device/--grid",
        a.grid.0,
        a.grid.1,
        a.tile_count()
    );
    println!("{}", "=".repeat(72));

    // Table I is pure configuration — the records pin the platform
    // constants so a silent parameter change trips the perf gate.
    let mut report = BenchReport::new("table1");
    report.push(
        BenchRecord {
            name: "host".into(),
            config: bench_config(None, Some(a.grid), None, None),
            ..BenchRecord::default()
        }
        .with_metric("cores", m.cores as f64)
        .with_metric("freq_hz", m.freq_hz)
        .with_metric("pj_per_inst", m.pj_per_inst),
    );
    for kind in DeviceKind::ALL {
        let d = kind.model();
        let de = d.energy();
        report.push(
            BenchRecord {
                name: format!("device_{}", kind.name()),
                config: bench_config(Some(kind), Some(a.grid), None, None),
                ..BenchRecord::default()
            }
            .with_metric("write_pj_per_cell", de.write_pj_per_cell)
            .with_metric("write_ns_per_row", de.write_ns_per_row)
            .with_metric("compute_ns_per_gemv", de.compute_ns_per_gemv)
            .with_metric("endurance_writes", d.endurance_writes()),
        );
    }
    emit_report(&report);
}
