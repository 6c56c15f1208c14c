//! Modeled-clock bookkeeping of one iteration.
//!
//! Every run an iteration makes (an `execute`, a streamed GEMM schedule,
//! a serving run) hands its counters to a [`Tally`]. At the end of the
//! iteration [`Tally::finish`] turns them into named values. All of them
//! come from the simulator's deterministic model, so for one seed they
//! must repeat exactly from iteration to iteration.

use std::collections::BTreeMap;

use cim_accel::AccelStats;
use cim_machine::units::Energy;
use cim_machine::Machine;
use cim_runtime::driver::DriverStats;
use cim_runtime::RuntimeStats;
use tdo_cim::{CompiledProgram, HostStats};

/// Named modeled values of one iteration.
pub type Modeled = BTreeMap<&'static str, f64>;

/// Host core counters of one run, and the core clock they count.
#[derive(Debug, Clone, Copy)]
pub struct HostCounters {
    pub instructions: u64,
    pub spin_instructions: u64,
    pub cycles: u64,
    pub stall_cycles: u64,
    pub freq_hz: f64,
}

impl HostCounters {
    /// From an `execute` result.
    pub fn from_stats(h: &HostStats, freq_hz: f64) -> Self {
        HostCounters {
            instructions: h.instructions,
            spin_instructions: h.spin_instructions,
            cycles: h.cycles,
            stall_cycles: h.stall_cycles,
            freq_hz,
        }
    }

    /// From a machine the benchmark drove directly.
    pub fn from_machine(m: &Machine) -> Self {
        let c = &m.core;
        HostCounters {
            instructions: c.instructions(),
            spin_instructions: c.spin_instructions(),
            cycles: c.cycles(),
            stall_cycles: c.stall_cycles(),
            freq_hz: c.freq_hz(),
        }
    }
}

/// Accumulator of one iteration's checks and modeled counters.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs or requests checked against an oracle.
    pub attempted: u64,
    /// Of those, the ones that returned `Err` or differed by a bit.
    pub failed: u64,
    /// Runs whose host-time split disagreed with the core's clock.
    pub split_violations: u64,
    host_ms: f64,
    energy_pj: f64,
    issue_ms: f64,
    mem_stall_ms: f64,
    busy_wait_ms: f64,
    idle_wait_ms: f64,
    instructions: u64,
    spin_instructions: u64,
    accel: AccelStats,
    rt: RuntimeStats,
    drv: DriverStats,
    compile: [u64; PASS_COUNTERS.len()],
    /// Simulated host instructions of every `execute` call, offloaded or
    /// not — the work behind `ir.sim_minst_per_s`.
    pub exec_instructions: u64,
    l1: (u64, u64),
    l2: (u64, u64),
    writebacks: u64,
    cma_peak: u64,
    serve_grants: u64,
    serve_tile_ns: f64,
    serve_capacity_ns: f64,
    /// Workload-specific modeled results (gains, tail latencies).
    pub extra: Modeled,
}

/// Pass counters summed into `tactics.*`, by pass-report key.
const PASS_COUNTERS: [(&str, &str); 7] = [
    ("kernels_matched", "tactics.kernels_matched"),
    ("kernels_offloaded", "tactics.kernels_offloaded"),
    ("hoisted_syncs", "tactics.hoisted_syncs"),
    ("elided_syncs", "tactics.elided_syncs"),
    ("candidates", "tactics.pin_candidates"),
    ("pins", "tactics.pins"),
    ("spills", "tactics.spills"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Tally {
    /// Counts one oracle check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a compiled program's pass counters.
    pub fn add_compile(&mut self, c: &CompiledProgram) {
        for (total, (key, _)) in self.compile.iter_mut().zip(PASS_COUNTERS) {
            *total += c.pass_counter(key);
        }
    }

    /// Adds one run on the modeled clock: its host split, energy and the
    /// accelerator, runtime and driver counters it reached.
    pub fn add_run(
        &mut self,
        host: HostCounters,
        drv: Option<&DriverStats>,
        accel: Option<&AccelStats>,
        rt: Option<&RuntimeStats>,
        energy: Energy,
    ) {
        let ms_per_cycle = 1e3 / host.freq_hz;
        let busy_ns = drv.map_or(0.0, |d| d.busy_wait_time.as_ns());
        let idle_ns = drv.map_or(0.0, |d| d.idle_wait_time.as_ns());
        // `stall_cycles` also counts every `Core::idle_wait`, so memory
        // stall is what remains after the driver's idle wait; spin
        // instructions retire one per cycle and are the busy wait.
        let issue_cycles = host.cycles - host.stall_cycles - host.spin_instructions;
        let issue = issue_cycles as f64 * ms_per_cycle;
        let mem_stall = host.stall_cycles as f64 * ms_per_cycle - idle_ns / 1e6;
        let total = host.cycles as f64 * ms_per_cycle;
        let split = issue + mem_stall + busy_ns / 1e6 + idle_ns / 1e6;
        // Each spin wait rounds its duration to whole cycles once.
        let waits = drv.map_or(0, |d| d.invocations + d.queue_full_stalls);
        let tolerance = (0.5 * waits as f64 + 1.0) * ms_per_cycle;
        if (split - total).abs() > tolerance || mem_stall < -tolerance {
            self.split_violations += 1;
        }
        self.host_ms += total;
        self.issue_ms += issue;
        self.mem_stall_ms += mem_stall;
        self.busy_wait_ms += busy_ns / 1e6;
        self.idle_wait_ms += idle_ns / 1e6;
        self.instructions += host.instructions;
        self.spin_instructions += host.spin_instructions;
        self.energy_pj += energy.as_pj();
        if let Some(a) = accel {
            self.accel.merge(a);
        }
        if let Some(r) = rt {
            self.add_runtime(r);
        }
        if let Some(d) = drv {
            self.drv.status_reads += d.status_reads;
            self.drv.batched_polls += d.batched_polls;
            self.drv.completions_polled += d.completions_polled;
            self.drv.flush_lines += d.flush_lines;
            self.drv.flush_dirty += d.flush_dirty;
        }
    }

    /// Adds one runtime context's call counters (serving runs have one
    /// per tenant over a shared device).
    pub fn add_runtime(&mut self, r: &RuntimeStats) {
        let t = &mut self.rt;
        t.gemm_calls += r.gemm_calls;
        t.gemv_calls += r.gemv_calls;
        t.gemm_batched_calls += r.gemm_batched_calls;
        t.conv_calls += r.conv_calls;
        t.pin_hits += r.pin_hits;
        t.pin_evictions += r.pin_evictions;
        t.selective_sync_skips += r.selective_sync_skips;
        t.queue_full_stalls += r.queue_full_stalls;
        t.sched_throttles += r.sched_throttles;
        t.wear_throttles += r.wear_throttles;
    }

    /// Adds the memory-system counters of a machine the benchmark drove
    /// directly.
    pub fn add_machine(&mut self, m: &Machine) {
        let (l1, l2) = (m.hier.l1d.stats(), m.hier.l2.stats());
        self.l1.0 += l1.misses;
        self.l1.1 += l1.hits + l1.misses;
        self.l2.0 += l2.misses;
        self.l2.1 += l2.hits + l2.misses;
        self.writebacks += l1.writebacks + l2.writebacks;
        self.cma_peak = self.cma_peak.max(m.cma.peak_used());
    }

    /// Adds one serving run's scheduler ledger: grants, tile-time used
    /// and the tile-time the grid offered over the run.
    pub fn add_serving(&mut self, grants: u64, tile_ns: f64, capacity_ns: f64) {
        self.serve_grants += grants;
        self.serve_tile_ns += tile_ns;
        self.serve_capacity_ns += capacity_ns;
    }

    /// The iteration's modeled values, by metric name.
    pub fn finish(self) -> Modeled {
        let a = &self.accel;
        let mut m: Modeled = PASS_COUNTERS
            .iter()
            .zip(self.compile)
            .map(|((_, name), n)| (*name, n as f64))
            .collect();
        let entries = [
            ("modeled_ms", self.host_ms),
            ("modeled_energy_mj", self.energy_pj / 1e9),
            ("cell_writes", a.cell_writes as f64),
            ("machine.issue_ms", self.issue_ms),
            ("machine.mem_stall_ms", self.mem_stall_ms),
            ("driver.busy_wait_ms", self.busy_wait_ms),
            ("driver.idle_wait_ms", self.idle_wait_ms),
            ("machine.spin_share", ratio(self.spin_instructions as f64, self.instructions as f64)),
            ("machine.l1_miss_ratio", ratio(self.l1.0 as f64, self.l1.1 as f64)),
            ("machine.l2_miss_ratio", ratio(self.l2.0 as f64, self.l2.1 as f64)),
            ("machine.writebacks", self.writebacks as f64),
            ("machine.cma_peak_mib", self.cma_peak as f64 / (1024.0 * 1024.0)),
            (
                "runtime.pin_hit_ratio",
                ratio(self.rt.pin_hits as f64, self.rt.offload_calls() as f64),
            ),
            ("runtime.pin_evictions", self.rt.pin_evictions as f64),
            ("runtime.sync_skips", self.rt.selective_sync_skips as f64),
            ("runtime.queue_full_stalls", self.rt.queue_full_stalls as f64),
            ("driver.status_reads", self.drv.status_reads as f64),
            (
                "driver.completions_per_poll",
                ratio(self.drv.completions_polled as f64, self.drv.batched_polls as f64),
            ),
            (
                "driver.flush_dirty_ratio",
                ratio(self.drv.flush_dirty as f64, self.drv.flush_lines as f64),
            ),
            ("serve.grants", self.serve_grants as f64),
            ("serve.sched_throttles", self.rt.sched_throttles as f64),
            ("serve.wear_throttles", self.rt.wear_throttles as f64),
            ("serve.tile_busy_share", ratio(self.serve_tile_ns, self.serve_capacity_ns)),
            ("accel.busy_ms", a.busy.as_ms()),
            ("accel.install_ms", a.install_time.as_ms()),
            ("accel.compute_ms", a.compute_time.as_ms()),
            ("accel.dma_exposed_ms", a.dma_exposed_time.as_ms()),
            ("accel.rows_programmed", a.rows_programmed as f64),
            ("accel.install_skips", a.install_skips as f64),
            ("accel.gemv_count", a.gemv_count as f64),
            ("accel.max_tiles_active", a.max_tiles_active as f64),
            ("pcm.cell_writes", a.cell_writes as f64),
            ("pcm.macs_per_write", ratio(a.macs as f64, a.cell_writes as f64)),
            ("exec.instructions", self.exec_instructions as f64),
        ];
        m.extend(entries);
        m.extend(self.extra);
        m
    }
}
