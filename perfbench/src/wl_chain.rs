//! `chain`: the multi-head inference chain (`workloads::ChainSpec`,
//! Small, 3 heads, 8 micro-batches x 8 layers).
//!
//! Compiled twice per iteration — the default pipeline and fig9's
//! pinning schedule (default pipeline with fusion off) — and executed
//! asynchronously on a 2x2 grid. It is the workload whose modeled result
//! the compiler's decisions move (hoisted and elided syncs, pins,
//! install skips, pin evictions), and deep enough that compile time is a
//! visible share of the wall clock.

use std::collections::BTreeMap;

use cim_runtime::DispatchMode;
use polybench::Dataset;
use tdo_cim::{CompileOptions, ExecOptions};
use workloads::ChainSpec;

use crate::oracle::{self, same_bits};
use crate::stages;
use crate::tally::{HostCounters, Tally};
use crate::trace::Tracer;
use crate::Workload;

/// The two schedules of every iteration.
fn schedules() -> [CompileOptions; 2] {
    let mut pins = CompileOptions::default();
    pins.tactics.fusion = false;
    [CompileOptions::default(), pins]
}

/// The set-up state: source text, seeded inputs and the oracle.
pub struct Chain {
    src: String,
    inputs: BTreeMap<String, Vec<f32>>,
    oracle: Vec<(String, Vec<f32>)>,
    seed: u64,
    exec: ExecOptions,
}

/// Values in `{-2..2}`: the first layer stays exact, deeper layers round.
fn fill(seed: u64, name: &str, data: &mut [f32]) {
    let h = name.bytes().fold(seed as u32 ^ (seed >> 32) as u32, |h, b| {
        h.wrapping_mul(31).wrapping_add(u32::from(b))
    });
    for (i, v) in data.iter_mut().enumerate() {
        *v = polybench::init_value(h, i);
    }
}

pub fn setup(seed: u64, traced: bool) -> Result<Chain, String> {
    let spec =
        ChainSpec { batch: 8, layers: 8, ..ChainSpec::for_dataset(Dataset::Small) }.with_heads(3);
    let src = spec.source();
    let (r, d) = (spec.rows, spec.width);
    let mut inputs = BTreeMap::new();
    for b in 0..spec.batch {
        inputs.insert(spec.input_name(b), vec![0f32; r * d]);
    }
    for l in 1..=spec.layers {
        for h in 0..spec.heads {
            inputs.insert(spec.head_weight_name(l, h), vec![0f32; d * d]);
        }
    }
    for (name, data) in inputs.iter_mut() {
        fill(seed, name, data);
    }
    let oracle = oracle::chain(&spec, |name| inputs[name].clone());
    // Operands, projections and activations all live in CMA.
    let words = spec.batch * r * d * (spec.layers * (spec.heads + 1) + 1)
        + spec.layers * spec.heads * d * d;
    let mut exec = ExecOptions { accel: crate::accel((2, 2)), ..ExecOptions::default() }
        .with_dispatch(DispatchMode::Async);
    if 8 * words as u64 > exec.machine.cma_bytes {
        exec = exec.with_cma_bytes(8 * words as u64);
    }
    if traced {
        for opts in schedules() {
            crate::check_staged_compile(&src, &opts)?;
        }
    }
    Ok(Chain { src, inputs, oracle, seed, exec })
}

impl Workload for Chain {
    fn iteration(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        // Inputs come from the seeded set-up; every other array starts
        // as seeded junk the kernel must overwrite.
        let init = |name: &str, data: &mut [f32]| match self.inputs.get(name) {
            Some(v) => data.copy_from_slice(v),
            None => fill(self.seed ^ 0x5eed, name, data),
        };
        for opts in schedules() {
            let run = stages::compile(tr, &self.src, &opts).ok().and_then(|prog| {
                tally.add_compile(&prog);
                tr.span("exec.cim", || tdo_cim::execute(&prog, &self.exec, &init)).ok()
            });
            let ok = run.as_ref().is_some_and(|r| {
                self.oracle
                    .iter()
                    .all(|(name, want)| r.array(name).is_some_and(|got| same_bits(got, want)))
            });
            tally.check(ok);
            if let Some(r) = run {
                tally.exec_instructions += r.host.instructions;
                tally.add_run(
                    HostCounters::from_stats(&r.host, self.exec.machine.freq_hz),
                    r.driver.as_ref(),
                    r.accel.as_ref(),
                    r.runtime.as_ref(),
                    r.total_energy(),
                );
            }
        }
    }
}
