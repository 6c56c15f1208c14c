//! `polybench`: the paper's Fig. 6 evaluation.
//!
//! The seven PolyBench kernels at Medium (N = 128), each compiled
//! host-only and with the default pipeline, both executed, and both
//! outputs compared bit for bit against `polybench::reference_outputs`.
//! The host-only interpreter run is almost all of the wall time, so this
//! is where interpreter and memory-model speed shows.

use polybench::{Dataset, Kernel};
use tdo_cim::{CompileOptions, ExecOptions, RunResult};

use crate::oracle::same_bits;
use crate::stages;
use crate::tally::{HostCounters, Tally};
use crate::trace::Tracer;
use crate::Workload;

const DATASET: Dataset = Dataset::Medium;

struct Case {
    kernel: Kernel,
    src: String,
    oracle: Vec<(String, Vec<f32>)>,
}

/// The set-up state: sources and oracles of every kernel.
pub struct Polybench {
    cases: Vec<Case>,
    exec: ExecOptions,
}

/// Builds sources and oracles. With `traced`, also checks that the
/// staged compile yields `tdo_cim::compile`'s program text.
pub fn setup(traced: bool) -> Result<Polybench, String> {
    let cases: Vec<Case> = Kernel::ALL
        .iter()
        .map(|&kernel| Case {
            kernel,
            src: polybench::source(kernel, DATASET),
            oracle: polybench::reference_outputs(kernel, DATASET),
        })
        .collect();
    if traced {
        for c in &cases {
            for opts in [CompileOptions::host_only(), CompileOptions::default()] {
                crate::check_staged_compile(&c.src, &opts)?;
            }
        }
    }
    Ok(Polybench {
        cases,
        exec: ExecOptions { accel: crate::accel((1, 1)), ..ExecOptions::default() },
    })
}

impl Polybench {
    /// Compiles and executes one kernel; counts the check.
    fn run(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        c: &Case,
        opts: &CompileOptions,
        span: &'static str,
    ) -> Option<RunResult> {
        let init = polybench::init_fn(c.kernel);
        let run = stages::compile(tr, &c.src, opts).ok().and_then(|prog| {
            tally.add_compile(&prog);
            tr.span(span, || tdo_cim::execute(&prog, &self.exec, &init)).ok()
        });
        let ok = run.as_ref().is_some_and(|r| {
            c.oracle
                .iter()
                .all(|(name, want)| r.array(name).is_some_and(|got| same_bits(got, want)))
        });
        tally.check(ok);
        if let Some(r) = &run {
            tally.exec_instructions += r.host.instructions;
        }
        run
    }
}

impl Workload for Polybench {
    fn iteration(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let freq = self.exec.machine.freq_hz;
        let (mut energy_gains, mut edp_gains) = (Vec::new(), Vec::new());
        for c in &self.cases {
            let host = self.run(tr, tally, c, &CompileOptions::host_only(), "exec.host");
            let cim = self.run(tr, tally, c, &CompileOptions::default(), "exec.cim");
            if let Some(cim) = &cim {
                tally.add_run(
                    HostCounters::from_stats(&cim.host, freq),
                    cim.driver.as_ref(),
                    cim.accel.as_ref(),
                    cim.runtime.as_ref(),
                    cim.total_energy(),
                );
            }
            if let (Some(host), Some(cim)) = (host, cim) {
                energy_gains.push(host.total_energy().as_pj() / cim.total_energy().as_pj());
                edp_gains.push(host.edp() / cim.edp());
            }
        }
        tally.extra.insert("energy_gain_x", tdo_cim::geomean(energy_gains));
        tally.extra.insert("edp_gain_x", tdo_cim::geomean(edp_gains));
    }
}
