//! The end-to-end compilation pipeline (Fig. 4).
//!
//! Front-end (`tdo-lang`, the Clang stand-in) lowers source to loop IR;
//! the mid-level optimizer (`tdo-poly`, the Polly stand-in) extracts the
//! SCoP and builds schedule trees; the compiler pass pipeline
//! (`tdo_tactics::pass_manager`) detects and offloads kernels, then
//! optimizes the emitted runtime-call schedule (sync hoisting, h2d
//! elision, capacity-aware pin placement); the back-end (the costed
//! interpreter in [`crate::exec`]) "links" the result against the CIM
//! runtime library.

use crate::options::CompileOptions;
use std::fmt;
use tdo_ir::printer::print_program;
use tdo_ir::Program;
use tdo_lang::FrontendError;
use tdo_poly::scop::{extract, ScopError};
use tdo_tactics::{OffloadReport, PassCtx, PassManager, PassReport};

/// A compiled program ready for execution.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The executable IR (post-tactics when enabled).
    pub prog: Program,
    /// The IR straight out of the front-end (pre-optimization).
    pub source_ir: Program,
    /// Loop Tactics report (when detection ran).
    pub report: Option<OffloadReport>,
    /// Per-pass reports, in pipeline order (empty when tactics were
    /// disabled or the SCoP was skipped).
    pub passes: Vec<PassReport>,
    /// Why the polyhedral step was skipped, if it was.
    pub scop_skipped: Option<ScopError>,
}

impl CompiledProgram {
    /// Pseudo-C rendering of the executable program (Listing 1 style).
    pub fn pseudo_c(&self) -> String {
        print_program(&self.prog)
    }

    /// Pseudo-C rendering of the unoptimized program.
    pub fn source_pseudo_c(&self) -> String {
        print_program(&self.source_ir)
    }

    /// Whether any kernel was offloaded.
    pub fn offloaded(&self) -> bool {
        self.report.as_ref().is_some_and(|r| r.any_offloaded())
    }

    /// A named counter summed across every pass report (e.g.
    /// `"hoisted_syncs"`, `"elided_syncs"`, `"pins"`, `"spills"`).
    pub fn pass_counter(&self, key: &str) -> u64 {
        self.passes.iter().map(|p| p.counter(key)).sum()
    }

    /// Whether any pass beyond detection changed the program — the
    /// schedule differs from the conservative point-wise one.
    pub fn dataflow_optimized(&self) -> bool {
        self.passes.iter().skip(1).any(|p| p.changed)
    }
}

/// Compilation failure (front-end only; polyhedral bail-outs degrade
/// gracefully to unoptimized code, as in the real flow).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError(pub FrontendError);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compilation failed: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// Compiles source text through the full pipeline.
///
/// # Errors
///
/// [`CompileError`] on front-end failures. Polyhedral bail-outs (non-affine
/// code) are not errors: the program runs host-only, recorded in
/// [`CompiledProgram::scop_skipped`].
pub fn compile(src: &str, opts: &CompileOptions) -> Result<CompiledProgram, CompileError> {
    let source_ir = tdo_lang::compile(src).map_err(CompileError)?;
    tdo_ir::verify::verify(&source_ir).expect("front-end emits well-formed IR");
    if !opts.enable_loop_tactics {
        return Ok(CompiledProgram {
            prog: source_ir.clone(),
            source_ir,
            report: None,
            passes: Vec::new(),
            scop_skipped: None,
        });
    }
    match extract(&source_ir) {
        Ok(scop) => {
            let manager = PassManager::from_ids(&opts.passes);
            let (prog, report, passes) = {
                let mut ctx = PassCtx::new(&source_ir, Some(&scop), &opts.tactics);
                let passes = manager.run(&mut ctx);
                (ctx.prog, ctx.offload, passes)
            };
            tdo_ir::verify::verify(&prog).expect("tactics emit well-formed IR");
            Ok(CompiledProgram { prog, source_ir, report, passes, scop_skipped: None })
        }
        Err(e) => Ok(CompiledProgram {
            prog: source_ir.clone(),
            source_ir,
            report: None,
            passes: Vec::new(),
            scop_skipped: Some(e),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GEMM: &str = r#"
        const int N = 8;
        float A[N][N]; float B[N][N]; float C[N][N];
        void kernel() {
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                C[i][j] += A[i][k] * B[k][j];
        }
    "#;

    #[test]
    fn host_only_compilation_keeps_loops() {
        let c = compile(GEMM, &CompileOptions::host_only()).expect("compiles");
        assert!(!c.offloaded());
        assert!(c.pseudo_c().contains("for ("));
    }

    #[test]
    fn tactics_compilation_offloads() {
        let c = compile(GEMM, &CompileOptions::with_tactics()).expect("compiles");
        assert!(c.offloaded());
        assert!(c.pseudo_c().contains("polly_cimBlasSGemm"));
        assert!(c.source_pseudo_c().contains("for ("));
    }

    #[test]
    fn default_compile_runs_the_full_pass_pipeline() {
        let c = compile(GEMM, &CompileOptions::default()).expect("compiles");
        assert!(c.offloaded());
        assert_eq!(
            c.passes.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
            ["detect-offload", "sync-hoist", "elide-syncs", "pin-placement"]
        );
        assert!(c.pass_counter("kernels_offloaded") >= 1);
        // The legacy pipeline stops after detection.
        let legacy = compile(GEMM, &CompileOptions::without_dataflow()).expect("compiles");
        assert_eq!(legacy.passes.len(), 1);
        assert!(!legacy.dataflow_optimized());
    }

    #[test]
    fn non_affine_code_degrades_gracefully() {
        let src = r#"
            float A[8];
            void kernel() {
              for (int i = 0; i < 8; i++)
                if (i < 4) A[i] = 1.0;
            }
        "#;
        let c = compile(src, &CompileOptions::with_tactics()).expect("compiles");
        assert!(!c.offloaded());
        assert!(c.scop_skipped.is_some());
        assert!(c.pseudo_c().contains("if ("));
    }

    #[test]
    fn frontend_errors_propagate() {
        let err = compile("void kernel() { X = 1.0; }", &CompileOptions::host_only());
        assert!(err.is_err());
    }
}
