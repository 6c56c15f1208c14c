//! Compilation with a span around each stage.
//!
//! Untraced iterations call `tdo_cim::compile` itself. Traced ones call
//! the stages it is made of, one at a time, so that each gets its own
//! span: the front end (`tdo_lang::compile`), SCoP extraction
//! (`tdo_poly::scop::extract`), then every pass's `CompilerPass::run`.
//! The set-up of a traced run checks that this yields the same program
//! text as `tdo_cim::compile`.

use tdo_cim::{CompileError, CompileOptions, CompiledProgram};
use tdo_poly::scop::extract;
use tdo_tactics::{PassCtx, PassManager};

use crate::trace::Tracer;

/// Span name of a pass, by its stable pass name.
fn pass_span(name: &str) -> &'static str {
    match name {
        "detect-offload" => "tactics.detect",
        "sync-hoist" => "tactics.hoist",
        "elide-syncs" => "tactics.elide",
        "pin-placement" => "tactics.pins",
        _ => "tactics.other",
    }
}

/// Compiles `src`: through `tdo_cim::compile` when tracing is off, stage
/// by stage inside spans when it is on.
pub fn compile(
    tr: &mut Tracer,
    src: &str,
    opts: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    if !tr.enabled() {
        return tdo_cim::compile(src, opts);
    }
    let source_ir = tr.span("lang", || {
        let ir = tdo_lang::compile(src).map_err(CompileError)?;
        tdo_ir::verify::verify(&ir).expect("front-end emits well-formed IR");
        Ok(ir)
    })?;
    let unoptimized = |source_ir: tdo_ir::Program, scop_skipped| CompiledProgram {
        prog: source_ir.clone(),
        source_ir,
        report: None,
        passes: Vec::new(),
        scop_skipped,
    };
    if !opts.enable_loop_tactics {
        return Ok(unoptimized(source_ir, None));
    }
    let scop = match tr.span("poly", || extract(&source_ir)) {
        Ok(scop) => scop,
        Err(e) => return Ok(unoptimized(source_ir, Some(e))),
    };
    let mut ctx = PassCtx::new(&source_ir, Some(&scop), &opts.tactics);
    let mut passes = Vec::with_capacity(opts.passes.len());
    for id in &opts.passes {
        let stage = PassManager::from_ids(&[*id]);
        let name = pass_span(stage.pass_names()[0]);
        passes.extend(tr.span(name, || stage.run(&mut ctx)));
    }
    let (prog, report) = (ctx.prog, ctx.offload);
    tdo_ir::verify::verify(&prog).expect("tactics emit well-formed IR");
    Ok(CompiledProgram { prog, source_ir, report, passes, scop_skipped: None })
}
