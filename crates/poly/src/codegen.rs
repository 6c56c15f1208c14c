//! Schedule-tree to loop-IR code generation.
//!
//! "The modified tree is then passed back to Polly which lowers it back to
//! an imperative AST and then further down to LLVM-IR" (Section III-A).
//! Here the tree lowers back to `tdo-ir` statements: bands become counted
//! loops, leaves re-emit their statements, extension nodes emit the
//! injected runtime calls verbatim.

use crate::scop::Scop;
use crate::tree::ScheduleTree;
use tdo_ir::{Program, Stmt};

/// Generates the statement list realizing `tree` over the SCoP's
/// statement table.
pub fn generate(scop: &Scop, tree: &ScheduleTree) -> Vec<Stmt> {
    match tree {
        ScheduleTree::Band { dim, child } => {
            vec![Stmt::for_loop(
                dim.var,
                dim.lo.clone(),
                dim.hi.clone(),
                dim.step,
                generate(scop, child),
            )]
        }
        ScheduleTree::Sequence { children } => {
            children.iter().flat_map(|c| generate(scop, c)).collect()
        }
        ScheduleTree::Leaf { stmt } => vec![Stmt::Assign(scop.stmts[*stmt].assign.clone())],
        ScheduleTree::Mark { child, .. } => generate(scop, child),
        ScheduleTree::Extension { stmts } => stmts.clone(),
    }
}

/// Replaces a program's body with the code generated from `tree`,
/// returning the new program (the original is untouched).
pub fn rebuild_program(prog: &Program, scop: &Scop, tree: &ScheduleTree) -> Program {
    let mut out = prog.clone();
    out.body = generate(scop, tree);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scop::extract;
    use tdo_ir::interp::{run, PureBackend};
    use tdo_ir::printer::print_program;
    use tdo_lang::compile;

    #[test]
    fn roundtrip_reproduces_source_semantics() {
        let src = r#"
            const int N = 5;
            float A[N][N]; float x[N]; float y[N];
            void kernel() {
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  y[i] += A[i][j] * x[j];
            }
        "#;
        let prog = compile(src).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let rebuilt = rebuild_program(&prog, &scop, &scop.tree);
        tdo_ir::verify::verify(&rebuilt).expect("well-formed");

        let init = |be: &mut PureBackend| {
            be.set_array(
                prog.array_by_name("A").unwrap(),
                &(0..25).map(|v| v as f32).collect::<Vec<_>>(),
            );
            be.set_array(prog.array_by_name("x").unwrap(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        };
        let mut b1 = PureBackend::for_program(&prog);
        init(&mut b1);
        run(&prog, &mut b1).expect("runs");
        let mut b2 = PureBackend::for_program(&rebuilt);
        init(&mut b2);
        run(&rebuilt, &mut b2).expect("runs");
        assert_eq!(b1.into_arrays(), b2.into_arrays());
    }

    #[test]
    fn extension_nodes_emit_verbatim() {
        let src = "float A[4]; void kernel() { for (int i = 0; i < 4; i++) A[i] = 1.0; }";
        let prog = compile(src).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let call = Stmt::Call(tdo_ir::CimCall::Init(0));
        let tree = ScheduleTree::Sequence {
            children: vec![ScheduleTree::Extension { stmts: vec![call] }, scop.tree.clone()],
        };
        let rebuilt = rebuild_program(&prog, &scop, &tree);
        let text = print_program(&rebuilt);
        assert!(text.contains("polly_cimInit(0);"));
        assert!(text.contains("for (int i = 0; i < 4; i++) {"));
    }
}
