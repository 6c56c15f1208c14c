//! Structural verifier for IR programs.
//!
//! Catches malformed programs produced by front-end or transformation
//! bugs before they reach the interpreter: dangling ids, subscript-arity
//! mismatches, assignments to loop variables of sibling scopes, and
//! non-positive loop steps.

use crate::calls::Arg;
use crate::expr::{Access, Expr};
use crate::stmt::Stmt;
use crate::types::{Program, VarId};
use std::collections::HashSet;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An `ArrayId` outside the declaration table.
    DanglingArray(usize),
    /// A `VarId` outside the variable table.
    DanglingVar(usize),
    /// A loop variable used before any enclosing loop defines it.
    UndefinedVar(String),
    /// Subscript count differs from declared rank.
    RankMismatch {
        /// Array name.
        array: String,
        /// Subscripts used.
        used: usize,
        /// Declared rank.
        declared: usize,
    },
    /// Loop step must be positive.
    NonPositiveStep(String),
    /// The same variable is bound by two nested loops.
    ShadowedVar(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::DanglingArray(i) => write!(f, "array id @{i} is not declared"),
            VerifyError::DanglingVar(i) => write!(f, "variable id %{i} is not declared"),
            VerifyError::UndefinedVar(n) => write!(f, "variable {n} used outside its loop"),
            VerifyError::RankMismatch { array, used, declared } => {
                write!(f, "{array} indexed with {used} subscripts, declared rank {declared}")
            }
            VerifyError::NonPositiveStep(n) => write!(f, "loop over {n} has non-positive step"),
            VerifyError::ShadowedVar(n) => write!(f, "loop variable {n} shadows an active loop"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a program.
///
/// # Errors
///
/// The first structural violation found.
pub fn verify(prog: &Program) -> Result<(), VerifyError> {
    let mut live: HashSet<VarId> = HashSet::new();
    verify_block(prog, &prog.body, &mut live)
}

fn verify_block(
    prog: &Program,
    stmts: &[Stmt],
    live: &mut HashSet<VarId>,
) -> Result<(), VerifyError> {
    for s in stmts {
        match s {
            Stmt::For(l) => {
                if l.var.0 >= prog.vars.len() {
                    return Err(VerifyError::DanglingVar(l.var.0));
                }
                if l.step <= 0 {
                    return Err(VerifyError::NonPositiveStep(prog.var_name(l.var).into()));
                }
                verify_expr(prog, &l.lo, live)?;
                verify_expr(prog, &l.hi, live)?;
                if !live.insert(l.var) {
                    return Err(VerifyError::ShadowedVar(prog.var_name(l.var).into()));
                }
                verify_block(prog, &l.body, live)?;
                live.remove(&l.var);
            }
            Stmt::Assign(a) => {
                verify_access(prog, &a.target, live)?;
                verify_expr(prog, &a.value, live)?;
            }
            Stmt::If(i) => {
                verify_expr(prog, &i.cond.lhs, live)?;
                verify_expr(prog, &i.cond.rhs, live)?;
                verify_block(prog, &i.then_body, live)?;
                verify_block(prog, &i.else_body, live)?;
            }
            Stmt::Call(c) => {
                for arg in c.args() {
                    match arg {
                        Arg::Expr(e) => verify_expr(prog, e, live)?,
                        Arg::Array(id) if id.0 >= prog.arrays.len() => {
                            return Err(VerifyError::DanglingArray(id.0));
                        }
                        Arg::Array(_) | Arg::Int(_) => {}
                    }
                }
            }
        }
    }
    Ok(())
}

fn verify_access(prog: &Program, a: &Access, live: &HashSet<VarId>) -> Result<(), VerifyError> {
    if a.array.0 >= prog.arrays.len() {
        return Err(VerifyError::DanglingArray(a.array.0));
    }
    let decl = prog.array(a.array);
    if a.idx.len() != decl.dims.len() {
        return Err(VerifyError::RankMismatch {
            array: decl.name.clone(),
            used: a.idx.len(),
            declared: decl.dims.len(),
        });
    }
    for e in &a.idx {
        verify_expr(prog, e, live)?;
    }
    Ok(())
}

fn verify_expr(prog: &Program, e: &Expr, live: &HashSet<VarId>) -> Result<(), VerifyError> {
    match e {
        Expr::Int(_) | Expr::Float(_) => Ok(()),
        Expr::Var(v) => {
            if v.0 >= prog.vars.len() {
                Err(VerifyError::DanglingVar(v.0))
            } else if !live.contains(v) {
                Err(VerifyError::UndefinedVar(prog.var_name(*v).into()))
            } else {
                Ok(())
            }
        }
        Expr::Load(a) => verify_access(prog, a, live),
        Expr::Unary(_, e) => verify_expr(prog, e, live),
        Expr::Bin(_, l, r) => {
            verify_expr(prog, l, live)?;
            verify_expr(prog, r, live)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Access, Expr};
    use crate::types::ArrayId;

    #[test]
    fn valid_program_passes() {
        let mut p = Program::new("ok");
        let a = p.add_array("A", vec![4]);
        let i = p.fresh_var("i");
        p.body = vec![Stmt::for_loop(
            i,
            Expr::Int(0),
            Expr::Int(4),
            1,
            vec![Stmt::assign(Access { array: a, idx: vec![Expr::Var(i)] }, Expr::Float(1.0))],
        )];
        verify(&p).expect("valid");
    }

    #[test]
    fn var_outside_loop_is_rejected() {
        let mut p = Program::new("bad");
        let a = p.add_array("A", vec![4]);
        let i = p.fresh_var("i");
        p.body = vec![Stmt::assign(Access { array: a, idx: vec![Expr::Var(i)] }, Expr::Float(1.0))];
        assert_eq!(verify(&p), Err(VerifyError::UndefinedVar("i".into())));
    }

    #[test]
    fn rank_mismatch_detected() {
        let mut p = Program::new("bad");
        let a = p.add_array("A", vec![4, 4]);
        p.body = vec![Stmt::assign(Access { array: a, idx: vec![Expr::Int(0)] }, Expr::Float(1.0))];
        assert!(matches!(verify(&p), Err(VerifyError::RankMismatch { .. })));
    }

    #[test]
    fn dangling_ids_detected() {
        let mut p = Program::new("bad");
        p.body = vec![Stmt::assign(Access { array: ArrayId(7), idx: vec![] }, Expr::Float(1.0))];
        assert_eq!(verify(&p), Err(VerifyError::DanglingArray(7)));
    }

    #[test]
    fn shadowed_loop_variable_detected() {
        let mut p = Program::new("bad");
        let i = p.fresh_var("i");
        p.body = vec![Stmt::for_loop(
            i,
            Expr::Int(0),
            Expr::Int(2),
            1,
            vec![Stmt::for_loop(i, Expr::Int(0), Expr::Int(2), 1, vec![])],
        )];
        assert_eq!(verify(&p), Err(VerifyError::ShadowedVar("i".into())));
    }

    #[test]
    fn non_positive_step_detected() {
        let mut p = Program::new("bad");
        let i = p.fresh_var("i");
        p.body = vec![Stmt::for_loop(i, Expr::Int(0), Expr::Int(2), 0, vec![])];
        assert!(matches!(verify(&p), Err(VerifyError::NonPositiveStep(_))));
    }
}
