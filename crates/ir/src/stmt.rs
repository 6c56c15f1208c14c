//! Statements of the loop IR.

use crate::calls::CimCall;
use crate::expr::{Access, Expr};
use crate::types::VarId;

/// Comparison operators for `if` conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// A comparison between two expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Operator.
    pub op: CmpOp,
    /// Left operand.
    pub lhs: Expr,
    /// Right operand.
    pub rhs: Expr,
}

/// A counted loop `for (var = lo; var < hi; var += step)`.
///
/// The upper bound is exclusive and the step strictly positive; the
/// front-end normalizes other shapes or rejects them.
#[derive(Debug, Clone, PartialEq)]
pub struct ForLoop {
    /// Induction variable.
    pub var: VarId,
    /// Inclusive lower bound.
    pub lo: Expr,
    /// Exclusive upper bound.
    pub hi: Expr,
    /// Step (positive).
    pub step: i64,
    /// Loop body.
    pub body: Vec<Stmt>,
}

/// An assignment `target = value` (compound ops are expanded by the
/// front-end into `target = target op value`).
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// Store destination.
    pub target: Access,
    /// Value expression.
    pub value: Expr,
}

/// A two-way conditional.
#[derive(Debug, Clone, PartialEq)]
pub struct IfStmt {
    /// Condition.
    pub cond: Cond,
    /// Taken branch.
    pub then_body: Vec<Stmt>,
    /// Fallthrough branch.
    pub else_body: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Counted loop.
    For(ForLoop),
    /// Assignment.
    Assign(Assign),
    /// Conditional.
    If(IfStmt),
    /// Runtime-library call.
    Call(CimCall),
}

impl Stmt {
    /// Convenience constructor for a loop.
    pub fn for_loop(var: VarId, lo: Expr, hi: Expr, step: i64, body: Vec<Stmt>) -> Stmt {
        Stmt::For(ForLoop { var, lo, hi, step, body })
    }

    /// Convenience constructor for an assignment.
    pub fn assign(target: Access, value: Expr) -> Stmt {
        Stmt::Assign(Assign { target, value })
    }

    /// Visits all statements in this subtree, pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::For(l) => l.body.iter().for_each(|s| s.visit(f)),
            Stmt::If(i) => {
                i.then_body.iter().for_each(|s| s.visit(f));
                i.else_body.iter().for_each(|s| s.visit(f));
            }
            Stmt::Assign(_) | Stmt::Call(_) => {}
        }
    }

    /// Counts assignments in this subtree (static, not dynamic).
    pub fn count_assigns(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if matches!(s, Stmt::Assign(_)) {
                n += 1;
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ArrayId;

    #[test]
    fn visit_reaches_nested_statements() {
        let a = Access { array: ArrayId(0), idx: vec![Expr::Var(VarId(0))] };
        let inner = Stmt::assign(a.clone(), Expr::Float(0.0));
        let loop_stmt = Stmt::for_loop(VarId(0), Expr::Int(0), Expr::Int(4), 1, vec![inner]);
        assert_eq!(loop_stmt.count_assigns(), 1);
        let mut kinds = Vec::new();
        loop_stmt.visit(&mut |s| {
            kinds.push(match s {
                Stmt::For(_) => "for",
                Stmt::Assign(_) => "assign",
                Stmt::If(_) => "if",
                Stmt::Call(_) => "call",
            })
        });
        assert_eq!(kinds, vec!["for", "assign"]);
    }
}
