//! Pseudo-C pretty printer.
//!
//! Renders programs in the style of the paper's listings, so the
//! quickstart example can show the exact before/after of Listing 1:
//! loop nests before Loop Tactics, `polly_cim*` calls after.

use crate::calls::Arg;
use crate::expr::{Access, BinOp, Expr, UnOp};
use crate::stmt::{CmpOp, Stmt};
use crate::types::Program;
use std::fmt::Write;

/// Renders the whole program as pseudo-C.
pub fn print_program(prog: &Program) -> String {
    let mut out = String::new();
    for d in &prog.arrays {
        if d.is_scalar() {
            match d.scalar_init {
                Some(v) => {
                    let _ = writeln!(out, "float {} = {};", d.name, fmt_f64(v));
                }
                None => {
                    let _ = writeln!(out, "float {};", d.name);
                }
            }
        } else {
            let dims: String = d.dims.iter().map(|n| format!("[{n}]")).collect();
            let _ = writeln!(out, "float {}{};", d.name, dims);
        }
    }
    let _ = writeln!(out, "void {}() {{", prog.name);
    out.push_str(&print_stmts(prog, &prog.body, 1));
    out.push_str("}\n");
    out
}

/// Renders a statement list at the given indent level.
pub fn print_stmts(prog: &Program, stmts: &[Stmt], indent: usize) -> String {
    let mut out = String::new();
    for s in stmts {
        print_stmt(prog, s, indent, &mut out);
    }
    out
}

fn pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn print_stmt(prog: &Program, s: &Stmt, indent: usize, out: &mut String) {
    match s {
        Stmt::For(l) => {
            pad(indent, out);
            let v = prog.var_name(l.var);
            let step = if l.step == 1 { format!("{v}++") } else { format!("{v} += {}", l.step) };
            let _ = writeln!(
                out,
                "for (int {v} = {}; {v} < {}; {step}) {{",
                print_expr(prog, &l.lo),
                print_expr(prog, &l.hi)
            );
            out.push_str(&print_stmts(prog, &l.body, indent + 1));
            pad(indent, out);
            out.push_str("}\n");
        }
        Stmt::Assign(a) => {
            pad(indent, out);
            let _ = writeln!(
                out,
                "{} = {};",
                print_access(prog, &a.target),
                print_expr(prog, &a.value)
            );
        }
        Stmt::If(i) => {
            pad(indent, out);
            let _ = writeln!(
                out,
                "if ({} {} {}) {{",
                print_expr(prog, &i.cond.lhs),
                cmp_str(i.cond.op),
                print_expr(prog, &i.cond.rhs)
            );
            out.push_str(&print_stmts(prog, &i.then_body, indent + 1));
            if !i.else_body.is_empty() {
                pad(indent, out);
                out.push_str("} else {\n");
                out.push_str(&print_stmts(prog, &i.else_body, indent + 1));
            }
            pad(indent, out);
            out.push_str("}\n");
        }
        Stmt::Call(c) => {
            pad(indent, out);
            let args: Vec<String> = c
                .args()
                .into_iter()
                .map(|a| match a {
                    Arg::Expr(e) => print_expr(prog, e),
                    Arg::Int(v) => v.to_string(),
                    Arg::Array(id) => format!("cim_{}", prog.array(id).name),
                })
                .collect();
            let _ = writeln!(out, "{}({});", c.callee(), args.join(", "));
        }
    }
}

fn cmp_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
    }
}

fn print_access(prog: &Program, a: &Access) -> String {
    let mut s = prog.array(a.array).name.clone();
    for e in &a.idx {
        let _ = write!(s, "[{}]", print_expr(prog, e));
    }
    s
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Renders an expression with minimal parentheses.
pub fn print_expr(prog: &Program, e: &Expr) -> String {
    print_prec(prog, e, 0)
}

fn prec_of(op: BinOp) -> u8 {
    match op {
        BinOp::Add | BinOp::Sub => 1,
        BinOp::Mul | BinOp::Div => 2,
        BinOp::Min | BinOp::Max => 3, // rendered as calls, never bare
    }
}

fn print_prec(prog: &Program, e: &Expr, parent: u8) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => fmt_f64(*v),
        Expr::Var(v) => prog.var_name(*v).to_string(),
        Expr::Load(a) => print_access(prog, a),
        Expr::Unary(UnOp::Neg, inner) => format!("-{}", print_prec(prog, inner, 3)),
        Expr::Bin(BinOp::Min, l, r) => {
            format!("min({}, {})", print_prec(prog, l, 0), print_prec(prog, r, 0))
        }
        Expr::Bin(BinOp::Max, l, r) => {
            format!("max({}, {})", print_prec(prog, l, 0), print_prec(prog, r, 0))
        }
        Expr::Bin(op, l, r) => {
            let p = prec_of(*op);
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Min | BinOp::Max => unreachable!("handled above"),
            };
            let s = format!("{} {} {}", print_prec(prog, l, p), sym, print_prec(prog, r, p + 1));
            if p < parent {
                format!("({s})")
            } else {
                s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calls::CimCall;

    fn gemm_like() -> Program {
        let mut p = Program::new("kernel_demo");
        let c = p.add_array("C", vec![4, 4]);
        let a = p.add_array("A", vec![4, 4]);
        let b = p.add_array("B", vec![4, 4]);
        let i = p.fresh_var("i");
        let j = p.fresh_var("j");
        let k = p.fresh_var("k");
        let body = Stmt::assign(
            Access { array: c, idx: vec![Expr::Var(i), Expr::Var(j)] },
            Expr::add(
                Expr::load(c, vec![Expr::Var(i), Expr::Var(j)]),
                Expr::mul(
                    Expr::load(a, vec![Expr::Var(i), Expr::Var(k)]),
                    Expr::load(b, vec![Expr::Var(k), Expr::Var(j)]),
                ),
            ),
        );
        let kf = Stmt::for_loop(k, Expr::Int(0), Expr::Int(4), 1, vec![body]);
        let jf = Stmt::for_loop(j, Expr::Int(0), Expr::Int(4), 1, vec![kf]);
        let ifor = Stmt::for_loop(i, Expr::Int(0), Expr::Int(4), 1, vec![jf]);
        p.body = vec![ifor];
        p
    }

    #[test]
    fn prints_loop_nest_like_listing() {
        let p = gemm_like();
        let text = print_program(&p);
        assert!(text.contains("for (int i = 0; i < 4; i++) {"));
        assert!(text.contains("C[i][j] = C[i][j] + A[i][k] * B[k][j];"));
        assert!(text.contains("float C[4][4];"));
        assert!(text.contains("void kernel_demo() {"));
    }

    #[test]
    fn prints_calls_with_cim_prefix() {
        let mut p = Program::new("k");
        let a = p.add_array("A", vec![4]);
        p.body = vec![Stmt::Call(CimCall::Init(0)), Stmt::Call(CimCall::Malloc(a))];
        let text = print_program(&p);
        assert!(text.contains("polly_cimInit(0);"));
        assert!(text.contains("polly_cimMalloc(cim_A);"));
    }

    #[test]
    fn parenthesization_is_minimal_but_correct() {
        let mut p = Program::new("k");
        let i = p.fresh_var("i");
        // (i + 1) * 2
        let e = Expr::mul(Expr::add(Expr::Var(i), Expr::Int(1)), Expr::Int(2));
        assert_eq!(print_expr(&p, &e), "(i + 1) * 2");
        // i + 1 * 2
        let e = Expr::add(Expr::Var(i), Expr::mul(Expr::Int(1), Expr::Int(2)));
        assert_eq!(print_expr(&p, &e), "i + 1 * 2");
        // a - (b - c) keeps parens
        let e = Expr::sub(Expr::Int(1), Expr::sub(Expr::Int(2), Expr::Int(3)));
        assert_eq!(print_expr(&p, &e), "1 - (2 - 3)");
    }

    #[test]
    fn min_renders_as_call() {
        let mut p = Program::new("k");
        let i = p.fresh_var("ii");
        let e = Expr::min(Expr::add(Expr::Var(i), Expr::Int(32)), Expr::Int(100));
        assert_eq!(print_expr(&p, &e), "min(ii + 32, 100)");
    }

    #[test]
    fn step_rendering() {
        let mut p = Program::new("k");
        let i = p.fresh_var("ii");
        p.body = vec![Stmt::for_loop(i, Expr::Int(0), Expr::Int(64), 32, vec![])];
        let text = print_program(&p);
        assert!(text.contains("for (int ii = 0; ii < 64; ii += 32) {"));
    }
}
