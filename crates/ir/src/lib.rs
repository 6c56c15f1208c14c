//! # tdo-ir — structured loop intermediate representation
//!
//! The IR that the TDO-CIM compilation flow is spelled on. The paper works
//! on LLVM-IR with Polly recovering loop structure and affine accesses;
//! this reproduction keeps the loop structure explicit — a `Program` is a
//! forest of counted loops over affine-indexed `f32` array assignments —
//! which exposes exactly the information Polly's SCoP detection recovers,
//! without carrying an entire SSA compiler.
//!
//! What lives here:
//! * [`types`]/[`expr`]/[`stmt`] — the IR itself, with [`calls`], the
//!   typed `polly_cim*` runtime calls and their C argument order;
//! * [`affine`] — affine-form extraction used by SCoP detection and the
//!   Loop Tactics access matchers;
//! * [`interp`] — the interpreter with pluggable backends (pure reference
//!   execution, or the costed machine execution in `tdo-cim`);
//! * [`printer`] — pseudo-C rendering (the paper's listings);
//! * [`verify`] — structural well-formedness checks.
//!
//! ```
//! use tdo_ir::{Program, Stmt, Expr, Access};
//! use tdo_ir::interp::{run, PureBackend};
//!
//! # fn main() -> Result<(), tdo_ir::interp::InterpError> {
//! let mut p = Program::new("axpy");
//! let x = p.add_array("x", vec![4]);
//! let i = p.fresh_var("i");
//! p.body = vec![Stmt::for_loop(i, Expr::Int(0), Expr::Int(4), 1, vec![
//!     Stmt::assign(Access { array: x, idx: vec![Expr::Var(i)] },
//!                  Expr::mul(Expr::Var(i), Expr::Float(3.0))),
//! ])];
//! let mut backend = PureBackend::for_program(&p);
//! run(&p, &mut backend)?;
//! assert_eq!(backend.array(x), &[0.0, 3.0, 6.0, 9.0]);
//! # Ok(())
//! # }
//! ```

pub mod affine;
pub mod calls;
pub mod expr;
pub mod interp;
pub mod printer;
pub mod stmt;
pub mod types;
pub mod verify;

pub use affine::{AffineAccess, AffineExpr};
pub use calls::CimCall;
pub use expr::{Access, BinOp, Expr, UnOp};
pub use stmt::{Assign, CmpOp, Cond, ForLoop, IfStmt, Stmt};
pub use types::{ArrayDecl, ArrayId, Program, VarId};
