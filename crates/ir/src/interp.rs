//! IR interpreter with pluggable execution backends.
//!
//! One interpreter drives two very different executions:
//! * [`PureBackend`] — plain `Vec<f32>` storage, no cost model. Used for
//!   reference runs and for semantic-preservation tests of the polyhedral
//!   transformations (`tdo-poly`).
//! * the costed backend in `tdo-cim` — storage in simulated physical
//!   memory, every [`CostEvent`] retired on the Arm-A7 model, and
//!   `polly_cim*` calls dispatched to the real runtime library.
//!
//! Both backends receive the same [`CostEvent`] stream and the same
//! resolved runtime calls, so "host-only" and "host + CIM" executions are
//! numerically comparable by construction.

use crate::calls::{CimCall, ResolvedCall};
use crate::expr::{Access, BinOp, Expr, UnOp};
use crate::stmt::{CmpOp, ForLoop, Stmt};
use crate::types::{ArrayId, Program};
use std::collections::HashMap;
use std::fmt;

/// Dynamic cost events emitted while interpreting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostEvent {
    /// Integer ALU operation (includes address arithmetic).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Floating add/sub/min/max.
    FpAdd,
    /// Floating multiply.
    FpMul,
    /// Floating divide.
    FpDiv,
    /// Array element load.
    Load,
    /// Array element store.
    Store,
    /// Compare.
    Cmp,
    /// Branch.
    Branch,
    /// Call overhead (argument setup, branch-and-link).
    CallOverhead,
}

/// Runtime interpretation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// An index left the declared extent.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Flattened index that was requested.
        flat: i64,
        /// Element count of the array.
        len: usize,
    },
    /// An expression had the wrong type (e.g. float used as index).
    TypeError(String),
    /// A runtime call's extent or origin was not a non-negative integer.
    BadCallArgs(String),
    /// Backend-specific failure (e.g. device error), carried as text.
    Backend(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfBounds { array, flat, len } => {
                write!(f, "index {flat} out of bounds for {array} (len {len})")
            }
            InterpError::TypeError(s) => write!(f, "type error: {s}"),
            InterpError::BadCallArgs(s) => write!(f, "bad call arguments: {s}"),
            InterpError::Backend(s) => write!(f, "backend error: {s}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// A dynamic value: loop variables are integers, data is floating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer.
    I(i64),
    /// Float (f32 data widened for evaluation).
    F(f64),
}

impl Value {
    /// As an index.
    ///
    /// # Errors
    ///
    /// Type error if the value is a float.
    pub fn as_index(self) -> Result<i64, InterpError> {
        match self {
            Value::I(v) => Ok(v),
            Value::F(v) => Err(InterpError::TypeError(format!("float {v} used as index"))),
        }
    }

    /// As a float (integers promote).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
        }
    }
}

/// Execution backend: storage, cost sink and runtime-call handler.
pub trait Backend {
    /// Reads element `flat` of `array`.
    fn load(&mut self, array: ArrayId, flat: usize) -> f32;

    /// Writes element `flat` of `array`.
    fn store(&mut self, array: ArrayId, flat: usize, v: f32);

    /// Whether the affine fast path may batch an inner loop's memory
    /// traffic into per-array runs ([`Backend::load_run`] /
    /// [`Backend::store_run`]) instead of issuing every element in strict
    /// program order. Batching keeps values and cost totals bit-identical
    /// but reorders accesses at run granularity, so backends that observe
    /// access *order* (recorders, differential references) keep the
    /// default `false`.
    fn prefers_bulk_runs(&self) -> bool {
        false
    }

    /// Reads `out.len()` elements of `array` at flat indices `flat`,
    /// `flat + stride`, … (default: scalar [`Backend::load`] loop).
    fn load_run(&mut self, array: ArrayId, flat: i64, stride: i64, out: &mut [f32]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.load(array, (flat + stride * i as i64) as usize);
        }
    }

    /// Writes `data` to `array` at flat indices `flat`, `flat + stride`, …
    /// (default: scalar [`Backend::store`] loop).
    fn store_run(&mut self, array: ArrayId, flat: i64, stride: i64, data: &[f32]) {
        for (i, v) in data.iter().enumerate() {
            self.store(array, (flat + stride * i as i64) as usize, *v);
        }
    }

    /// Receives `n` cost events (default: ignored).
    fn cost(&mut self, _ev: CostEvent, _n: u64) {}

    /// Executes a runtime-library call.
    ///
    /// # Errors
    ///
    /// A failure of the call, e.g. a device error.
    fn call(&mut self, call: &ResolvedCall<'_>) -> Result<(), InterpError>;
}

/// Runs a program to completion on the given backend.
///
/// # Errors
///
/// Propagates any [`InterpError`] from evaluation or the backend.
pub fn run<B: Backend>(prog: &Program, backend: &mut B) -> Result<(), InterpError> {
    let mut env = vec![0i64; prog.vars.len()];
    let mut interp = Interp::new(prog, backend, true);
    interp.exec_block(&prog.body, &mut env)
}

/// Runs a program with the affine fast path disabled — the reference
/// executor that differential tests compare [`run`] against.
///
/// # Errors
///
/// Propagates any [`InterpError`] from evaluation or the backend.
pub fn run_reference<B: Backend>(prog: &Program, backend: &mut B) -> Result<(), InterpError> {
    let mut env = vec![0i64; prog.vars.len()];
    let mut interp = Interp::new(prog, backend, false);
    interp.exec_block(&prog.body, &mut env)
}

struct Interp<'p, B: Backend> {
    prog: &'p Program,
    backend: &'p mut B,
    enable_fast: bool,
    /// Fast-path templates, keyed by `ForLoop` node address within the
    /// (immutably borrowed) program. `None` caches "not fast-path-able".
    fast_loops: HashMap<usize, Option<fast::FastBody>>,
    /// Column buffers every fast loop evaluates in.
    scratch: fast::Scratch,
}

impl<'p, B: Backend> Interp<'p, B> {
    fn new(prog: &'p Program, backend: &'p mut B, enable_fast: bool) -> Self {
        Interp {
            prog,
            backend,
            enable_fast,
            fast_loops: HashMap::new(),
            scratch: Default::default(),
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt], env: &mut Vec<i64>) -> Result<(), InterpError> {
        for s in stmts {
            self.exec_stmt(s, env)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt, env: &mut Vec<i64>) -> Result<(), InterpError> {
        match s {
            Stmt::For(l) => {
                if l.step <= 0 {
                    return Err(InterpError::TypeError(format!(
                        "loop over {} has non-positive step {}",
                        self.prog.var_name(l.var),
                        l.step
                    )));
                }
                let lo = self.eval(&l.lo, env)?.as_index()?;
                let hi = self.eval(&l.hi, env)?.as_index()?;
                if self.fast_loop(l, lo, hi, env) {
                    return Ok(());
                }
                let mut i = lo;
                while i < hi {
                    env[l.var.0] = i;
                    self.backend.cost(CostEvent::Cmp, 1);
                    self.backend.cost(CostEvent::Branch, 1);
                    self.backend.cost(CostEvent::IntAlu, 1);
                    self.exec_block(&l.body, env)?;
                    i += l.step;
                }
                // Loop exit check.
                self.backend.cost(CostEvent::Cmp, 1);
                self.backend.cost(CostEvent::Branch, 1);
                Ok(())
            }
            Stmt::Assign(a) => {
                let v = self.eval(&a.value, env)?.as_f64();
                let flat = self.flat_index(&a.target, env)?;
                self.backend.cost(CostEvent::Store, 1);
                self.backend.store(a.target.array, flat, v as f32);
                Ok(())
            }
            Stmt::If(i) => {
                let l = self.eval(&i.cond.lhs, env)?;
                let r = self.eval(&i.cond.rhs, env)?;
                self.backend.cost(CostEvent::Cmp, 1);
                self.backend.cost(CostEvent::Branch, 1);
                let taken = match (l, r) {
                    (Value::I(a), Value::I(b)) => cmp_holds(i.cond.op, a as f64, b as f64),
                    (a, b) => cmp_holds(i.cond.op, a.as_f64(), b.as_f64()),
                };
                if taken {
                    self.exec_block(&i.then_body, env)
                } else {
                    self.exec_block(&i.else_body, env)
                }
            }
            Stmt::Call(c) => self.exec_call(c, env),
        }
    }

    /// Tries to run `l` through its compiled [`fast::FastBody`]; returns
    /// `true` when the loop has fully executed (with identical values,
    /// cost totals and load/store order as the slow path would produce).
    fn fast_loop(&mut self, l: &ForLoop, lo: i64, hi: i64, env: &mut [i64]) -> bool {
        if !self.enable_fast {
            return false;
        }
        let key = l as *const ForLoop as usize;
        if !self.fast_loops.contains_key(&key) {
            let compiled = fast::FastBody::compile(self.prog, l);
            if let Some(body) = &compiled {
                self.scratch.fit(body);
            }
            self.fast_loops.insert(key, compiled);
        }
        let Interp { fast_loops, backend, scratch, .. } = self;
        match fast_loops.get(&key).and_then(|o| o.as_ref()) {
            Some(body) => body.run(l, lo, hi, env, *backend, scratch),
            None => false,
        }
    }

    fn exec_call(&mut self, c: &CimCall, env: &mut Vec<i64>) -> Result<(), InterpError> {
        let call = c.resolve(|e| self.eval(e, env))?;
        self.backend.cost(CostEvent::CallOverhead, 1);
        self.backend.call(&call)
    }

    fn flat_index(&mut self, a: &Access, env: &mut Vec<i64>) -> Result<usize, InterpError> {
        let decl = self.prog.array(a.array);
        if a.idx.len() != decl.dims.len() {
            return Err(InterpError::TypeError(format!(
                "{} indexed with {} subscripts, declared with {}",
                decl.name,
                a.idx.len(),
                decl.dims.len()
            )));
        }
        let mut flat: i64 = 0;
        for (d, e) in a.idx.iter().enumerate() {
            let v = self.eval(e, env)?.as_index()?;
            if v < 0 || v as usize >= decl.dims[d] {
                return Err(InterpError::OutOfBounds {
                    array: decl.name.clone(),
                    flat: v,
                    len: decl.dims[d],
                });
            }
            flat = flat * decl.dims[d] as i64 + v;
            // One multiply-accumulate of address arithmetic per dim.
            self.backend.cost(CostEvent::IntAlu, 1);
        }
        Ok(flat as usize)
    }

    fn eval(&mut self, e: &Expr, env: &mut Vec<i64>) -> Result<Value, InterpError> {
        match e {
            Expr::Int(v) => Ok(Value::I(*v)),
            Expr::Float(v) => Ok(Value::F(*v)),
            Expr::Var(v) => Ok(Value::I(env[v.0])),
            Expr::Load(a) => {
                let flat = self.flat_index(a, env)?;
                self.backend.cost(CostEvent::Load, 1);
                Ok(Value::F(self.backend.load(a.array, flat) as f64))
            }
            Expr::Unary(UnOp::Neg, e) => {
                let v = self.eval(e, env)?;
                Ok(match v {
                    Value::I(v) => {
                        self.backend.cost(CostEvent::IntAlu, 1);
                        Value::I(-v)
                    }
                    Value::F(v) => {
                        self.backend.cost(CostEvent::FpAdd, 1);
                        Value::F(-v)
                    }
                })
            }
            Expr::Bin(op, l, r) => {
                let l = self.eval(l, env)?;
                let r = self.eval(r, env)?;
                self.apply_bin(*op, l, r)
            }
        }
    }

    fn apply_bin(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, InterpError> {
        if let (Value::I(a), Value::I(b)) = (l, r) {
            let (ev, v) = match op {
                BinOp::Add => (CostEvent::IntAlu, a + b),
                BinOp::Sub => (CostEvent::IntAlu, a - b),
                BinOp::Mul => (CostEvent::IntMul, a * b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(InterpError::TypeError("integer division by zero".into()));
                    }
                    (CostEvent::IntAlu, a / b)
                }
                BinOp::Min => (CostEvent::IntAlu, a.min(b)),
                BinOp::Max => (CostEvent::IntAlu, a.max(b)),
            };
            self.backend.cost(ev, 1);
            return Ok(Value::I(v));
        }
        let ev = match op {
            BinOp::Add | BinOp::Sub | BinOp::Min | BinOp::Max => CostEvent::FpAdd,
            BinOp::Mul => CostEvent::FpMul,
            BinOp::Div => CostEvent::FpDiv,
        };
        self.backend.cost(ev, 1);
        Ok(Value::F(float_op(op, l.as_f64(), r.as_f64())))
    }
}

/// The float rule of every value operation, shared by the tree-walker and
/// the fast path's columns. Kernels compute in f32, so arithmetic rounds
/// both operands and the result to f32 to match hardware; `Min`/`Max`
/// compare the unrounded f64 values.
fn float_op(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => (a as f32 + b as f32) as f64,
        BinOp::Sub => (a as f32 - b as f32) as f64,
        BinOp::Mul => (a as f32 * b as f32) as f64,
        BinOp::Div => (a as f32 / b as f32) as f64,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    }
}

fn cmp_holds(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

mod fast;
pub mod pure;

pub use pure::PureBackend;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::types::VarId;

    fn simple_program() -> Program {
        // for i in 0..4: A[i] = i * 2.0
        let mut p = Program::new("t");
        let a = p.add_array("A", vec![4]);
        let i = p.fresh_var("i");
        p.body = vec![Stmt::for_loop(
            i,
            Expr::Int(0),
            Expr::Int(4),
            1,
            vec![Stmt::assign(
                Access { array: a, idx: vec![Expr::Var(i)] },
                Expr::mul(Expr::Var(i), Expr::Float(2.0)),
            )],
        )];
        p
    }

    #[test]
    fn pure_run_computes_values() {
        let p = simple_program();
        let mut b = PureBackend::for_program(&p);
        run(&p, &mut b).expect("runs");
        assert_eq!(b.array(ArrayId(0)), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn cost_events_are_emitted() {
        #[derive(Default)]
        struct Counter {
            arrays: Vec<Vec<f32>>,
            loads: u64,
            stores: u64,
            branches: u64,
        }
        impl Backend for Counter {
            fn load(&mut self, a: ArrayId, flat: usize) -> f32 {
                self.arrays[a.0][flat]
            }
            fn store(&mut self, a: ArrayId, flat: usize, v: f32) {
                self.arrays[a.0][flat] = v;
            }
            fn cost(&mut self, ev: CostEvent, n: u64) {
                match ev {
                    CostEvent::Load => self.loads += n,
                    CostEvent::Store => self.stores += n,
                    CostEvent::Branch => self.branches += n,
                    _ => {}
                }
            }
            fn call(&mut self, _: &ResolvedCall<'_>) -> Result<(), InterpError> {
                Err(InterpError::Backend("no runtime".into()))
            }
        }
        let p = simple_program();
        let mut b = Counter { arrays: vec![vec![0.0; 4]], ..Counter::default() };
        run(&p, &mut b).expect("runs");
        assert_eq!(b.stores, 4);
        assert_eq!(b.loads, 0);
        assert_eq!(b.branches, 5); // 4 iterations + exit check
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut p = Program::new("t");
        let a = p.add_array("A", vec![2]);
        p.body = vec![Stmt::assign(Access { array: a, idx: vec![Expr::Int(5)] }, Expr::Float(0.0))];
        let mut b = PureBackend::for_program(&p);
        let err = run(&p, &mut b).unwrap_err();
        assert!(matches!(err, InterpError::OutOfBounds { flat: 5, .. }));
    }

    #[test]
    fn float_as_index_is_type_error() {
        let mut p = Program::new("t");
        let a = p.add_array("A", vec![2]);
        p.body =
            vec![Stmt::assign(Access { array: a, idx: vec![Expr::Float(1.5)] }, Expr::Float(0.0))];
        let mut b = PureBackend::for_program(&p);
        assert!(matches!(run(&p, &mut b), Err(InterpError::TypeError(_))));
    }

    #[test]
    fn min_max_and_if_work() {
        // A[0] = min(3, 5); if (1 < 2) A[1] = max(3.0, 4.0) else A[1] = 0
        let mut p = Program::new("t");
        let a = p.add_array("A", vec![2]);
        p.body = vec![
            Stmt::assign(
                Access { array: a, idx: vec![Expr::Int(0)] },
                Expr::min(Expr::Int(3), Expr::Int(5)),
            ),
            Stmt::If(crate::stmt::IfStmt {
                cond: crate::stmt::Cond { op: CmpOp::Lt, lhs: Expr::Int(1), rhs: Expr::Int(2) },
                then_body: vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::Int(1)] },
                    Expr::max(Expr::Float(3.0), Expr::Float(4.0)),
                )],
                else_body: vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::Int(1)] },
                    Expr::Float(0.0),
                )],
            }),
        ];
        let mut b = PureBackend::for_program(&p);
        run(&p, &mut b).expect("runs");
        assert_eq!(b.array(a), &[3.0, 4.0]);
    }

    #[test]
    fn nested_loop_bounds_reference_outer_vars() {
        // for i in 0..3: for j in i..3: A[i][j] = 1
        let mut p = Program::new("t");
        let a = p.add_array("A", vec![3, 3]);
        let i = p.fresh_var("i");
        let j = p.fresh_var("j");
        p.body = vec![Stmt::for_loop(
            i,
            Expr::Int(0),
            Expr::Int(3),
            1,
            vec![Stmt::for_loop(
                j,
                Expr::Var(i),
                Expr::Int(3),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::Var(i), Expr::Var(j)] },
                    Expr::Float(1.0),
                )],
            )],
        )];
        let mut b = PureBackend::for_program(&p);
        run(&p, &mut b).expect("runs");
        let sum: f32 = b.array(a).iter().sum();
        assert_eq!(sum, 6.0); // upper triangle incl. diagonal
    }

    /// `for i in 0..4 step {step}: A[i] = 1.0` must fail before its first
    /// iteration under both executors instead of spinning forever.
    fn assert_step_rejected(step: i64) {
        let mut p = Program::new("t");
        let a = p.add_array("A", vec![4]);
        let i = p.fresh_var("i");
        p.body = vec![Stmt::for_loop(
            i,
            Expr::Int(0),
            Expr::Int(4),
            step,
            vec![Stmt::assign(Access { array: a, idx: vec![Expr::Var(i)] }, Expr::Float(1.0))],
        )];
        for exec in [run::<PureBackend>, run_reference::<PureBackend>] {
            let mut b = PureBackend::for_program(&p);
            match exec(&p, &mut b) {
                Err(InterpError::TypeError(msg)) => {
                    assert!(msg.contains("loop over i"), "{msg}");
                    assert!(msg.contains(&format!("step {step}")), "{msg}");
                }
                other => panic!("step {step}: expected a type error, got {other:?}"),
            }
            assert_eq!(b.array(a), &[0.0; 4], "no iteration may run");
        }
    }

    #[test]
    fn zero_step_is_an_error() {
        assert_step_rejected(0);
    }

    #[test]
    fn negative_step_is_an_error() {
        assert_step_rejected(-1);
    }

    #[test]
    fn var_id_display() {
        assert_eq!(VarId(3).to_string(), "%3");
        assert_eq!(ArrayId(1).to_string(), "@1");
    }
}
