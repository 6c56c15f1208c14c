//! Affine fast path for innermost loops.
//!
//! The tree-walking interpreter pays a full `Expr` traversal plus one
//! `backend.cost` call per emitted event for every iteration. Kernels
//! spend almost all of their time in innermost loops whose body is a
//! single assignment with affine subscripts (`C[i][j] = C[i][j] + ...`),
//! so those loops are compiled once into a [`FastBody`] template:
//!
//! * every subscript is lowered with [`AffineExpr::from_expr`] and kept
//!   as its constant, its inner-variable coefficient and its other
//!   nonzero terms, so a loop entry costs one multiply-add per term; the
//!   per-dimension bounds checks are discharged for the *whole*
//!   iteration space by testing the two endpoints (an affine index is
//!   monotonic in the inner variable);
//! * the per-iteration cost events are counted structurally at compile
//!   time and retired in bulk (`cost(ev, n * trips)`) — the cost model
//!   only observes totals;
//! * the assignment value is lowered to a post-order list of typed
//!   nodes and evaluated a *column* at a time: each node fills one
//!   scratch column with its value for a whole chunk of iterations,
//!   keeping [`super::Interp::apply_bin`]'s rounding rules (`i64 → f64`
//!   widening, f32 arithmetic, `Min`/`Max` on f64) element for element.
//!   Only the nodes above a register-carried target load (the spine of
//!   `C[i][j] += …` over an inner `k`: one add) run element by element.
//!
//! Memory traffic takes one of two orders. A backend that opts into
//! runs ([`Backend::prefers_bulk_runs`]) gets one [`Backend::load_run`]
//! per load and one [`Backend::store_run`] per chunk of up to 512
//! iterations, when [`FastBody::runs_may_batch`] proves the reordering
//! invisible. Every other backend sees the slow path's exact order: per
//! iteration, one [`Backend::load`] per load in evaluation order, then
//! one [`Backend::store`], with the same evaluator run at width one.
//!
//! Anything the template cannot prove (non-affine subscripts, integer
//! division, multi-statement bodies, an endpoint out of bounds) falls
//! back to the slow path, so observable behavior — values, cost totals,
//! errors — is identical by construction.

use super::{float_op, Backend, CostEvent};
use crate::affine::AffineExpr;
use crate::expr::{Access, BinOp, Expr, UnOp};
use crate::stmt::{ForLoop, Stmt};
use crate::types::{ArrayId, Program, VarId};

/// Census slots, one per [`CostEvent`] variant.
const EVENTS: [CostEvent; 10] = [
    CostEvent::IntAlu,
    CostEvent::IntMul,
    CostEvent::FpAdd,
    CostEvent::FpMul,
    CostEvent::FpDiv,
    CostEvent::Load,
    CostEvent::Store,
    CostEvent::Cmp,
    CostEvent::Branch,
    CostEvent::CallOverhead,
];

fn slot(ev: CostEvent) -> usize {
    EVENTS.iter().position(|e| *e == ev).expect("every event has a slot")
}

/// Iterations per batched chunk, and the row length of every scratch
/// column.
const CHUNK: usize = 512;

/// Load slots are tracked as bits of a `u64` mask.
const MAX_LOADS: usize = 64;

/// An affine subscript as a loop entry evaluates it: `c + inner * i +
/// sum(k * env[v])` over the loop's own variable `i` and the nonzero
/// terms `(v, k)` of every other variable. Entering a loop costs one
/// multiply-add per term, however many variables the program declares.
struct Index {
    c: i64,
    inner: i64,
    terms: Vec<(usize, i64)>,
}

impl Index {
    fn new(a: &AffineExpr, inner: VarId) -> Self {
        let terms = a.terms.iter().filter(|(v, _)| **v != inner).map(|(v, k)| (v.0, *k)).collect();
        Index { c: a.constant, inner: a.coeff(inner), terms }
    }

    /// Value under `env` with the inner variable contributing zero.
    fn base(&self, env: &[i64]) -> i64 {
        self.terms.iter().fold(self.c, |v, &(x, k)| v + k * env[x])
    }
}

/// Tallies the cost events the slow-path `eval` emits for an index
/// expression that [`AffineExpr::from_expr`] accepted: one `IntAlu` per
/// `Add`, `Sub` and `Neg`, one `IntMul` per `Mul`.
fn index_costs(e: &Expr, costs: &mut [u64; 10]) {
    match e {
        Expr::Unary(UnOp::Neg, e) => {
            costs[slot(CostEvent::IntAlu)] += 1;
            index_costs(e, costs);
        }
        Expr::Bin(op, l, r) => {
            let ev = if *op == BinOp::Mul { CostEvent::IntMul } else { CostEvent::IntAlu };
            costs[slot(ev)] += 1;
            index_costs(l, costs);
            index_costs(r, costs);
        }
        Expr::Int(_) | Expr::Float(_) | Expr::Var(_) | Expr::Load(_) => {}
    }
}

/// A lowered array access: per-dimension affine subscripts (with their
/// extents, for the endpoint bounds proof) plus the row-major flattened
/// affine index.
struct AccessPlan {
    array: ArrayId,
    dims: Vec<(Index, usize)>,
    flat: Index,
}

fn compile_access(
    prog: &Program,
    a: &Access,
    inner: VarId,
    costs: &mut [u64; 10],
) -> Option<AccessPlan> {
    let decl = prog.array(a.array);
    if a.idx.len() != decl.dims.len() {
        return None; // slow path reports the TypeError
    }
    let mut flat = AffineExpr::constant(0);
    let mut dims = Vec::with_capacity(a.idx.len());
    for (e, &extent) in a.idx.iter().zip(&decl.dims) {
        let aff = AffineExpr::from_expr(e)?;
        index_costs(e, costs);
        // One multiply-accumulate of address arithmetic per dim.
        costs[slot(CostEvent::IntAlu)] += 1;
        flat = flat.scale(extent as i64).add(&aff);
        dims.push((Index::new(&aff, inner), extent));
    }
    Some(AccessPlan { array: a.array, dims, flat: Index::new(&flat, inner) })
}

/// One operation of the compiled value. Operands name earlier nodes: the
/// list is in post-order, so one forward pass evaluates it.
#[derive(Clone, Copy)]
enum Op {
    Int(i64),
    Float(f64),
    /// The loop's own induction variable.
    Inner,
    /// Any other variable: constant while the loop runs.
    Var(usize),
    /// Load slot `k`, a position in `FastBody::loads`.
    Load(usize),
    /// An integer operand of a float operation, widened as
    /// [`super::Value::as_f64`] does.
    ToF(usize),
    Neg(usize),
    Bin(BinOp, usize, usize),
}

#[derive(Clone, Copy)]
struct Node {
    op: Op,
    /// Integer-typed: the column lives in [`Scratch::ints`], not
    /// [`Scratch::floats`].
    int: bool,
    /// Row of the node's column within its type's scratch.
    col: usize,
    /// Load slots the subtree reads, one bit per slot.
    slots: u64,
}

/// The value's node list with per-type column counts.
#[derive(Default)]
struct Code {
    nodes: Vec<Node>,
    ints: usize,
    floats: usize,
}

impl Code {
    fn push(&mut self, op: Op, int: bool, slots: u64) -> usize {
        let cols = if int { &mut self.ints } else { &mut self.floats };
        self.nodes.push(Node { op, int, col: *cols, slots });
        *cols += 1;
        self.nodes.len() - 1
    }

    /// Node `n` as a float operand: integer nodes are widened first.
    fn float(&mut self, n: usize) -> usize {
        if self.nodes[n].int {
            self.push(Op::ToF(n), false, 0)
        } else {
            n
        }
    }
}

/// Compiles a value expression into `code`, returning its node. Node
/// types are structural and exactly predict the runtime `Value` variant
/// (literals and loads are fixed, `Bin` is integer iff both operands
/// are), which is what lets the census pick the right event per
/// operation ahead of time. Loads are numbered in evaluation order.
fn compile_expr(
    prog: &Program,
    inner: VarId,
    e: &Expr,
    costs: &mut [u64; 10],
    loads: &mut Vec<AccessPlan>,
    code: &mut Code,
) -> Option<usize> {
    match e {
        Expr::Int(v) => Some(code.push(Op::Int(*v), true, 0)),
        Expr::Float(v) => Some(code.push(Op::Float(*v), false, 0)),
        Expr::Var(v) if *v == inner => Some(code.push(Op::Inner, true, 0)),
        Expr::Var(v) => Some(code.push(Op::Var(v.0), true, 0)),
        Expr::Load(a) => {
            let plan = compile_access(prog, a, inner, costs)?;
            costs[slot(CostEvent::Load)] += 1;
            let k = loads.len();
            if k == MAX_LOADS {
                return None;
            }
            loads.push(plan);
            Some(code.push(Op::Load(k), false, 1 << k))
        }
        Expr::Unary(UnOp::Neg, e) => {
            let n = compile_expr(prog, inner, e, costs, loads, code)?;
            let Node { int, slots, .. } = code.nodes[n];
            costs[slot(if int { CostEvent::IntAlu } else { CostEvent::FpAdd })] += 1;
            Some(code.push(Op::Neg(n), int, slots))
        }
        Expr::Bin(op, l, r) => {
            let a = compile_expr(prog, inner, l, costs, loads, code)?;
            let b = compile_expr(prog, inner, r, costs, loads, code)?;
            let int = code.nodes[a].int && code.nodes[b].int;
            let ev = if int {
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Min | BinOp::Max => CostEvent::IntAlu,
                    BinOp::Mul => CostEvent::IntMul,
                    // Integer division can fault mid-loop; keep it on the
                    // slow path so the error surfaces identically.
                    BinOp::Div => return None,
                }
            } else {
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Min | BinOp::Max => CostEvent::FpAdd,
                    BinOp::Mul => CostEvent::FpMul,
                    BinOp::Div => CostEvent::FpDiv,
                }
            };
            costs[slot(ev)] += 1;
            let (a, b) = if int { (a, b) } else { (code.float(a), code.float(b)) };
            let slots = code.nodes[a].slots | code.nodes[b].slots;
            Some(code.push(Op::Bin(*op, a, b), int, slots))
        }
    }
}

/// Column buffers for [`FastBody`] evaluation, shared by every fast loop
/// of one interpreter run (fast loops are innermost, so they never
/// nest). Each row holds [`CHUNK`] elements. [`Scratch::fit`] sizes the
/// buffers when a body is compiled, so running a loop never allocates.
#[derive(Default)]
pub(super) struct Scratch {
    /// Gathered loads, one row per load slot.
    gather: Vec<f32>,
    /// Float columns, one row per float node.
    floats: Vec<f64>,
    /// Integer columns, one row per integer node.
    ints: Vec<i64>,
    /// The chunk's values as stored.
    out: Vec<f32>,
    /// `(array, base, stride)` of each load slot at this loop entry.
    lflat: Vec<(ArrayId, i64, i64)>,
    /// Nodes that read a register-carried slot, in evaluation order.
    spine: Vec<usize>,
    /// Per-element values of the spine nodes, by node index.
    spine_vals: Vec<f64>,
}

impl Scratch {
    /// Grows the buffers to hold `body`'s columns.
    pub(super) fn fit(&mut self, body: &FastBody) {
        let grow_to = |len: usize, rows: usize| len.max(rows * CHUNK);
        let n = body.code.nodes.len();
        self.gather.resize(grow_to(self.gather.len(), body.loads.len()), 0.0);
        self.floats.resize(grow_to(self.floats.len(), body.code.floats), 0.0);
        self.ints.resize(grow_to(self.ints.len(), body.code.ints), 0);
        self.out.resize(CHUNK, 0.0);
        self.lflat.reserve(body.loads.len());
        self.spine.reserve(n);
        self.spine_vals.resize(self.spine_vals.len().max(n), 0.0);
    }
}

/// Row `out` of `buf` (first `m` elements) and every row before it.
fn split_row<T>(buf: &mut [T], out: usize, m: usize) -> (&[T], &mut [T]) {
    let (head, tail) = buf.split_at_mut(out * CHUNK);
    (head, &mut tail[..m])
}

/// Row `r` of `head`, first `m` elements.
fn row<T>(head: &[T], r: usize, m: usize) -> &[T] {
    &head[r * CHUNK..r * CHUNK + m]
}

fn map2<T: Copy, U>(out: &mut [U], a: &[T], b: &[T], f: impl Fn(T, T) -> U) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// `acc = f(acc, x) as f32` for each `x` of `xs`, storing every value the
/// register takes.
fn fold(out: &mut [f32], xs: &[f64], acc: &mut f32, f: impl Fn(f64, f64) -> f64) {
    let mut a = *acc;
    for (o, &x) in out.iter_mut().zip(xs) {
        a = f(f64::from(a), x) as f32;
        *o = a;
    }
    *acc = a;
}

/// A compiled innermost loop: `for i in lo..hi step s { target = value }`
/// with everything affine. Cached per `ForLoop` node by the interpreter.
pub(super) struct FastBody {
    target: AccessPlan,
    loads: Vec<AccessPlan>,
    code: Code,
    /// The value's node; always float-typed.
    root: usize,
    /// Cost events one iteration emits on the slow path, by [`EVENTS`] slot.
    costs: [u64; 10],
}

impl FastBody {
    /// Compiles the loop body, or `None` if any part of it is outside the
    /// fast path's provable subset.
    pub(super) fn compile(prog: &Program, l: &ForLoop) -> Option<FastBody> {
        if l.step <= 0 || l.body.len() != 1 {
            return None;
        }
        let Stmt::Assign(a) = &l.body[0] else { return None };
        let mut costs = [0u64; 10];
        // Loop head per iteration: compare, branch, induction increment.
        costs[slot(CostEvent::Cmp)] += 1;
        costs[slot(CostEvent::Branch)] += 1;
        costs[slot(CostEvent::IntAlu)] += 1;
        let mut loads = Vec::new();
        let mut code = Code::default();
        // Body order mirrors the slow path: value first, then target.
        let value = compile_expr(prog, l.var, &a.value, &mut costs, &mut loads, &mut code)?;
        // The stored value is `as_f64() as f32`: an integer widens first.
        let root = code.float(value);
        let target = compile_access(prog, &a.target, l.var, &mut costs)?;
        costs[slot(CostEvent::Store)] += 1;
        Some(FastBody { target, loads, code, root, costs })
    }

    /// Executes the loop if the whole iteration space is provably in
    /// bounds; returns `false` to defer to the slow path. `lo`/`hi` are
    /// the already-evaluated loop bounds. `s` must have been
    /// [`Scratch::fit`] to this body.
    pub(super) fn run<B: Backend>(
        &self,
        l: &ForLoop,
        lo: i64,
        hi: i64,
        env: &mut [i64],
        backend: &mut B,
        s: &mut Scratch,
    ) -> bool {
        if hi <= lo {
            // Zero-trip loop: just the exit check, env untouched.
            backend.cost(CostEvent::Cmp, 1);
            backend.cost(CostEvent::Branch, 1);
            return true;
        }
        let trips = (hi - lo + l.step - 1) / l.step;
        let last = lo + (trips - 1) * l.step;
        // An affine subscript is monotonic in the inner variable, so
        // checking the first and last iterations bounds them all.
        let resolve = |plan: &AccessPlan| -> Option<(i64, i64)> {
            for (ix, extent) in &plan.dims {
                let b = ix.base(env);
                for i in [lo, last] {
                    let v = b + ix.inner * i;
                    if v < 0 || v as usize >= *extent {
                        return None;
                    }
                }
            }
            Some((plan.flat.base(env), plan.flat.inner))
        };
        let Some(tflat) = resolve(&self.target) else { return false };
        s.lflat.clear();
        for plan in &self.loads {
            let Some((base, stride)) = resolve(plan) else { return false };
            s.lflat.push((plan.array, base, stride));
        }
        // Retire the whole loop's census in bulk. The cost model only
        // accumulates totals; ordering is observable solely through
        // load/store, whose order the paths below keep.
        for (ev, n) in EVENTS.iter().zip(&self.costs) {
            if *n > 0 {
                backend.cost(*ev, n * trips as u64);
            }
        }
        // Loop exit check.
        backend.cost(CostEvent::Cmp, 1);
        backend.cost(CostEvent::Branch, 1);
        if backend.prefers_bulk_runs() && self.runs_may_batch(tflat, &s.lflat, lo, last) {
            self.run_batched(l.step, lo, trips, tflat, env, backend, s);
        } else {
            // Element order: each iteration's loads in evaluation order,
            // then its store, exactly as the slow path issues them.
            let mut i = lo;
            while i < hi {
                for (k, &(arr, base, stride)) in s.lflat.iter().enumerate() {
                    s.gather[k * CHUNK] = backend.load(arr, (base + stride * i) as usize);
                }
                self.eval(s, env, i, l.step, 1, 0, &mut 0.0);
                backend.store(self.target.array, (tflat.0 + tflat.1 * i) as usize, s.out[0]);
                i += l.step;
            }
        }
        env[l.var.0] = last;
        true
    }

    /// Whether batching the loop into per-array runs preserves scalar
    /// semantics: every load must be unaffected by the loop's own stores.
    /// Distinct arrays never alias (separate allocations). For a load of
    /// the target array, three safe shapes: the *same* affine progression
    /// as the store with a nonzero stride (each iteration reads its own
    /// element before writing it, and never one a previous iteration
    /// wrote — the reduction `C[i] = C[i] + …`), the same progression
    /// with stride zero (the inner-product accumulation `C[i][j] += …`
    /// over an outer subscript — carried through a register by
    /// [`FastBody::run_batched`], bit-exact because the scalar loop's
    /// f32 chain is reproduced operation for operation), or index ranges
    /// that are provably disjoint. Anything else — e.g. the recurrence
    /// `A[i] = A[i-1] + …` — keeps the element-ordered path.
    fn runs_may_batch(
        &self,
        tflat: (i64, i64),
        lflat: &[(ArrayId, i64, i64)],
        lo: i64,
        last: i64,
    ) -> bool {
        let range = |base: i64, stride: i64| {
            let (a, b) = (base + stride * lo, base + stride * last);
            (a.min(b), a.max(b))
        };
        let (tmin, tmax) = range(tflat.0, tflat.1);
        for &(arr, base, stride) in lflat {
            if arr != self.target.array {
                continue;
            }
            if (base, stride) == tflat {
                continue;
            }
            let (lmin, lmax) = range(base, stride);
            if tmax < lmin || lmax < tmin {
                continue;
            }
            return false;
        }
        true
    }

    /// Batched execution: gather each load plan's chunk with one
    /// [`Backend::load_run`], evaluate the chunk column by column, write
    /// it back with one [`Backend::store_run`]. Values and cost totals
    /// are identical to the element loop (guarded by
    /// [`FastBody::runs_may_batch`]); only the access interleaving
    /// changes, which is exactly what a run-capable backend asks for via
    /// [`Backend::prefers_bulk_runs`].
    #[allow(clippy::too_many_arguments)]
    fn run_batched<B: Backend>(
        &self,
        step: i64,
        lo: i64,
        trips: i64,
        tflat: (i64, i64),
        env: &[i64],
        backend: &mut B,
        s: &mut Scratch,
    ) {
        // With a zero store stride, loads of the same (base, stride) form a
        // loop-carried accumulation (`C[i][j] += A[i][k] * B[k][j]` over k):
        // each iteration reads the value the previous one stored. Those
        // slots resolve from a register instead of the gathered row — the
        // f32 operation chain is the scalar loop's, bit for bit — while
        // the gather and writeback still issue the same number of accesses
        // to the target's line as the element loop did.
        let mut carried = 0u64;
        if tflat.1 == 0 {
            for (k, &(arr, base, stride)) in s.lflat.iter().enumerate() {
                if arr == self.target.array && (base, stride) == tflat {
                    carried |= 1 << k;
                }
            }
        }
        s.spine.clear();
        s.spine.extend(
            (0..self.code.nodes.len()).filter(|&n| self.code.nodes[n].slots & carried != 0),
        );
        let mut acc = 0f32;
        let mut t0: i64 = 0;
        while t0 < trips {
            let m = CHUNK.min((trips - t0) as usize);
            let i0 = lo + t0 * step;
            for (k, &(arr, base, stride)) in s.lflat.iter().enumerate() {
                let buf = &mut s.gather[k * CHUNK..k * CHUNK + m];
                backend.load_run(arr, base + stride * i0, stride * step, buf);
            }
            if carried != 0 {
                // The target cell's current value; at chunk boundaries the
                // previous writeback left it equal to the carried register.
                acc = s.gather[carried.trailing_zeros() as usize * CHUNK];
            }
            self.eval(s, env, i0, step, m, carried, &mut acc);
            backend.store_run(
                self.target.array,
                tflat.0 + tflat.1 * i0,
                tflat.1 * step,
                &s.out[..m],
            );
            t0 += m as i64;
        }
    }

    /// Evaluates the value for the `m` iterations `i0, i0 + step, …` into
    /// `s.out[..m]`, reading load slot `k` from gather row `k`. Every node
    /// that reads no slot in `carried` fills its column once; the rest —
    /// the carried spine, listed in `s.spine` — run element by element,
    /// each carried load reading the register `acc`, which then takes the
    /// element's stored value.
    #[allow(clippy::too_many_arguments)]
    fn eval(
        &self,
        s: &mut Scratch,
        env: &[i64],
        i0: i64,
        step: i64,
        m: usize,
        carried: u64,
        acc: &mut f32,
    ) {
        let Scratch { gather, floats, ints, out, spine, spine_vals, .. } = s;
        let nodes = &self.code.nodes;
        for node in nodes.iter().filter(|n| n.slots & carried == 0) {
            if node.int {
                let (head, col) = split_row(ints, node.col, m);
                match node.op {
                    Op::Int(v) => col.fill(v),
                    Op::Var(v) => col.fill(env[v]),
                    Op::Inner => {
                        for (j, x) in col.iter_mut().enumerate() {
                            *x = i0 + j as i64 * step;
                        }
                    }
                    Op::Neg(a) => {
                        for (x, &v) in col.iter_mut().zip(row(head, nodes[a].col, m)) {
                            *x = -v;
                        }
                    }
                    Op::Bin(op, a, b) => {
                        let (a, b) = (row(head, nodes[a].col, m), row(head, nodes[b].col, m));
                        match op {
                            BinOp::Add => map2(col, a, b, |x, y| x + y),
                            BinOp::Sub => map2(col, a, b, |x, y| x - y),
                            BinOp::Mul => map2(col, a, b, |x, y| x * y),
                            BinOp::Min => map2(col, a, b, i64::min),
                            BinOp::Max => map2(col, a, b, i64::max),
                            BinOp::Div => {
                                unreachable!("integer division is rejected at compile time")
                            }
                        }
                    }
                    Op::Float(_) | Op::Load(_) | Op::ToF(_) => unreachable!("float-typed op"),
                }
                continue;
            }
            let (head, col) = split_row(floats, node.col, m);
            match node.op {
                Op::Float(v) => col.fill(v),
                Op::Load(k) => {
                    for (x, &v) in col.iter_mut().zip(row(gather, k, m)) {
                        *x = f64::from(v);
                    }
                }
                Op::ToF(a) => {
                    for (x, &v) in col.iter_mut().zip(row(ints, nodes[a].col, m)) {
                        *x = v as f64;
                    }
                }
                Op::Neg(a) => {
                    for (x, &v) in col.iter_mut().zip(row(head, nodes[a].col, m)) {
                        *x = -v;
                    }
                }
                Op::Bin(op, a, b) => {
                    let (a, b) = (row(head, nodes[a].col, m), row(head, nodes[b].col, m));
                    // One closure per operator so each loop is branch-free;
                    // all share `float_op`'s rounding.
                    match op {
                        BinOp::Add => map2(col, a, b, |x, y| float_op(BinOp::Add, x, y)),
                        BinOp::Sub => map2(col, a, b, |x, y| float_op(BinOp::Sub, x, y)),
                        BinOp::Mul => map2(col, a, b, |x, y| float_op(BinOp::Mul, x, y)),
                        BinOp::Div => map2(col, a, b, |x, y| float_op(BinOp::Div, x, y)),
                        BinOp::Min => map2(col, a, b, |x, y| float_op(BinOp::Min, x, y)),
                        BinOp::Max => map2(col, a, b, |x, y| float_op(BinOp::Max, x, y)),
                    }
                }
                Op::Int(_) | Op::Inner | Op::Var(_) => unreachable!("integer-typed op"),
            }
        }
        let out = &mut out[..m];
        if carried == 0 {
            for (o, &v) in out.iter_mut().zip(row(floats, nodes[self.root].col, m)) {
                *o = v as f32;
            }
            return;
        }
        // `C[i][j] += …` desugars to `C = C op x`: the spine is the carried
        // load and one operation folding column `x` into the register.
        if let [load, top] = spine[..] {
            if let Op::Bin(op, a, x) = nodes[top].op {
                if a == load && x != load {
                    let xs = row(floats, nodes[x].col, m);
                    match op {
                        BinOp::Add => fold(out, xs, acc, |a, x| float_op(BinOp::Add, a, x)),
                        BinOp::Sub => fold(out, xs, acc, |a, x| float_op(BinOp::Sub, a, x)),
                        BinOp::Mul => fold(out, xs, acc, |a, x| float_op(BinOp::Mul, a, x)),
                        BinOp::Div => fold(out, xs, acc, |a, x| float_op(BinOp::Div, a, x)),
                        BinOp::Min => fold(out, xs, acc, |a, x| float_op(BinOp::Min, a, x)),
                        BinOp::Max => fold(out, xs, acc, |a, x| float_op(BinOp::Max, a, x)),
                    }
                    return;
                }
            }
        }
        for (j, o) in out.iter_mut().enumerate() {
            for &n in spine.iter() {
                let arg = |a: usize| {
                    let node = nodes[a];
                    if node.slots & carried != 0 {
                        spine_vals[a]
                    } else {
                        floats[node.col * CHUNK + j]
                    }
                };
                let v = match nodes[n].op {
                    Op::Load(_) => f64::from(*acc),
                    Op::Neg(a) => -arg(a),
                    Op::Bin(op, a, b) => float_op(op, arg(a), arg(b)),
                    _ => unreachable!("only loads and the operations above them read a slot"),
                };
                spine_vals[n] = v;
            }
            *o = spine_vals[self.root] as f32;
            *acc = *o;
        }
    }
}
