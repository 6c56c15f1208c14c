//! Differential properties for the interpreter's affine fast path.
//!
//! `interp::run` (fast path enabled) and `interp::run_reference` (plain
//! tree-walker) must be observationally identical on every program: same
//! array contents bit for bit, same cost-event totals, same ordered
//! load/store sequence, same error. The generator covers the shapes the
//! fast path accelerates (axpy, strided, triangular, GEMM, loop-carried
//! recurrences, reversed subscripts), the value shapes its column
//! evaluator must round exactly as the tree-walker does (integer
//! subexpressions, negation, f64 `min`/`max`, a carried target deep in
//! the value, stride-0 loads), the subscript shapes its sparse lowering
//! must fold exactly (terms that cancel, negative and scaled
//! coefficients), and the shapes it must decline (non-affine subscripts,
//! integer division, runtime out-of-bounds). Every shape also runs
//! padded with hundreds of unused loop variables, which moves its own
//! variables to high, non-adjacent `VarId`s.

use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;
use tdo_ir::calls::ResolvedCall;
use tdo_ir::interp::{self, Backend, CostEvent, InterpError};
use tdo_ir::{Access, ArrayId, Expr, Program, Stmt, VarId};

/// Records everything a backend can observe.
#[derive(Default, Clone, PartialEq, Debug)]
struct Recorder {
    arrays: Vec<Vec<f32>>,
    /// (event discriminant, count) totals.
    costs: std::collections::BTreeMap<String, u64>,
    /// Ordered data-access log: (is_store, array, flat, value bits).
    accesses: Vec<(bool, usize, usize, u32)>,
}

impl Recorder {
    fn for_program(p: &Program) -> Self {
        let arrays = (0..p.arrays.len())
            .map(|i| {
                let len: usize = p.array(ArrayId(i)).dims.iter().product();
                // Deterministic non-integral fill so loads and rounding
                // order matter.
                (0..len.max(1)).map(|j| (j % 13) as f32 * 0.7 - 4.1).collect()
            })
            .collect();
        Recorder { arrays, ..Recorder::default() }
    }
}

impl Backend for Recorder {
    fn load(&mut self, a: ArrayId, flat: usize) -> f32 {
        let v = self.arrays[a.0][flat];
        self.accesses.push((false, a.0, flat, v.to_bits()));
        v
    }
    fn store(&mut self, a: ArrayId, flat: usize, v: f32) {
        self.arrays[a.0][flat] = v;
        self.accesses.push((true, a.0, flat, v.to_bits()));
    }
    fn cost(&mut self, ev: CostEvent, n: u64) {
        *self.costs.entry(format!("{ev:?}")).or_insert(0) += n;
    }
    fn call(&mut self, c: &ResolvedCall<'_>) -> Result<(), InterpError> {
        Err(InterpError::Backend(format!("no runtime for {c:?}")))
    }
}

/// Number of shapes [`build_program`] knows.
const SHAPES: usize = 16;

/// `for i in 0..n: A[i] = value(X, A, i)` over arrays `X` and `A` of `n`.
fn elementwise(n: usize, value: impl Fn(ArrayId, ArrayId, VarId) -> Expr) -> Program {
    let mut p = Program::new("fast-loop-case");
    let x = p.add_array("X", vec![n]);
    let a = p.add_array("A", vec![n]);
    let i = p.fresh_var("i");
    p.body = vec![Stmt::for_loop(
        i,
        Expr::Int(0),
        Expr::Int(n as i64),
        1,
        vec![Stmt::assign(Access { array: a, idx: vec![Expr::Var(i)] }, value(x, a, i))],
    )];
    p
}

/// `for i, j, k in 0..n: C[i][j] = value(C[i][j], A[i][k], B[k][j])`
/// over `n`-square arrays `A`, `B`, `C` and a scalar `alpha`, passed to
/// `value` as a stride-0 load.
fn matmul(n: usize, value: impl Fn(Expr, Expr, Expr, Expr) -> Expr) -> Program {
    let mut p = Program::new("fast-loop-case");
    let a = p.add_array("A", vec![n, n]);
    let b = p.add_array("B", vec![n, n]);
    let c = p.add_array("C", vec![n, n]);
    let alpha = p.add_scalar("alpha", None);
    let i = p.fresh_var("i");
    let j = p.fresh_var("j");
    let k = p.fresh_var("k");
    let ni = n as i64;
    let at = |arr, r: VarId, s: VarId| Expr::load(arr, vec![Expr::Var(r), Expr::Var(s)]);
    let v = value(at(c, i, j), at(a, i, k), at(b, k, j), Expr::load(alpha, vec![]));
    let nest = |var, body| Stmt::for_loop(var, Expr::Int(0), Expr::Int(ni), 1, vec![body]);
    let target = Access { array: c, idx: vec![Expr::Var(i), Expr::Var(j)] };
    p.body = vec![nest(i, nest(j, nest(k, Stmt::assign(target, v))))];
    p
}

/// Builds one of the generator's program shapes over problem size `n`
/// and stride `step`.
fn build_program(shape: usize, n: usize, step: i64) -> Program {
    let mut p = Program::new("fast-loop-case");
    let ni = n as i64;
    match shape {
        // axpy: A[i] = A[i] + 2.5 * X[i]
        0 => {
            return elementwise(n, |x, a, i| {
                let at = |arr| Expr::load(arr, vec![Expr::Var(i)]);
                Expr::add(at(a), Expr::mul(Expr::Float(2.5), at(x)))
            })
        }
        // strided store with affine offset: A[i] = X[i] * 2.0, step > 1
        1 => {
            let x = p.add_array("X", vec![n]);
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                step.max(1),
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::Var(i)] },
                    Expr::mul(Expr::load(x, vec![Expr::Var(i)]), Expr::Float(2.0)),
                )],
            )];
        }
        // triangular nest: for i, for j in i..n: A[i][j] = X[j] + 1.0
        2 => {
            let x = p.add_array("X", vec![n]);
            let a = p.add_array("A", vec![n, n]);
            let i = p.fresh_var("i");
            let j = p.fresh_var("j");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::for_loop(
                    j,
                    Expr::Var(i),
                    Expr::Int(ni),
                    1,
                    vec![Stmt::assign(
                        Access { array: a, idx: vec![Expr::Var(i), Expr::Var(j)] },
                        Expr::add(Expr::load(x, vec![Expr::Var(j)]), Expr::Float(1.0)),
                    )],
                )],
            )];
        }
        // GEMM inner product: C[i][j] += A[i][k] * B[k][j]
        3 => return matmul(n, |c, a, b, _| Expr::add(c, Expr::mul(a, b))),
        // reversed subscript (negative inner coefficient): A[n-1-i] = X[i]
        4 => {
            let x = p.add_array("X", vec![n]);
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::sub(Expr::Int(ni - 1), Expr::Var(i))] },
                    Expr::load(x, vec![Expr::Var(i)]),
                )],
            )];
        }
        // loop-carried recurrence: A[i] = A[i-1] + X[i], i in 1..n
        5 => {
            let x = p.add_array("X", vec![n]);
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(1),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::Var(i)] },
                    Expr::add(
                        Expr::load(a, vec![Expr::sub(Expr::Var(i), Expr::Int(1))]),
                        Expr::load(x, vec![Expr::Var(i)]),
                    ),
                )],
            )];
        }
        // non-affine subscript (declined): A[min(i, n-1)] = 1.0
        6 => {
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::min(Expr::Var(i), Expr::Int(ni - 1))] },
                    Expr::Float(1.0),
                )],
            )];
        }
        // integer division in the value (declined): A[i] = i / 2
        7 => {
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::Var(i)] },
                    Expr::div(Expr::Var(i), Expr::Int(2)),
                )],
            )];
        }
        // runtime out-of-bounds on the last iteration: A[i+1] = 0.0
        8 => {
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::add(Expr::Var(i), Expr::Int(1))] },
                    Expr::Float(0.0),
                )],
            )];
        }
        // integer subexpression in a float value: A[i] = A[i] + i * 3
        9 => {
            return elementwise(n, |_, a, i| {
                Expr::add(Expr::load(a, vec![Expr::Var(i)]), Expr::mul(Expr::Var(i), Expr::Int(3)))
            })
        }
        // negation of a float and of an int: A[i] = -X[i] - -i
        10 => {
            return elementwise(n, |x, _, i| {
                Expr::sub(Expr::neg(Expr::load(x, vec![Expr::Var(i)])), Expr::neg(Expr::Var(i)))
            })
        }
        // f64 min/max, 0.1 unrepresentable in f32, an int widened for
        // max: A[i] = min(0.1, X[i]) * max(X[i], i - 3)
        11 => {
            return elementwise(n, |x, _, i| {
                let xi = || Expr::load(x, vec![Expr::Var(i)]);
                Expr::mul(
                    Expr::min(Expr::Float(0.1), xi()),
                    Expr::max(xi(), Expr::sub(Expr::Var(i), Expr::Int(3))),
                )
            })
        }
        // carried target as the right operand, two operations deep:
        // C[i][j] = 0.5 * (A[i][k] + C[i][j])
        12 => return matmul(n, |c, a, _, _| Expr::mul(Expr::Float(0.5), Expr::add(a, c))),
        // stride-0 load of another array: C[i][j] += alpha * A[i][k] * B[k][j]
        13 => return matmul(n, |c, a, b, alpha| Expr::add(c, Expr::mul(Expr::mul(alpha, a), b))),
        // terms that cancel, negative and scaled coefficients, over an
        // outer i and an inner j:
        // A[i + j - j][n - 1 - j] = X[3 * i - i * 2][2 * j] - X[i][-j + (2n - 1)]
        14 => {
            let x = p.add_array("X", vec![n, 2 * n]);
            let a = p.add_array("A", vec![n, n]);
            let (i, j) = (p.fresh_var("i"), p.fresh_var("j"));
            let (vi, vj, int) = (|| Expr::Var(i), || Expr::Var(j), Expr::Int);
            let target = Access {
                array: a,
                idx: vec![Expr::sub(Expr::add(vi(), vj()), vj()), Expr::sub(int(ni - 1), vj())],
            };
            let scaled = Expr::load(
                x,
                vec![
                    Expr::sub(Expr::mul(int(3), vi()), Expr::mul(vi(), int(2))),
                    Expr::mul(int(2), vj()),
                ],
            );
            let reversed = Expr::load(x, vec![vi(), Expr::add(Expr::neg(vj()), int(2 * ni - 1))]);
            let row = Stmt::for_loop(
                j,
                int(0),
                int(ni),
                step,
                vec![Stmt::assign(target, Expr::sub(scaled, reversed))],
            );
            p.body = vec![Stmt::for_loop(i, int(0), int(ni), 1, vec![row])];
        }
        // the inner variable cancels out of the target, so the store has
        // stride zero and carries a reduction over the first half of each
        // row (a subscript that mis-evaluates at loop entry stays in
        // bounds, so it shows in the values):
        // S[i][j - j] = S[i][j * 0] + X[i][j], j in 0..(n + 1) / 2
        15 => {
            let x = p.add_array("X", vec![n, n]);
            let sum = p.add_array("S", vec![n, 1]);
            let (i, j) = (p.fresh_var("i"), p.fresh_var("j"));
            let (vi, vj, int) = (|| Expr::Var(i), || Expr::Var(j), Expr::Int);
            let cell = |col| Access { array: sum, idx: vec![vi(), col] };
            let value = Expr::add(
                Expr::Load(cell(Expr::mul(vj(), int(0)))),
                Expr::load(x, vec![vi(), vj()]),
            );
            let row = Stmt::for_loop(
                j,
                int(0),
                int((ni + 1) / 2),
                step,
                vec![Stmt::assign(cell(Expr::sub(vj(), vj())), value)],
            );
            p.body = vec![Stmt::for_loop(i, int(0), int(ni), 1, vec![row])];
        }
        _ => unreachable!("shape {shape} of {SHAPES}"),
    }
    p
}

/// `p` with `pad` unused loop variables declared before each of its own,
/// so variable `v` becomes `VarId(v * (pad + 1) + pad)`. Runs exactly as
/// `p` does.
fn padded(p: &Program, pad: usize) -> Program {
    let id = |v: VarId| VarId(v.0 * (pad + 1) + pad);
    fn expr(e: &Expr, id: &impl Fn(VarId) -> VarId) -> Expr {
        match e {
            Expr::Int(_) | Expr::Float(_) => e.clone(),
            Expr::Var(v) => Expr::Var(id(*v)),
            Expr::Load(a) => Expr::Load(access(a, id)),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(expr(e, id))),
            Expr::Bin(op, l, r) => Expr::Bin(*op, Box::new(expr(l, id)), Box::new(expr(r, id))),
        }
    }
    fn access(a: &Access, id: &impl Fn(VarId) -> VarId) -> Access {
        Access { array: a.array, idx: a.idx.iter().map(|e| expr(e, id)).collect() }
    }
    fn stmt(s: &Stmt, id: &impl Fn(VarId) -> VarId) -> Stmt {
        match s {
            Stmt::For(l) => Stmt::for_loop(
                id(l.var),
                expr(&l.lo, id),
                expr(&l.hi, id),
                l.step,
                l.body.iter().map(|s| stmt(s, id)).collect(),
            ),
            Stmt::Assign(a) => Stmt::assign(access(&a.target, id), expr(&a.value, id)),
            Stmt::If(_) | Stmt::Call(_) => unreachable!("generated programs loop and assign"),
        }
    }
    let mut out = Program { body: p.body.iter().map(|s| stmt(s, &id)).collect(), ..p.clone() };
    out.vars = (0..p.vars.len() * (pad + 1)).map(|v| format!("unused{v}")).collect();
    for (v, name) in p.vars.iter().enumerate() {
        out.vars[id(VarId(v)).0] = name.clone();
    }
    out
}

/// `S[0] = S[0] + X[k] * Y[k]` for `k in 0..n`: a register-carried
/// reduction whose run spans `n / 512` chunks.
fn dot_product(n: usize) -> Program {
    let mut p = Program::new("dot");
    let x = p.add_array("X", vec![n]);
    let y = p.add_array("Y", vec![n]);
    let s = p.add_array("S", vec![1]);
    let k = p.fresh_var("k");
    let cell = || Access { array: s, idx: vec![Expr::Int(0)] };
    p.body = vec![Stmt::for_loop(
        k,
        Expr::Int(0),
        Expr::Int(n as i64),
        1,
        vec![Stmt::assign(
            cell(),
            Expr::add(
                Expr::Load(cell()),
                Expr::mul(Expr::load(x, vec![Expr::Var(k)]), Expr::load(y, vec![Expr::Var(k)])),
            ),
        )],
    )];
    p
}

/// A [`Recorder`] that opts into the batched run path
/// ([`Backend::prefers_bulk_runs`]) while keeping the default
/// `load_run`/`store_run` scalar delegation, so every access still lands
/// in the log.
#[derive(Default, Clone)]
struct BulkRecorder(Recorder);

impl Backend for BulkRecorder {
    fn load(&mut self, a: ArrayId, flat: usize) -> f32 {
        self.0.load(a, flat)
    }
    fn store(&mut self, a: ArrayId, flat: usize, v: f32) {
        self.0.store(a, flat, v)
    }
    fn cost(&mut self, ev: CostEvent, n: u64) {
        self.0.cost(ev, n)
    }
    fn call(&mut self, c: &ResolvedCall<'_>) -> Result<(), InterpError> {
        self.0.call(c)
    }
    fn prefers_bulk_runs(&self) -> bool {
        true
    }
}

/// `interp::run` and `interp::run_reference` on a [`Recorder`] agree on
/// everything it observes, access order included.
fn check_identical(p: &Program) -> TestCaseResult {
    let mut fast = Recorder::for_program(p);
    let mut slow = fast.clone();
    let fr = interp::run(p, &mut fast);
    let sr = interp::run_reference(p, &mut slow);
    prop_assert_eq!(&fr, &sr);
    prop_assert_eq!(&fast.arrays, &slow.arrays);
    prop_assert_eq!(&fast.costs, &slow.costs);
    prop_assert_eq!(&fast.accesses, &slow.accesses);
    Ok(())
}

/// A run-capable backend accepts access *reordering* at run
/// granularity (and, for a register-carried reduction, loads of the
/// target cell that observe the pre-run value) — but array contents,
/// cost totals, per-location access counts, and the per-location
/// store-value sequences must all still match the reference
/// tree-walker bit for bit.
fn check_batched(p: &Program) -> TestCaseResult {
    let mut fast = BulkRecorder(Recorder::for_program(p));
    let mut slow = fast.0.clone();
    let fr = interp::run(p, &mut fast);
    let sr = interp::run_reference(p, &mut slow);
    prop_assert_eq!(&fr, &sr);
    prop_assert_eq!(&fast.0.arrays, &slow.arrays);
    prop_assert_eq!(&fast.0.costs, &slow.costs);
    // Per-location traffic: same number of loads and stores of each
    // cell, and stores write the same value sequence per cell.
    let census = |log: &[(bool, usize, usize, u32)]| {
        let mut counts = std::collections::BTreeMap::new();
        let mut stored = std::collections::BTreeMap::new();
        for &(is_store, a, flat, bits) in log {
            *counts.entry((is_store, a, flat)).or_insert(0u64) += 1;
            if is_store {
                stored.entry((a, flat)).or_insert_with(Vec::new).push(bits);
            }
        }
        (counts, stored)
    };
    prop_assert_eq!(census(&fast.0.accesses), census(&slow.accesses));
    Ok(())
}

proptest! {
    #![proptest_config(proptest::test_runner::Config { cases: 64 })]
    #[test]
    fn fast_path_is_observationally_identical(
        shape in 0usize..SHAPES,
        n in 1usize..10,
        step in 1i64..4,
        pad in 0usize..400,
    ) {
        check_identical(&padded(&build_program(shape, n, step), pad))?;
    }

    #[test]
    fn batched_path_preserves_scalar_results(
        shape in 0usize..SHAPES,
        n in 1usize..10,
        step in 1i64..4,
        pad in 0usize..400,
    ) {
        check_batched(&padded(&build_program(shape, n, step), pad))?;
    }
}

/// Both properties on every shape, not only the ones the sampler draws,
/// with and without hundreds of unused variables.
#[test]
fn every_shape_satisfies_both_properties() {
    for shape in 0..SHAPES {
        for (n, step) in [(1, 1), (4, 2), (9, 3)] {
            for pad in [0, 1, 300] {
                let p = padded(&build_program(shape, n, step), pad);
                let case = format!("shape {shape}, n {n}, step {step}, pad {pad}");
                check_identical(&p).unwrap_or_else(|e| panic!("{case}: {e:?}"));
                check_batched(&p).unwrap_or_else(|e| panic!("{case}: {e:?}"));
            }
        }
    }
}

/// The sparse-subscript shapes are not declined: on a run-capable
/// backend the fast path reorders their accesses into runs, which the
/// tree-walker never does.
#[test]
fn sparse_subscript_shapes_take_the_fast_path() {
    for shape in [14, 15] {
        let p = padded(&build_program(shape, 6, 1), 300);
        let mut fast = BulkRecorder(Recorder::for_program(&p));
        let mut slow = fast.0.clone();
        interp::run(&p, &mut fast).expect("runs");
        interp::run_reference(&p, &mut slow).expect("runs");
        assert_ne!(fast.0.accesses, slow.accesses, "shape {shape} took the slow path");
    }
}

/// A padded program observes exactly what the unpadded one does: the
/// variable numbering is invisible to every backend.
#[test]
fn padding_is_invisible() {
    for shape in 0..SHAPES {
        let p = build_program(shape, 5, 2);
        let q = padded(&p, 257);
        assert_eq!(q.vars.len(), p.vars.len() * 258);
        let (mut a, mut b) = (Recorder::for_program(&p), Recorder::for_program(&q));
        assert_eq!(interp::run(&p, &mut a), interp::run(&q, &mut b), "shape {shape}");
        assert_eq!(a, b, "shape {shape}");
    }
}

/// Runs around and across the 512-iteration chunk of the batched path:
/// the carried register is reloaded from the gathered target at every
/// chunk start, and must hold exactly what the element loop left.
#[test]
fn carried_reduction_across_chunks_matches_reference() {
    for n in [511, 512, 513, 1025] {
        let p = dot_product(n);
        check_identical(&p).unwrap_or_else(|e| panic!("{n} trips: {e:?}"));
        check_batched(&p).unwrap_or_else(|e| panic!("{n} trips: {e:?}"));
    }
}

/// The declined shapes still run (via the slow path inside `run`).
#[test]
fn declined_shapes_fall_back() {
    for shape in [6usize, 7] {
        let p = build_program(shape, 5, 1);
        let mut b = Recorder::for_program(&p);
        interp::run(&p, &mut b).expect("fallback executes");
    }
}

/// The out-of-bounds shape errors identically under both executors, with
/// the same partial stores already applied.
#[test]
fn runtime_oob_matches_reference() {
    let p = build_program(8, 4, 1);
    let mut fast = Recorder::for_program(&p);
    let mut slow = fast.clone();
    let fr = interp::run(&p, &mut fast).unwrap_err();
    let sr = interp::run_reference(&p, &mut slow).unwrap_err();
    assert_eq!(fr, sr);
    assert!(matches!(fr, InterpError::OutOfBounds { flat: 4, .. }));
    assert_eq!(fast.arrays, slow.arrays);
    assert_eq!(fast.accesses, slow.accesses);
}
