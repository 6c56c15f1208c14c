//! The affine fast path allocates when a loop is first compiled, never
//! when a compiled loop is entered again: `conv`'s 3-trip innermost loop
//! is entered tens of thousands of times per kernel. Counts the heap
//! allocations `interp::run` makes on this thread for two outer trip
//! counts and requires them to be equal, on both memory orders (element
//! order for [`PureBackend`], batched runs for [`Bulk`]), in a program
//! of three variables and in one that declares hundreds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tdo_ir::calls::ResolvedCall;
use tdo_ir::interp::{self, Backend, InterpError, PureBackend};
use tdo_ir::{Access, ArrayId, Expr, Program, Stmt};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System` upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; the caller meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// [`PureBackend`] storage on the batched-run path.
struct Bulk(PureBackend);

impl Backend for Bulk {
    fn load(&mut self, a: ArrayId, flat: usize) -> f32 {
        self.0.load(a, flat)
    }
    fn store(&mut self, a: ArrayId, flat: usize, v: f32) {
        self.0.store(a, flat, v)
    }
    fn prefers_bulk_runs(&self) -> bool {
        true
    }
    fn call(&mut self, c: &ResolvedCall<'_>) -> Result<(), InterpError> {
        self.0.call(c)
    }
}

/// `for i in 0..rows, j in 0..8, s in 0..3: out[i][j] += f[s] * img[i][j + s]`
/// over arrays sized for 64 rows, with `pad` unused loop variables
/// declared before each of `i`, `j` and `s`.
fn conv_rows(rows: i64, pad: usize) -> Program {
    let mut p = Program::new("conv-rows");
    let img = p.add_array("img", vec![64, 10]);
    let f = p.add_array("f", vec![3]);
    let out = p.add_array("out", vec![64, 8]);
    let mut var = |name| {
        for k in 0..pad {
            p.fresh_var(format!("unused{k}"));
        }
        p.fresh_var(name)
    };
    let (i, j, s) = (var("i"), var("j"), var("s"));
    let cell = || Access { array: out, idx: vec![Expr::Var(i), Expr::Var(j)] };
    let tap = Expr::mul(
        Expr::load(f, vec![Expr::Var(s)]),
        Expr::load(img, vec![Expr::Var(i), Expr::add(Expr::Var(j), Expr::Var(s))]),
    );
    let body = Stmt::assign(cell(), Expr::add(Expr::Load(cell()), tap));
    let lp = |v, hi, body| Stmt::for_loop(v, Expr::Int(0), Expr::Int(hi), 1, vec![body]);
    p.body = vec![lp(i, rows, lp(j, 8, lp(s, 3, body)))];
    p
}

/// Allocations `interp::run` makes on this thread.
fn allocations<B: Backend>(p: &Program, backend: &mut B) -> u64 {
    let before = ALLOCS.with(Cell::get);
    interp::run(p, backend).expect("runs");
    ALLOCS.with(Cell::get) - before
}

#[test]
fn loop_entries_do_not_allocate() {
    for (bulk, pad) in [(false, 0), (true, 0), (false, 300), (true, 300)] {
        let counts: Vec<u64> = [4, 64]
            .into_iter()
            .map(|rows| {
                let p = conv_rows(rows, pad);
                let storage = PureBackend::for_program(&p);
                if bulk {
                    allocations(&p, &mut Bulk(storage))
                } else {
                    allocations(&p, &mut { storage })
                }
            })
            .collect();
        // 32 vs 512 entries of the innermost loop.
        assert_eq!(counts[0], counts[1], "bulk={bulk}, pad={pad}: allocations grow with entries");
    }
}
