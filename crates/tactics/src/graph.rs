//! The offload dataflow graph: post-codegen scheduling of runtime calls.
//!
//! [`crate::codegen`] emits a maximally conservative schedule: every
//! kernel is bracketed by coherence transfers for all of its operands,
//! and every `polly_cimDevToHost` sits at the point of production. This
//! module rebuilds the translation unit's top-level statement sequence
//! as a dependency graph — nodes are runtime calls and host statements,
//! edges are array read/write dependences — and provides the rewrites
//! the pipeline's graph passes ([`crate::pass_manager`]) run over it:
//!
//! 1. **Sync hoisting** ([`OffloadGraph::hoist_syncs`]): each
//!    `polly_cimDevToHost` is *sunk* past subsequent statements that do
//!    not touch the produced array. Under asynchronous dispatch the
//!    d2h call is the observation point that pays the residual wait, so
//!    moving it later widens the window in which independent host code
//!    (and further kernel submissions) overlap the accelerator — for
//!    *chains* of kernels, not just streams.
//! 2. **Sync elision** ([`OffloadGraph::elide_syncs`]): redundant
//!    `polly_cimHostToDev` syncs — those whose array the host provably
//!    has not written since its previous sync — are removed.
//! 3. **Pin insertion** ([`OffloadGraph::pin_candidates`],
//!    [`OffloadGraph::insert_pins`]): stationary operands reused by
//!    consecutive kernels inside such a clean window are the candidates
//!    the capacity-aware placement pass scores; each accepted one gets a
//!    `polly_cimPin` call before its first use. The runtime routes
//!    pinned kernels to a stable tile region where the engine's
//!    residency skips the install DMA and row programming.
//!
//! Every rewrite is value-preserving by construction: the coherence
//! calls move or disappear only where the cache traffic they model is
//! provably redundant, and kernel order never changes — so every
//! schedule stays bit-for-bit identical to the conservative one, which
//! the equivalence tests pin.

use std::collections::{BTreeMap, BTreeSet};
use tdo_ir::calls::{Arg, CimCall, GemmExtent};
use tdo_ir::{ArrayId, Program, Stmt};

/// Node classification, as far as the passes care.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeOp {
    /// A sinkable `polly_cimDevToHost(arr)` observation point.
    DevToHost(ArrayId),
    /// An elidable `polly_cimHostToDev(arr)` coherence sync.
    HostToDev(ArrayId),
    /// An offloaded kernel; `stationary` is the operand the engine
    /// installs on its tiles (GEMM/GEMV `A`), when there is one.
    Kernel { stationary: Option<ArrayId> },
    /// Anything else: host statements, prologue and pin calls.
    Other,
}

/// One top-level statement with its dependence footprint.
#[derive(Debug, Clone)]
struct Node {
    stmt: Stmt,
    op: NodeOp,
    reads: BTreeSet<ArrayId>,
    writes: BTreeSet<ArrayId>,
}

impl Node {
    fn touches(&self, a: ArrayId) -> bool {
        self.reads.contains(&a) || self.writes.contains(&a)
    }
}

/// The dependence graph over a translation unit's top-level statements.
#[derive(Debug, Clone)]
pub struct OffloadGraph {
    nodes: Vec<Node>,
}

/// A stationary operand reused by consecutive kernels inside one
/// content window — a candidate for `polly_cimPin`, carrying everything
/// the capacity-aware placement pass needs to score it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinCandidate {
    /// The operand array.
    pub array: ArrayId,
    /// Node index of the first kernel using it (the pin's insertion
    /// point).
    pub first_idx: usize,
    /// Node index of the last kernel in the reuse run — together with
    /// [`PinCandidate::first_idx`] the live interval over which the
    /// operand must hold its tiles.
    pub last_idx: usize,
    /// Kernels in the run.
    pub uses: usize,
    /// Kernel extent `(m, n, k)` of the first call when it is fixed at
    /// compile time (`n = 1` for GEMV); `None` for view calls, whose
    /// extents the host computes, which the placement pass treats as
    /// full-grid occupants of unknown value.
    pub dims: Option<(usize, usize, usize)>,
}

/// `(m, n, k)` of a kernel call, when fixed at compile time.
fn kernel_dims(stmt: &Stmt) -> Option<(usize, usize, usize)> {
    match stmt {
        Stmt::Call(CimCall::Gemm(g)) => match g.extent {
            GemmExtent::Whole { m, n, k } => Some((m, n, k)),
            GemmExtent::View(_) => None,
        },
        Stmt::Call(CimCall::Gemv(g)) => Some((g.m, 1, g.k)),
        _ => None,
    }
}

/// Adds the arrays a call loads through its value arguments (scalar
/// scales) and its array handles to `reads`, and returns the handles.
fn call_footprint(c: &CimCall, reads: &mut BTreeSet<ArrayId>) -> Vec<ArrayId> {
    let mut arrays = Vec::new();
    for arg in c.args() {
        match arg {
            Arg::Expr(e) => e.visit_accesses(&mut |acc| {
                reads.insert(acc.array);
            }),
            Arg::Array(a) => arrays.push(a),
            Arg::Int(_) => {}
        }
    }
    reads.extend(arrays.iter().copied());
    arrays
}

fn host_accesses(stmt: &Stmt, reads: &mut BTreeSet<ArrayId>, writes: &mut BTreeSet<ArrayId>) {
    stmt.visit(&mut |s| match s {
        Stmt::Assign(a) => {
            writes.insert(a.target.array);
            for idx in &a.target.idx {
                idx.visit_accesses(&mut |acc| {
                    reads.insert(acc.array);
                });
            }
            a.value.visit_accesses(&mut |acc| {
                reads.insert(acc.array);
            });
        }
        Stmt::For(l) => {
            for e in [&l.lo, &l.hi] {
                e.visit_accesses(&mut |acc| {
                    reads.insert(acc.array);
                });
            }
        }
        Stmt::If(i) => {
            for e in [&i.cond.lhs, &i.cond.rhs] {
                e.visit_accesses(&mut |acc| {
                    reads.insert(acc.array);
                });
            }
        }
        Stmt::Call(c) => {
            // Nested runtime calls (inside compiler-tiled loops) are
            // barriers on everything they mention.
            writes.extend(call_footprint(c, reads));
        }
    });
}

fn classify(stmt: &Stmt) -> Node {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    let op = match stmt {
        Stmt::Call(c) => {
            // Every array a call names is read, a kernel's output too
            // (beta, accumulation); the variant says what it writes.
            let arrays = call_footprint(c, &mut reads);
            match c {
                CimCall::DevToHost(a) => {
                    writes.insert(*a);
                    NodeOp::DevToHost(*a)
                }
                CimCall::HostToDev(a) => {
                    writes.insert(*a);
                    NodeOp::HostToDev(*a)
                }
                CimCall::Gemm(g) => {
                    writes.insert(g.c);
                    NodeOp::Kernel { stationary: Some(g.a) }
                }
                CimCall::Gemv(g) => {
                    writes.insert(g.y);
                    NodeOp::Kernel { stationary: Some(g.a) }
                }
                CimCall::Batched(b) => {
                    writes.extend(b.problems.iter().map(|&(_, _, c)| c));
                    NodeOp::Kernel { stationary: None }
                }
                CimCall::Conv(c) => {
                    writes.insert(c.out);
                    NodeOp::Kernel { stationary: None }
                }
                CimCall::Init(_) | CimCall::Malloc(_) | CimCall::Pin(_) => {
                    // Prologue and memory management: a barrier on every
                    // array it names.
                    writes.extend(arrays);
                    NodeOp::Other
                }
            }
        }
        other => {
            host_accesses(other, &mut reads, &mut writes);
            NodeOp::Other
        }
    };
    Node { stmt: stmt.clone(), op, reads, writes }
}

impl OffloadGraph {
    /// Builds the graph over a program's top-level statement sequence.
    /// Nested runtime calls (inside compiler-tiled loops) stay inside
    /// their statement — the graph is conservative about anything it
    /// cannot order statically.
    pub fn build(prog: &Program) -> OffloadGraph {
        OffloadGraph { nodes: prog.body.iter().map(classify).collect() }
    }

    /// Sinks every `polly_cimDevToHost` past subsequent statements that
    /// do not touch its array — widening the async overlap window — and
    /// returns how many moved and the total statements they crossed.
    pub fn hoist_syncs(&mut self) -> (usize, usize) {
        let mut moved = 0;
        let mut distance = 0;
        // Back to front, so sinking one sync cannot starve an earlier
        // one of its own sink window.
        for i in (0..self.nodes.len()).rev() {
            let NodeOp::DevToHost(arr) = self.nodes[i].op else { continue };
            let mut dist = 0;
            while i + dist + 1 < self.nodes.len() && !self.nodes[i + dist + 1].touches(arr) {
                dist += 1;
            }
            if dist > 0 {
                let node = self.nodes.remove(i);
                self.nodes.insert(i + dist, node);
                moved += 1;
                distance += dist;
            }
        }
        (moved, distance)
    }

    /// Elides coherence syncs for arrays the host has not written since
    /// their previous sync. Returns how many were removed.
    pub fn elide_syncs(&mut self) -> usize {
        // Walk once, tracking which arrays are "clean" (device-synced,
        // not host-written since).
        let mut clean: BTreeSet<ArrayId> = BTreeSet::new();
        let mut elided = 0;
        let mut kept: Vec<Node> = Vec::with_capacity(self.nodes.len());
        for node in self.nodes.drain(..) {
            match node.op {
                NodeOp::HostToDev(a) => {
                    if clean.contains(&a) {
                        elided += 1;
                        continue;
                    }
                    clean.insert(a);
                    kept.push(node);
                }
                NodeOp::DevToHost(a) => {
                    // The flush leaves the host's lines for the range
                    // clean; it dirties nothing.
                    clean.insert(a);
                    kept.push(node);
                }
                NodeOp::Kernel { .. } => {
                    // The device writes through uncacheable accesses, so
                    // the host cache stays clean — but the conservative
                    // runtime relies on the next h2d of a written array
                    // to invalidate crossbar residency sourced from it,
                    // so a kernel write must end the array's clean
                    // window (keeping that h2d) all the same.
                    for w in &node.writes {
                        clean.remove(w);
                    }
                    kept.push(node);
                }
                NodeOp::Other => {
                    for w in &node.writes {
                        clean.remove(w);
                    }
                    kept.push(node);
                }
            }
        }
        self.nodes = kept;
        elided
    }

    /// Collects the stationary operands reused across kernels with no
    /// intervening write to them (host write, kept h2d, or a kernel
    /// producing into the operand) — the pin candidates of the
    /// placement pass, in schedule order.
    pub fn pin_candidates(&self) -> Vec<PinCandidate> {
        let mut window: BTreeMap<ArrayId, usize> = BTreeMap::new();
        let mut next_window = 0usize;
        let mut runs: BTreeMap<(ArrayId, usize), PinCandidate> = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if let NodeOp::Kernel { stationary: Some(a) } = node.op {
                let w = *window.entry(a).or_insert_with(|| {
                    next_window += 1;
                    next_window
                });
                runs.entry((a, w))
                    .and_modify(|c| {
                        c.last_idx = i;
                        c.uses += 1;
                    })
                    .or_insert(PinCandidate {
                        array: a,
                        first_idx: i,
                        last_idx: i,
                        uses: 1,
                        dims: kernel_dims(&node.stmt),
                    });
            }
            if matches!(node.op, NodeOp::DevToHost(_)) {
                continue; // a pure flush changes no contents
            }
            for w in &node.writes {
                // Writing an array (including a kernel writing its own
                // output) starts a new reuse window for it.
                if matches!(node.op, NodeOp::Kernel { stationary: Some(a) } if a == *w) {
                    continue; // a kernel does not clobber its stationary operand
                }
                next_window += 1;
                window.insert(*w, next_window);
            }
        }
        let mut out: Vec<PinCandidate> = runs.into_values().filter(|c| c.uses >= 2).collect();
        out.sort_by_key(|c| c.first_idx);
        out
    }

    /// Inserts a `polly_cimPin` before the first kernel of each accepted
    /// candidate. Returns how many pins were placed.
    pub fn insert_pins(&mut self, accepted: &[PinCandidate]) -> usize {
        let mut pin_at: Vec<(usize, ArrayId)> =
            accepted.iter().map(|c| (c.first_idx, c.array)).collect();
        pin_at.sort_unstable();
        for (offset, (idx, a)) in pin_at.iter().enumerate() {
            self.nodes.insert(idx + offset, classify(&Stmt::Call(CimCall::Pin(*a))));
        }
        pin_at.len()
    }

    /// The optimized statement sequence.
    pub fn into_body(self) -> Vec<Stmt> {
        self.nodes.into_iter().map(|n| n.stmt).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::TacticsConfig;
    use crate::pass_manager::{PassCtx, PassId, PassManager, PassReport};
    use tdo_ir::interp::{run, PureBackend};
    use tdo_ir::printer::print_program;
    use tdo_lang::compile;
    use tdo_poly::scop::extract;

    /// Compiles `src` through the pass list `ids`, returning the
    /// rewritten program and one report per pass.
    fn pipeline(src: &str, cfg: &TacticsConfig, ids: &[PassId]) -> (Program, Vec<PassReport>) {
        let prog = compile(src).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let mut ctx = PassCtx::new(&prog, Some(&scop), cfg);
        let reports = PassManager::from_ids(ids).run(&mut ctx);
        (ctx.prog, reports)
    }

    /// The conservative schedule: detection and lowering only.
    fn offload(src: &str, cfg: &TacticsConfig) -> Program {
        pipeline(src, cfg, &[PassId::DetectOffload]).0
    }

    /// The schedule the default pipeline ships, with its pass reports.
    fn optimize(src: &str, cfg: &TacticsConfig) -> (Program, Vec<PassReport>) {
        pipeline(src, cfg, PassId::all())
    }

    /// A counter summed over a pipeline's pass reports.
    fn counter(reports: &[PassReport], key: &str) -> u64 {
        reports.iter().map(|r| r.counter(key)).sum()
    }

    /// Two GEMMs sharing A and B, with unrelated host code after each
    /// d2h: the canonical hoist + residency shape.
    const SHARED_A: &str = r#"
        const int N = 8;
        float A[N][N]; float B[N][N]; float C[N][N]; float D[N][N]; float s[N];
        void kernel() {
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                C[i][j] += A[i][k] * B[k][j];
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                D[i][j] += A[i][k] * B[k][j];
          for (int i = 0; i < N; i++)
            s[i] = s[i] + 1.0;
        }
    "#;

    fn unfused() -> TacticsConfig {
        TacticsConfig { fusion: false, ..TacticsConfig::default() }
    }

    #[test]
    fn redundant_h2d_elided_and_shared_a_pinned() {
        let prog = offload(SHARED_A, &unfused());
        let before = print_program(&prog);
        assert_eq!(before.matches("polly_cimHostToDev(cim_A)").count(), 2);
        let (opt, reports) = optimize(SHARED_A, &unfused());
        let text = print_program(&opt);
        // Second h2d of A and B (and the never-host-written C/D reloads)
        // are gone; A — reused as the stationary operand — is pinned.
        assert_eq!(text.matches("polly_cimHostToDev(cim_A)").count(), 1, "{text}");
        assert_eq!(text.matches("polly_cimHostToDev(cim_B)").count(), 1, "{text}");
        assert_eq!(text.matches("polly_cimPin(cim_A)").count(), 1, "{text}");
        assert!(counter(&reports, "elided_syncs") >= 2, "{reports:?}");
        assert_eq!(counter(&reports, "pins"), 1, "{reports:?}");
        // The pin precedes the first kernel.
        let pin = text.find("polly_cimPin(cim_A)").expect("pin");
        let first_gemm = text.find("polly_cimBlasSGemm").expect("gemm");
        assert!(pin < first_gemm, "{text}");
    }

    #[test]
    fn d2h_sinks_past_independent_statements_only() {
        let (opt, reports) = optimize(SHARED_A, &unfused());
        assert!(counter(&reports, "hoisted_syncs") >= 1, "{reports:?}");
        let text = print_program(&opt);
        // d2h(C) sank past the D kernel (independent of C) — the D
        // kernel call now precedes it.
        let d2h_c = text.find("polly_cimDevToHost(cim_C)").expect("d2h C");
        let gemm_d = text.rfind("polly_cimBlasSGemm").expect("second gemm");
        assert!(gemm_d < d2h_c, "d2h(C) did not sink past the D kernel: {text}");
    }

    #[test]
    fn optimized_schedule_is_semantically_identical() {
        for cfg in [TacticsConfig::default(), unfused()] {
            let prog = offload(SHARED_A, &cfg);
            let (opt, _) = optimize(SHARED_A, &cfg);
            let init = |p: &Program, be: &mut PureBackend| {
                for (i, d) in p.arrays.iter().enumerate() {
                    let data: Vec<f32> =
                        (0..d.elem_count()).map(|j| ((i * 13 + j * 5) % 11) as f32 - 5.0).collect();
                    be.set_array(ArrayId(i), &data);
                }
            };
            let mut b1 = PureBackend::for_program(&prog);
            init(&prog, &mut b1);
            run(&prog, &mut b1).expect("baseline runs");
            let mut b2 = PureBackend::for_program(&opt);
            init(&opt, &mut b2);
            run(&opt, &mut b2).expect("optimized runs");
            for (i, decl) in prog.arrays.iter().enumerate() {
                assert_eq!(b1.array(ArrayId(i)), b2.array(ArrayId(i)), "{} diverged", decl.name);
            }
        }
    }

    #[test]
    fn host_consumer_blocks_sinking() {
        // The host reads C right after the d2h: nothing to sink past.
        let src = r#"
            const int N = 8;
            float A[N][N]; float B[N][N]; float C[N][N];
            void kernel() {
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    C[i][j] += A[i][k] * B[k][j];
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  C[i][j] = C[i][j] * 2.0;
            }
        "#;
        let (opt, reports) = optimize(src, &TacticsConfig::default());
        assert_eq!(counter(&reports, "hoisted_syncs"), 0, "{reports:?}");
        let text = print_program(&opt);
        let d2h = text.find("polly_cimDevToHost(cim_C)").expect("d2h");
        let host = text.find("* 2.0").expect("host consumer");
        assert!(d2h < host, "{text}");
    }

    #[test]
    fn host_write_fences_elision_and_pinning() {
        // The host writes A between the kernels: the second h2d(A) must
        // stay and A must not be pinned.
        let src = r#"
            const int N = 8;
            float A[N][N]; float B[N][N]; float C[N][N]; float D[N][N];
            void kernel() {
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    C[i][j] += A[i][k] * B[k][j];
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  A[i][j] = A[i][j] + 1.0;
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    D[i][j] += A[i][k] * B[k][j];
            }
        "#;
        let (opt, reports) = optimize(src, &unfused());
        let text = print_program(&opt);
        assert_eq!(text.matches("polly_cimHostToDev(cim_A)").count(), 2, "{text}");
        assert!(!text.contains("polly_cimPin(cim_A)"), "{text}");
        assert_eq!(counter(&reports, "pins"), 0);
    }

    #[test]
    fn chain_outputs_are_not_pinned_across_layers() {
        // H is written by layer 1 and consumed as layer 2's stationary
        // operand: one use per content version, so no pin.
        let src = r#"
            const int N = 8;
            float X[N][N]; float W1[N][N]; float W2[N][N]; float H[N][N]; float Y[N][N];
            void kernel() {
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    H[i][j] += X[i][k] * W1[k][j];
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    Y[i][j] += H[i][k] * W2[k][j];
            }
        "#;
        let (_, reports) = optimize(src, &unfused());
        assert_eq!(counter(&reports, "pins"), 0, "{reports:?}");
    }
}
