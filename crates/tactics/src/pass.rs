//! The Loop Tactics pass: detect, fuse, decide, rewrite.
//!
//! "Loop Tactics' passes consume schedule trees and output a CIM-optimized
//! schedule" (Section III-A). The pass walks the schedule tree, matches
//! offloadable kernels, groups adjacent independent same-shape GEMMs into
//! batched calls (the fusion of Listing 2), consults the offload policy,
//! and replaces accepted subtrees with extension nodes carrying the
//! runtime calls of Listing 1. A prologue (`polly_cimInit` +
//! `polly_cimMalloc`) is prepended when anything was offloaded.

use crate::codegen::{batched_calls, gemm_call, kernel_calls, prologue};
use crate::detect::match_kernel;
use crate::kernels::{GemmDesc, MatchedKernel};
use crate::policy::{CostModel, OffloadPolicy};
use cim_accel::estimate::conv_geometry;
use std::collections::BTreeMap;
use std::fmt;
use tdo_ir::calls::{GemmExtent, TileView};
use tdo_ir::{ArrayId, Expr, Program};
use tdo_poly::deps::kernels_independent;
use tdo_poly::scop::Scop;
use tdo_poly::transforms::{prepend_extension, replace_subtree, tile};
use tdo_poly::tree::ScheduleTree;

/// Configuration of the Loop Tactics pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TacticsConfig {
    /// Offload decision policy.
    pub policy: OffloadPolicy,
    /// Enable kernel fusion into batched calls.
    pub fusion: bool,
    /// Cost model (used by [`OffloadPolicy::Selective`]).
    pub cost: CostModel,
    /// Device number passed to `polly_cimInit`.
    pub device: u32,
    /// Price [`OffloadPolicy::Selective`] decisions assuming the
    /// pin-placement pass keeps reused stationary operands resident, so
    /// a run of kernels sharing one pays its crossbar install once
    /// ([`CostModel::decide_reused`]). Disable when running the legacy
    /// detect-only pipeline, where every call installs cold.
    pub assume_residency: bool,
}

impl Default for TacticsConfig {
    fn default() -> Self {
        TacticsConfig {
            policy: OffloadPolicy::Always,
            fusion: true,
            cost: CostModel::default(),
            device: 0,
            assume_residency: true,
        }
    }
}

/// Per-kernel report entry.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel kind (`gemm`, `gemv`, `conv2d`).
    pub kind: String,
    /// Dimension summary.
    pub dims: String,
    /// Whether it was offloaded.
    pub offloaded: bool,
    /// Whether it was fused into a batched call.
    pub fused: bool,
    /// Decision rationale.
    pub reason: String,
}

/// Result of running the pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OffloadReport {
    /// One entry per matched kernel, in schedule order.
    pub kernels: Vec<KernelReport>,
    /// Arrays that live in device (CMA) buffers.
    pub offloaded_arrays: Vec<ArrayId>,
    /// Number of batched groups formed by fusion.
    pub fused_groups: usize,
}

impl OffloadReport {
    /// Whether anything was offloaded.
    pub fn any_offloaded(&self) -> bool {
        self.kernels.iter().any(|k| k.offloaded)
    }
}

impl fmt::Display for OffloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "loop-tactics report: {} kernel(s) matched", self.kernels.len())?;
        for k in &self.kernels {
            writeln!(
                f,
                "  {:<7} {:<28} offloaded={} fused={} ({})",
                k.kind, k.dims, k.offloaded, k.fused, k.reason
            )?;
        }
        writeln!(f, "  fused groups: {}", self.fused_groups)
    }
}

/// The Loop Tactics pass.
#[derive(Debug, Clone, Default)]
pub struct LoopTactics {
    cfg: TacticsConfig,
}

impl LoopTactics {
    /// Creates the pass with a configuration.
    pub fn new(cfg: TacticsConfig) -> Self {
        LoopTactics { cfg }
    }

    /// Runs detection + rewriting on a schedule tree, returning the
    /// CIM-optimized tree and a report.
    pub fn run(&self, prog: &Program, scop: &Scop) -> (ScheduleTree, OffloadReport) {
        let mut report = OffloadReport::default();
        let tree = self.rewrite(prog, scop, &scop.tree, &mut report);
        let tree = if report.any_offloaded() {
            prepend_extension(&tree, prologue(self.cfg.device, &report.offloaded_arrays))
        } else {
            tree
        };
        (tree, report)
    }

    /// Policy decision for a kernel predicted to be one of `reuse`
    /// consecutive calls sharing its stationary operand. Under either
    /// policy, a convolution whose filter does not fit the accelerator's
    /// Toeplitz mapping stays on the host.
    fn decide(&self, k: &MatchedKernel, reuse: usize) -> (bool, String) {
        if let MatchedKernel::Conv(c) = k {
            let accel = &self.cfg.cost.accel;
            if conv_geometry(accel, c.w, c.fh, c.fw).is_none() {
                let reason = format!(
                    "filter {}x{} does not fit the {}-row Toeplitz mapping",
                    c.fh, c.fw, accel.rows
                );
                return (false, reason);
            }
        }
        match self.cfg.policy {
            OffloadPolicy::Always => (true, "policy=always".into()),
            OffloadPolicy::Selective => {
                let reuse = if self.cfg.assume_residency { reuse } else { 1 };
                let d = self.cfg.cost.decide_reused(k, reuse);
                let amortized =
                    if reuse > 1 { format!(" over {reuse} pinned calls") } else { String::new() };
                let reason = format!(
                    "cost model{}: cim {:.1} uJ vs host {:.1} uJ",
                    amortized,
                    d.cim_pj * 1e-6,
                    d.host_pj * 1e-6
                );
                (d.offload, reason)
            }
        }
    }

    fn note_arrays(&self, k: &MatchedKernel, report: &mut OffloadReport) {
        for a in k.arrays_read().into_iter().chain(k.arrays_written()) {
            if !report.offloaded_arrays.contains(&a) {
                report.offloaded_arrays.push(a);
            }
        }
    }

    fn offload_one(
        &self,
        k: &MatchedKernel,
        report: &mut OffloadReport,
        reason: String,
    ) -> ScheduleTree {
        self.note_arrays(k, report);
        report.kernels.push(KernelReport {
            kind: k.kind().into(),
            dims: k.dims_summary(),
            offloaded: true,
            fused: false,
            reason,
        });
        ScheduleTree::Extension { stmts: kernel_calls(k) }
    }

    fn skip_one(&self, k: &MatchedKernel, report: &mut OffloadReport, reason: String) {
        report.kernels.push(KernelReport {
            kind: k.kind().into(),
            dims: k.dims_summary(),
            offloaded: false,
            fused: false,
            reason,
        });
    }

    fn rewrite(
        &self,
        prog: &Program,
        scop: &Scop,
        tree: &ScheduleTree,
        report: &mut OffloadReport,
    ) -> ScheduleTree {
        if let Some(k) = match_kernel(prog, scop, tree) {
            let (offload, reason) = self.decide(&k, 1);
            if offload {
                return self.offload_one(&k, report, reason);
            }
            self.skip_one(&k, report, reason);
            return tree.clone();
        }
        match tree {
            ScheduleTree::Sequence { children } => {
                self.rewrite_sequence(prog, scop, children, report)
            }
            ScheduleTree::Band { dim, child } => ScheduleTree::Band {
                dim: dim.clone(),
                child: Box::new(self.rewrite(prog, scop, child, report)),
            },
            ScheduleTree::Mark { name, child } => ScheduleTree::Mark {
                name: name.clone(),
                child: Box::new(self.rewrite(prog, scop, child, report)),
            },
            ScheduleTree::Leaf { .. } | ScheduleTree::Extension { .. } => tree.clone(),
        }
    }

    fn rewrite_sequence(
        &self,
        prog: &Program,
        scop: &Scop,
        children: &[ScheduleTree],
        report: &mut OffloadReport,
    ) -> ScheduleTree {
        // Match every child first so fusion can look at neighbours.
        let matches: Vec<Option<MatchedKernel>> =
            children.iter().map(|c| match_kernel(prog, scop, c)).collect();
        // Predicted stationary-operand reuse per kernel, so Selective can
        // amortize the pinned install over the run it belongs to.
        let reuse = predicted_reuse(&matches);
        let mut out: Vec<ScheduleTree> = Vec::new();
        let mut i = 0;
        while i < children.len() {
            let Some(k) = &matches[i] else {
                out.push(self.rewrite(prog, scop, &children[i], report));
                i += 1;
                continue;
            };
            let (offload, reason) = self.decide(k, reuse[i]);
            if !offload {
                self.skip_one(k, report, reason);
                out.push(children[i].clone());
                i += 1;
                continue;
            }
            // Try to grow a fused group of same-shape independent GEMMs.
            if self.cfg.fusion {
                if let MatchedKernel::Gemm(g0) = k {
                    let mut group: Vec<&GemmDesc> = vec![g0];
                    let mut j = i + 1;
                    while j < children.len() {
                        let Some(MatchedKernel::Gemm(gj)) = &matches[j] else { break };
                        if !same_shape(g0, gj) {
                            break;
                        }
                        // Y must be independent of every kernel already in
                        // the group (Listing 2's legality rule).
                        let xs: Vec<&tdo_poly::scop::ScopStmt> = group
                            .iter()
                            .flat_map(|g| g.stmt_ids.iter().map(|id| &scop.stmts[*id]))
                            .collect();
                        let ys: Vec<&tdo_poly::scop::ScopStmt> =
                            gj.stmt_ids.iter().map(|id| &scop.stmts[*id]).collect();
                        if !kernels_independent(&xs, &ys) {
                            break;
                        }
                        let (off_j, _) =
                            self.decide(&matches[j].clone().expect("matched"), reuse[j]);
                        if !off_j {
                            break;
                        }
                        group.push(gj);
                        j += 1;
                    }
                    if group.len() > 1 {
                        for g in &group {
                            self.note_arrays(&MatchedKernel::Gemm((*g).clone()), report);
                            report.kernels.push(KernelReport {
                                kind: "gemm".into(),
                                dims: format!("m={} n={} k={}", g.m, g.n, g.k),
                                offloaded: true,
                                fused: true,
                                reason: format!("fused into batch of {}", group.len()),
                            });
                        }
                        report.fused_groups += 1;
                        out.push(ScheduleTree::Extension { stmts: batched_calls(&group) });
                        i = j;
                        continue;
                    }
                }
            }
            out.push(self.offload_one(k, report, reason));
            i += 1;
        }
        if out.len() == 1 {
            out.pop().expect("len 1")
        } else {
            ScheduleTree::Sequence { children: out }
        }
    }
}

/// The stationary operand a kernel's run of reuse is keyed on, when the
/// runtime can keep one resident.
fn stationary_of(k: &MatchedKernel) -> Option<ArrayId> {
    match k {
        MatchedKernel::Gemm(g) => Some(g.a),
        MatchedKernel::Gemv(g) => Some(g.a),
        MatchedKernel::Conv(_) => None,
    }
}

/// Predicted reuse of each matched kernel's stationary operand within a
/// sequence: the length of the run of consecutive kernels sharing it
/// with no intervening writer. Mirrors the window logic of the
/// pin-placement pass conservatively at the schedule-tree level —
/// unmatched children (host code) are barriers that end every run, and
/// a kernel writing an array ends that array's run.
fn predicted_reuse(matches: &[Option<MatchedKernel>]) -> Vec<usize> {
    fn flush(idxs: Vec<usize>, reuse: &mut [usize]) {
        let n = idxs.len().max(1);
        for i in idxs {
            reuse[i] = n;
        }
    }
    let mut reuse = vec![1usize; matches.len()];
    let mut runs: BTreeMap<ArrayId, Vec<usize>> = BTreeMap::new();
    for (i, m) in matches.iter().enumerate() {
        let Some(k) = m else {
            // Host code may write anything: end every open run.
            for (_, idxs) in std::mem::take(&mut runs) {
                flush(idxs, &mut reuse);
            }
            continue;
        };
        if let Some(a) = stationary_of(k) {
            runs.entry(a).or_default().push(i);
        }
        for w in k.arrays_written() {
            // A kernel does not clobber its own stationary operand.
            if stationary_of(k) == Some(w) {
                continue;
            }
            if let Some(idxs) = runs.remove(&w) {
                flush(idxs, &mut reuse);
            }
        }
    }
    for (_, idxs) in runs {
        flush(idxs, &mut reuse);
    }
    reuse
}

fn same_shape(a: &GemmDesc, b: &GemmDesc) -> bool {
    a.m == b.m
        && a.n == b.n
        && a.k == b.k
        && a.lda == b.lda
        && a.ldb == b.ldb
        && a.ldc == b.ldc
        && a.trans_a == b.trans_a
        && a.alpha == b.alpha
        && a.beta == b.beta
}

/// Compiler-side tiling of an oversized GEMM (Listing 3): tiles the
/// `[i, j, k]` nest with crossbar-sized tiles, orders the tile loops
/// `[ii, kk, jj]` so the `A` tile stays resident across `jj`, and replaces
/// the point loops with a `polly_cimBlasSGemmView` call on the tile.
///
/// Only pure accumulation kernels (`beta == 1`, matched without an init
/// statement) qualify — every tile invocation accumulates into `C`.
/// Returns `None` when the kernel does not qualify or already fits.
pub fn tile_oversized_gemm(
    prog: &mut Program,
    tree: &ScheduleTree,
    g: &GemmDesc,
    crossbar_rows: usize,
    crossbar_cols: usize,
) -> Option<ScheduleTree> {
    if g.trans_a || g.beta != Expr::Float(1.0) {
        return None;
    }
    if g.m <= crossbar_cols && g.k <= crossbar_rows {
        return None; // already fits
    }
    let tm = crossbar_cols.min(g.m) as i64;
    let tn = crossbar_cols.min(g.n) as i64;
    let tk = crossbar_rows.min(g.k) as i64;
    // Tile loop order [ii, kk, jj] (Listing 3).
    let tiled = tile(prog, tree, &[tm, tn, tk], &[0, 2, 1])?;
    // Identify the tile variables from the generated bands: the chain is
    // already in permuted order [ii, kk, jj].
    let (dims, _) = tiled.band_chain();
    let (ii, kk, jj) = (dims[0].var, dims[1].var, dims[2].var);
    let mk_extent = |tile_var, size: i64, total: usize| {
        Expr::sub(
            Expr::min(Expr::add(Expr::Var(tile_var), Expr::Int(size)), Expr::Int(total as i64)),
            Expr::Var(tile_var),
        )
    };
    let call = gemm_call(
        g,
        GemmExtent::View(Box::new(TileView {
            m: mk_extent(ii, tm, g.m),
            n: mk_extent(jj, tn, g.n),
            k: mk_extent(kk, tk, g.k),
            a_off: (Expr::Var(ii), Expr::Var(kk)),
            b_off: (Expr::Var(kk), Expr::Var(jj)),
            c_off: (Expr::Var(ii), Expr::Var(jj)),
        })),
    );
    Some(replace_subtree(
        &tiled,
        &|t| matches!(t, ScheduleTree::Mark { name, .. } if name == "point"),
        &mut |_| ScheduleTree::Extension { stmts: vec![call.clone()] },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdo_ir::interp::{run, PureBackend};
    use tdo_ir::printer::print_program;
    use tdo_lang::compile;
    use tdo_poly::codegen::rebuild_program;
    use tdo_poly::scop::extract;

    const GEMM_SRC: &str = r#"
        const int N = 16;
        float A[N][N]; float B[N][N]; float C[N][N];
        float alpha = 1.5; float beta = 0.5;
        void kernel() {
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++) {
              C[i][j] = beta * C[i][j];
              for (int k = 0; k < N; k++)
                C[i][j] += alpha * A[i][k] * B[k][j];
            }
        }
    "#;

    fn offload(src: &str, cfg: TacticsConfig) -> (Program, OffloadReport, Program) {
        let prog = compile(src).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let pass = LoopTactics::new(cfg);
        let (tree, report) = pass.run(&prog, &scop);
        let new_prog = rebuild_program(&prog, &scop, &tree);
        (prog, report, new_prog)
    }

    #[test]
    fn gemm_is_replaced_by_listing1_calls() {
        let (_, report, new_prog) = offload(GEMM_SRC, TacticsConfig::default());
        assert!(report.any_offloaded());
        let text = print_program(&new_prog);
        assert!(text.contains("polly_cimInit(0);"), "{text}");
        assert!(text.contains("polly_cimMalloc(cim_C);"), "{text}");
        assert!(text.contains("polly_cimBlasSGemm(0, 0, 16, 16, 16, alpha, cim_A, 16, cim_B, 16, beta, cim_C, 16);"), "{text}");
        assert!(text.contains("polly_cimDevToHost(cim_C);"), "{text}");
        // No loops remain.
        assert!(!text.contains("for ("), "{text}");
    }

    #[test]
    fn offloaded_program_is_semantically_equal() {
        let (prog, _, new_prog) = offload(GEMM_SRC, TacticsConfig::default());
        let init = |p: &Program, be: &mut PureBackend| {
            for (i, d) in p.arrays.iter().enumerate() {
                if d.dims.is_empty() {
                    continue;
                }
                let data: Vec<f32> =
                    (0..d.elem_count()).map(|j| ((i * 13 + j * 5) % 11) as f32 - 5.0).collect();
                be.set_array(tdo_ir::ArrayId(i), &data);
            }
        };
        let mut b1 = PureBackend::for_program(&prog);
        init(&prog, &mut b1);
        run(&prog, &mut b1).expect("host runs");
        let mut b2 = PureBackend::for_program(&new_prog);
        init(&new_prog, &mut b2);
        run(&new_prog, &mut b2).expect("offloaded runs");
        let c = prog.array_by_name("C").expect("C");
        let (r1, r2) = (b1.array(c), b2.array(c));
        for (x, y) in r1.iter().zip(r2) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    const LISTING2_SRC: &str = r#"
        const int N = 8;
        float A[N][N]; float B[N][N]; float C[N][N]; float D[N][N]; float E[N][N];
        void kernel() {
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                C[i][j] += A[i][k] * B[k][j];
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                D[i][j] += A[i][k] * E[k][j];
        }
    "#;

    #[test]
    fn listing2_kernels_fuse_into_batched_call() {
        let (_, report, new_prog) = offload(LISTING2_SRC, TacticsConfig::default());
        assert_eq!(report.fused_groups, 1);
        assert_eq!(report.kernels.len(), 2);
        assert!(report.kernels.iter().all(|k| k.fused && k.offloaded));
        let text = print_program(&new_prog);
        assert!(text.contains("polly_cimBlasGemmBatched"), "{text}");
        assert!(!text.contains("polly_cimBlasSGemm("), "{text}");
    }

    #[test]
    fn inference_chain_fuses_per_layer_with_host_activations_between() {
        // The workloads crate's GEMM-chain shape in miniature: two
        // layers of two micro-batches each, separated by pointwise
        // activation nests. Each layer's batch must fuse into one
        // batched call; the activations must stay host loops and fence
        // fusion across the layer boundary.
        let src = r#"
            const int R = 4; const int D = 4;
            float X0[R][D]; float X1[R][D];
            float W1[D][D]; float W2[D][D];
            float H1_0[R][D]; float H1_1[R][D]; float H2_0[R][D]; float H2_1[R][D];
            void kernel() {
              for (int i = 0; i < R; i++)
                for (int j = 0; j < D; j++) {
                  H1_0[i][j] = 0.0;
                  for (int k = 0; k < D; k++)
                    H1_0[i][j] += X0[i][k] * W1[k][j];
                }
              for (int i = 0; i < R; i++)
                for (int j = 0; j < D; j++) {
                  H1_1[i][j] = 0.0;
                  for (int k = 0; k < D; k++)
                    H1_1[i][j] += X1[i][k] * W1[k][j];
                }
              for (int i = 0; i < R; i++)
                for (int j = 0; j < D; j++)
                  H1_0[i][j] = H1_0[i][j] * 0.0625;
              for (int i = 0; i < R; i++)
                for (int j = 0; j < D; j++)
                  H1_1[i][j] = H1_1[i][j] * 0.0625;
              for (int i = 0; i < R; i++)
                for (int j = 0; j < D; j++) {
                  H2_0[i][j] = 0.0;
                  for (int k = 0; k < D; k++)
                    H2_0[i][j] += H1_0[i][k] * W2[k][j];
                }
              for (int i = 0; i < R; i++)
                for (int j = 0; j < D; j++) {
                  H2_1[i][j] = 0.0;
                  for (int k = 0; k < D; k++)
                    H2_1[i][j] += H1_1[i][k] * W2[k][j];
                }
            }
        "#;
        let (_, report, new_prog) = offload(src, TacticsConfig::default());
        assert_eq!(report.fused_groups, 2, "{report}");
        assert_eq!(report.kernels.len(), 4);
        assert!(report.kernels.iter().all(|k| k.offloaded && k.fused), "{report}");
        let text = print_program(&new_prog);
        assert_eq!(text.matches("polly_cimBlasGemmBatched").count(), 2, "{text}");
        assert!(!text.contains("polly_cimBlasSGemm("), "{text}");
        // Activations survive as host loops between the two batched calls.
        assert!(text.contains("H1_0[i][j] * 0.0625"), "{text}");
        let first_batched = text.find("polly_cimBlasGemmBatched").expect("layer 1");
        let act = text.find("* 0.0625").expect("activation");
        let last_batched = text.rfind("polly_cimBlasGemmBatched").expect("layer 2");
        assert!(first_batched < act && act < last_batched, "{text}");
    }

    #[test]
    fn fusion_respects_dependences() {
        let src =
            LISTING2_SRC.replace("D[i][j] += A[i][k] * E[k][j];", "D[i][j] += C[i][k] * E[k][j];");
        let (_, report, new_prog) = offload(&src, TacticsConfig::default());
        assert_eq!(report.fused_groups, 0);
        let text = print_program(&new_prog);
        // Two separate calls, still offloaded.
        assert_eq!(text.matches("polly_cimBlasSGemm(").count(), 2);
    }

    #[test]
    fn fusion_can_be_disabled() {
        let cfg = TacticsConfig { fusion: false, ..TacticsConfig::default() };
        let (_, report, new_prog) = offload(LISTING2_SRC, cfg);
        assert_eq!(report.fused_groups, 0);
        assert_eq!(print_program(&new_prog).matches("polly_cimBlasSGemm(").count(), 2);
    }

    #[test]
    fn selective_policy_keeps_tiny_kernels_on_host() {
        let src = r#"
            float A[4][4]; float x[4]; float y[4];
            void kernel() {
              for (int i = 0; i < 4; i++)
                for (int j = 0; j < 4; j++)
                  y[i] += A[i][j] * x[j];
            }
        "#;
        let cfg = TacticsConfig { policy: OffloadPolicy::Selective, ..TacticsConfig::default() };
        let (_, report, new_prog) = offload(src, cfg);
        assert_eq!(report.kernels.len(), 1);
        assert!(!report.kernels[0].offloaded);
        let text = print_program(&new_prog);
        assert!(!text.contains("polly_cim"), "{text}");
        assert!(text.contains("for ("));
    }

    #[test]
    fn non_matching_code_is_untouched() {
        let src = r#"
            float A[8];
            void kernel() {
              for (int i = 0; i < 8; i++)
                A[i] = A[i] * 2.0;
            }
        "#;
        let (_, report, new_prog) = offload(src, TacticsConfig::default());
        assert!(report.kernels.is_empty());
        assert!(!print_program(&new_prog).contains("polly_cim"));
    }

    #[test]
    fn mixed_program_offloads_only_kernels() {
        let src = r#"
            const int N = 8;
            float A[N][N]; float B[N][N]; float C[N][N]; float s[N];
            void kernel() {
              for (int i = 0; i < N; i++)
                s[i] = s[i] + 1.0;
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    C[i][j] += A[i][k] * B[k][j];
            }
        "#;
        let (_, report, new_prog) = offload(src, TacticsConfig::default());
        assert_eq!(report.kernels.len(), 1);
        let text = print_program(&new_prog);
        assert!(text.contains("s[i] = s[i] + 1.0;"));
        assert!(text.contains("polly_cimBlasSGemm"));
    }

    #[test]
    fn tiled_oversized_gemm_emits_view_calls_and_preserves_semantics() {
        let src = r#"
            const int N = 12;
            float A[N][N]; float B[N][N]; float C[N][N];
            void kernel() {
              for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                  for (int k = 0; k < N; k++)
                    C[i][j] += A[i][k] * B[k][j];
            }
        "#;
        let mut prog = compile(src).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let Some(MatchedKernel::Gemm(g)) = match_kernel(&prog, &scop, &scop.tree) else {
            panic!("gemm should match")
        };
        // Pretend a 5x5 crossbar so 12 forces tiling with partial tiles.
        let tiled = tile_oversized_gemm(&mut prog, &scop.tree, &g, 5, 5).expect("tiles");
        let tiled_prog = rebuild_program(&prog, &scop, &tiled);
        let text = print_program(&tiled_prog);
        assert!(text.contains("polly_cimBlasSGemmView"), "{text}");
        assert!(text.contains("for (int ii = 0; ii < 12; ii += 5)"), "{text}");
        // Semantics: compare against direct host execution.
        let init = |p: &Program, be: &mut PureBackend| {
            for (i, d) in p.arrays.iter().enumerate() {
                let data: Vec<f32> =
                    (0..d.elem_count()).map(|j| ((i * 7 + j * 3) % 9) as f32 - 4.0).collect();
                be.set_array(tdo_ir::ArrayId(i), &data);
            }
        };
        let base = compile(src).expect("compiles");
        let mut b1 = PureBackend::for_program(&base);
        init(&base, &mut b1);
        run(&base, &mut b1).expect("runs");
        let mut b2 = PureBackend::for_program(&tiled_prog);
        init(&tiled_prog, &mut b2);
        run(&tiled_prog, &mut b2).expect("runs");
        let c = base.array_by_name("C").expect("C");
        for (x, y) in b1.array(c).iter().zip(b2.array(c)) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }
}
