//! Schedule-tree transformations: tiling, interchange, subtree rewrites.
//!
//! Section III-B revisits tiling and fusion "in the light of this new CIM
//! computing paradigm trying to minimize write operations to crossbar to
//! enhance endurance": tiling + interchange make a stationary-operand tile
//! reusable across consecutive point-loop executions (Listing 3). Fusion
//! (Listing 2) is not a tree rewrite here: Loop Tactics groups independent
//! kernels into one batched runtime call (`tdo_tactics::pass`), legal per
//! [`crate::deps::kernels_independent`].

use crate::tree::{BandDim, ScheduleTree};
use tdo_ir::affine::AffineExpr;
use tdo_ir::{Expr, Program, Stmt, VarId};

/// Tiles the outermost `sizes.len()` perfectly nested bands of `tree`.
///
/// The tile loops are emitted in `perm` order (a permutation of the band
/// indices — Listing 3 uses `[ii, kk, jj]` for a `[i, j, k]` GEMM nest so
/// the `A` tile selected by `(ii, kk)` is reused across the whole `jj`
/// tile row). Point loops are wrapped in a `"point"` mark. Returns `None`
/// if the nest is not deep enough, sizes are non-positive, or any tiled
/// bound is non-constant (partial-tile `min` bounds are still generated;
/// only the *band* extents must be constant for this simple tiler).
pub fn tile(
    prog: &mut Program,
    tree: &ScheduleTree,
    sizes: &[i64],
    perm: &[usize],
) -> Option<ScheduleTree> {
    let depth = sizes.len();
    if depth == 0 || perm.len() != depth || sizes.iter().any(|s| *s <= 0) {
        return None;
    }
    let mut sorted = perm.to_vec();
    sorted.sort_unstable();
    if sorted != (0..depth).collect::<Vec<_>>() {
        return None;
    }
    let (dims, inner) = tree.band_chain();
    if dims.len() < depth {
        return None;
    }
    let dims: Vec<BandDim> = dims.into_iter().cloned().collect();
    // Constant-bound check for the tiled dimensions.
    for d in &dims[..depth] {
        let lo = AffineExpr::from_expr(&d.lo)?;
        let hi = AffineExpr::from_expr(&d.hi)?;
        if !lo.is_constant() || !hi.is_constant() || d.step != 1 {
            return None;
        }
    }
    // Fresh tile variables, named after the point variables (i -> ii).
    let tile_vars: Vec<VarId> = (0..depth)
        .map(|l| {
            let base = prog.var_name(dims[l].var).to_string();
            prog.fresh_var(format!("{base}{base}"))
        })
        .collect();
    // Innermost part: remaining (untiled) bands over the original subtree.
    let mut body = inner.clone();
    for d in dims[depth..].iter().rev() {
        body = ScheduleTree::band(d.clone(), body);
    }
    // Point loops, innermost-last, wrapped in a mark.
    for l in (0..depth).rev() {
        let d = &dims[l];
        let point = BandDim {
            var: d.var,
            lo: Expr::Var(tile_vars[l]),
            hi: Expr::min(Expr::add(Expr::Var(tile_vars[l]), Expr::Int(sizes[l])), d.hi.clone()),
            step: 1,
        };
        body = ScheduleTree::band(point, body);
    }
    body = ScheduleTree::mark("point", body);
    // Tile loops in `perm` order (perm[0] is the outermost tile loop).
    for &l in perm.iter().rev() {
        let d = &dims[l];
        let tile_dim =
            BandDim { var: tile_vars[l], lo: d.lo.clone(), hi: d.hi.clone(), step: sizes[l] };
        body = ScheduleTree::band(tile_dim, body);
    }
    Some(ScheduleTree::mark("tiled", body))
}

/// Interchanges two levels of a perfect band nest. Returns `None` if the
/// chain is shallower than `max(a, b) + 1` or an interchanged bound
/// references the other variable (non-rectangular nests).
pub fn interchange(tree: &ScheduleTree, a: usize, b: usize) -> Option<ScheduleTree> {
    let (dims, inner) = tree.band_chain();
    let depth = dims.len();
    if a >= depth || b >= depth {
        return None;
    }
    let mut dims: Vec<BandDim> = dims.into_iter().cloned().collect();
    // Rectangularity: neither bound of the moved dims may use the other var.
    let uses = |d: &BandDim, v: VarId| d.lo.uses_var(v) || d.hi.uses_var(v);
    if uses(&dims[a], dims[b].var) || uses(&dims[b], dims[a].var) {
        return None;
    }
    dims.swap(a, b);
    let mut t = inner.clone();
    for d in dims.into_iter().rev() {
        t = ScheduleTree::band(d, t);
    }
    Some(t)
}

/// Substitutes statements of `old` for `replacement` wherever `pred` holds
/// on a subtree — the generic rewrite used by the Loop Tactics passes to
/// swap matched kernels for extension nodes.
pub fn replace_subtree(
    tree: &ScheduleTree,
    pred: &impl Fn(&ScheduleTree) -> bool,
    replacement: &mut impl FnMut(&ScheduleTree) -> ScheduleTree,
) -> ScheduleTree {
    if pred(tree) {
        return replacement(tree);
    }
    match tree {
        ScheduleTree::Band { dim, child } => ScheduleTree::Band {
            dim: dim.clone(),
            child: Box::new(replace_subtree(child, pred, replacement)),
        },
        ScheduleTree::Mark { name, child } => ScheduleTree::Mark {
            name: name.clone(),
            child: Box::new(replace_subtree(child, pred, replacement)),
        },
        ScheduleTree::Sequence { children } => ScheduleTree::Sequence {
            children: children.iter().map(|c| replace_subtree(c, pred, replacement)).collect(),
        },
        ScheduleTree::Leaf { .. } | ScheduleTree::Extension { .. } => tree.clone(),
    }
}

/// Injects statements before a subtree matching `pred` (e.g. the
/// `polly_cimInit`/`polly_cimMalloc` prologue before the first offload).
pub fn prepend_extension(tree: &ScheduleTree, stmts: Vec<Stmt>) -> ScheduleTree {
    match tree {
        ScheduleTree::Sequence { children } => {
            let mut out = vec![ScheduleTree::Extension { stmts }];
            out.extend(children.iter().cloned());
            ScheduleTree::Sequence { children: out }
        }
        other => ScheduleTree::Sequence {
            children: vec![ScheduleTree::Extension { stmts }, other.clone()],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::generate;
    use crate::scop::extract;
    use tdo_ir::interp::{run, PureBackend};
    use tdo_lang::compile;

    const GEMM: &str = r#"
        const int N = 8;
        float A[N][N]; float B[N][N]; float C[N][N];
        void kernel() {
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                C[i][j] += A[i][k] * B[k][j];
        }
    "#;

    fn run_to_arrays(prog: &tdo_ir::Program) -> Vec<Vec<f32>> {
        let mut be = PureBackend::for_program(prog);
        // Deterministic pseudo-random init for all arrays.
        for (i, d) in prog.arrays.iter().enumerate() {
            let data: Vec<f32> =
                (0..d.elem_count()).map(|j| ((i * 31 + j * 7) % 13) as f32 - 6.0).collect();
            be.set_array(tdo_ir::ArrayId(i), &data);
        }
        run(prog, &mut be).expect("runs");
        be.into_arrays()
    }

    #[test]
    fn tiling_preserves_semantics() {
        let mut prog = compile(GEMM).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let reference = run_to_arrays(&prog);
        let tiled = tile(&mut prog, &scop.tree, &[4, 4, 4], &[0, 2, 1]).expect("tiles");
        let mut tiled_prog = prog.clone();
        tiled_prog.body = generate(&scop, &tiled);
        tdo_ir::verify::verify(&tiled_prog).expect("well-formed");
        assert_eq!(run_to_arrays(&tiled_prog), reference);
    }

    #[test]
    fn tiling_handles_partial_tiles() {
        // 10 is not divisible by 4: min() bounds must kick in.
        let src = GEMM.replace("const int N = 8;", "const int N = 10;");
        let mut prog = compile(&src).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let reference = run_to_arrays(&prog);
        let tiled = tile(&mut prog, &scop.tree, &[4, 4, 4], &[0, 1, 2]).expect("tiles");
        let mut tiled_prog = prog.clone();
        tiled_prog.body = generate(&scop, &tiled);
        assert_eq!(run_to_arrays(&tiled_prog), reference);
    }

    #[test]
    fn listing3_order_reuses_a_tile() {
        // Tile loops in [ii, kk, jj] order: the printed code must iterate
        // jj innermost among tile loops.
        let mut prog = compile(GEMM).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let tiled = tile(&mut prog, &scop.tree, &[4, 4, 4], &[0, 2, 1]).expect("tiles");
        let (dims, _) = tiled.band_chain();
        let names: Vec<&str> = dims.iter().map(|d| prog.var_name(d.var)).collect();
        assert_eq!(names[..3], ["ii", "kk", "jj"]);
        assert_eq!(names[3..], ["i", "j", "k"]);
    }

    #[test]
    fn tile_rejects_bad_inputs() {
        let mut prog = compile(GEMM).expect("compiles");
        let scop = extract(&prog).expect("affine");
        assert!(tile(&mut prog, &scop.tree, &[], &[]).is_none());
        assert!(tile(&mut prog, &scop.tree, &[4, 4], &[0, 0]).is_none());
        assert!(tile(&mut prog, &scop.tree, &[4, -1], &[0, 1]).is_none());
        assert!(tile(&mut prog, &scop.tree, &[4; 5], &[0, 1, 2, 3, 4]).is_none());
    }

    #[test]
    fn interchange_preserves_semantics_and_swaps() {
        let prog = compile(GEMM).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let reference = run_to_arrays(&prog);
        let swapped = interchange(&scop.tree, 0, 2).expect("interchange");
        let mut new_prog = prog.clone();
        new_prog.body = generate(&scop, &swapped);
        assert_eq!(run_to_arrays(&new_prog), reference);
        let (dims, _) = swapped.band_chain();
        let names: Vec<&str> = dims.iter().map(|d| prog.var_name(d.var)).collect();
        assert_eq!(names, ["k", "j", "i"]);
    }

    #[test]
    fn interchange_rejects_triangular() {
        let src = r#"
            float A[8][8];
            void kernel() {
              for (int i = 0; i < 8; i++)
                for (int j = i; j < 8; j++)
                  A[i][j] = 1.0;
            }
        "#;
        let prog = compile(src).expect("compiles");
        let scop = extract(&prog).expect("affine");
        assert!(interchange(&scop.tree, 0, 1).is_none());
    }

    #[test]
    fn replace_subtree_swaps_matching_nodes() {
        let prog = compile(GEMM).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let replaced =
            replace_subtree(&scop.tree, &|t| matches!(t, ScheduleTree::Leaf { .. }), &mut |_| {
                ScheduleTree::Extension { stmts: vec![] }
            });
        assert_eq!(replaced.leaf_stmts(), Vec::<usize>::new());
    }
}
