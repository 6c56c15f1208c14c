//! Listing 3: tiling + interchange for crossbar fit and tile reuse.
//!
//! A GEMM larger than the 256x256 crossbar is tiled so one operand tile
//! fits; ordering the tile loops `[ii, kk, jj]` keeps the `A` tile
//! resident across all `jj` iterations, reprogramming each tile exactly
//! once. The naive `[ii, jj, kk]` order reinstalls the `A` tile for every
//! `jj` — multiplying crossbar writes by the number of `jj` tiles.
//!
//! Run with `cargo run --release --example tiling_large`.

use tdo_cim::{execute, CompileOptions, ExecOptions};
use tdo_ir::calls::{GemmExtent, TileView};
use tdo_ir::printer::print_program;
use tdo_ir::Expr;
use tdo_poly::codegen::rebuild_program;
use tdo_poly::scop::extract;
use tdo_poly::transforms::{prepend_extension, replace_subtree, tile};
use tdo_poly::tree::ScheduleTree;
use tdo_tactics::codegen::{gemm_call, prologue};
use tdo_tactics::detect::match_kernel;
use tdo_tactics::pass::tile_oversized_gemm;
use tdo_tactics::MatchedKernel;

const N: usize = 384; // > 256: does not fit the crossbar

fn src() -> String {
    format!(
        r#"
        const int N = {N};
        float A[N][N]; float B[N][N]; float C[N][N];
        void kernel() {{
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                C[i][j] += A[i][k] * B[k][j];
        }}
        "#
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let init = |name: &str, data: &mut [f32]| {
        let seed = name.len();
        data.iter_mut().enumerate().for_each(|(i, v)| *v = ((seed + i) % 3) as f32 - 1.0);
    };

    // --- Listing-3 order [ii, kk, jj] via the library helper. ---
    let mut prog = tdo_lang::compile(&src())?;
    let scop = extract(&prog)?;
    let Some(MatchedKernel::Gemm(g)) = match_kernel(&prog, &scop, &scop.tree) else {
        panic!("gemm should match");
    };
    let arrays = vec![g.a, g.b, g.c];
    let tiled = tile_oversized_gemm(&mut prog, &scop.tree, &g, 256, 256).expect("tiles");
    let tiled = prepend_extension(&tiled, prologue(0, &arrays));
    let good = rebuild_program(&prog, &scop, &tiled);
    println!("=== Listing 3: tiled GEMM (tile order ii, kk, jj) ===\n");
    println!("{}", print_program(&good));

    // --- Naive order [ii, jj, kk] built from the same building blocks. ---
    let mut prog2 = tdo_lang::compile(&src())?;
    let scop2 = extract(&prog2)?;
    let Some(MatchedKernel::Gemm(g2)) = match_kernel(&prog2, &scop2, &scop2.tree) else {
        panic!("gemm should match");
    };
    let bad_tree = tile(&mut prog2, &scop2.tree, &[256, 256, 256], &[0, 1, 2]).expect("tiles");
    let (dims, _) = bad_tree.band_chain();
    let (ii, jj, kk) = (dims[0].var, dims[1].var, dims[2].var);
    let ext = |v, total: usize| {
        Expr::sub(
            Expr::min(Expr::add(Expr::Var(v), Expr::Int(256)), Expr::Int(total as i64)),
            Expr::Var(v),
        )
    };
    let call = gemm_call(
        &g2,
        GemmExtent::View(Box::new(TileView {
            m: ext(ii, N),
            n: ext(jj, N),
            k: ext(kk, N),
            a_off: (Expr::Var(ii), Expr::Var(kk)),
            b_off: (Expr::Var(kk), Expr::Var(jj)),
            c_off: (Expr::Var(ii), Expr::Var(jj)),
        })),
    );
    let bad_tree = replace_subtree(
        &bad_tree,
        &|t| matches!(t, ScheduleTree::Mark { name, .. } if name == "point"),
        &mut |_| ScheduleTree::Extension { stmts: vec![call.clone()] },
    );
    let bad_tree = prepend_extension(&bad_tree, prologue(0, &[g2.a, g2.b, g2.c]));
    let bad = rebuild_program(&prog2, &scop2, &bad_tree);

    // --- Run both on the platform and compare crossbar writes. ---
    let mk = |p: tdo_ir::Program| tdo_cim::CompiledProgram {
        prog: p.clone(),
        source_ir: p,
        report: None,
        passes: Vec::new(),
        scop_skipped: None,
    };
    let _ = CompileOptions::default();
    println!("running reuse-friendly order [ii, kk, jj] ...");
    let r_good = execute(&mk(good), &ExecOptions::default(), &init)?;
    println!("running naive order [ii, jj, kk] ...");
    let r_bad = execute(&mk(bad), &ExecOptions::default(), &init)?;
    assert_eq!(r_good.array("C"), r_bad.array("C"));

    let (wg, wb) =
        (r_good.accel.expect("accel").cell_writes, r_bad.accel.expect("accel").cell_writes);
    println!("\ncrossbar cell writes, [ii, kk, jj] order: {wg}");
    println!("crossbar cell writes, [ii, jj, kk] order: {wb}");
    println!(
        "interchange reduces crossbar writes by {:.2}x (= number of jj tiles)",
        wb as f64 / wg as f64
    );
    println!("energy: {} vs {}", r_good.total_energy(), r_bad.total_energy());
    Ok(())
}
