//! Property tests: sharding a GEMM across any tile grid is pure schedule
//! — results stay bit-for-bit identical to the single-tile reference, the
//! physical work (cell writes, MACs) is invariant, and wear spreads over
//! the grid instead of piling onto one tile.

use cim_accel::regs::{Command, Reg, Status};
use cim_accel::{AccelConfig, CimAccelerator};
use cim_machine::{Machine, MachineConfig};
use proptest::prelude::*;

struct GemmCase {
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    beta: f32,
    trans_a: bool,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

/// Runs the case under `cfg` on a fresh machine, returning the final `C`
/// bits and the accelerator stats.
fn run_case(cfg: AccelConfig, case: &GemmCase) -> (Vec<u32>, cim_accel::AccelStats) {
    let mut mach = Machine::new(MachineConfig::test_small());
    let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
    let alloc = |mach: &mut Machine, data: &[f32]| {
        let (_va, pa) = mach.alloc_cma((data.len() * 4) as u64).expect("cma");
        mach.mem.write_f32_run(pa, 4, data);
        pa
    };
    let a = alloc(&mut mach, &case.a);
    let b = alloc(&mut mach, &case.b);
    let c = alloc(&mut mach, &case.c);
    let lda = if case.trans_a { case.m } else { case.k };
    for (r, v) in [
        (Reg::M, case.m as u64),
        (Reg::N, case.n as u64),
        (Reg::K, case.k as u64),
        (Reg::Lda, lda as u64),
        (Reg::Ldb, case.n as u64),
        (Reg::Ldc, case.n as u64),
        (Reg::AddrA, a),
        (Reg::AddrB, b),
        (Reg::AddrC, c),
        (Reg::Alpha, case.alpha.to_bits() as u64),
        (Reg::Beta, case.beta.to_bits() as u64),
        (Reg::TransA, case.trans_a as u64),
        (Reg::TransB, 0),
        (Reg::Command, Command::Gemm as u64),
    ] {
        acc.pmio_write(r, v);
    }
    acc.execute(&mut mach);
    assert_eq!(acc.regs().status(), Status::Done, "{:?}", acc.last_error());
    let mut out = vec![0f32; case.m * case.n];
    mach.mem.read_f32_run(c, 4, &mut out);
    (out.iter().map(|v| v.to_bits()).collect(), *acc.stats())
}

fn fill(len: usize, seed: usize, scale: f32) -> Vec<f32> {
    (0..len).map(|i| ((seed + i * 7) % 13) as f32 * scale - 1.5).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A GEMM split across any tile grid matches the single-tile
    /// reference result bit-for-bit.
    #[test]
    fn any_grid_matches_single_tile_bit_for_bit(
        m in 1usize..24,
        n in 1usize..6,
        k in 1usize..24,
        gk in 1usize..4,
        gm in 1usize..4,
        alpha_q in -4i32..5,
        beta_q in -2i32..3,
        trans_a in proptest::bool::ANY,
    ) {
        let case = GemmCase {
            m, n, k,
            alpha: alpha_q as f32 * 0.5,
            beta: beta_q as f32 * 0.5,
            trans_a,
            a: fill(m * k, 3, 0.25),
            b: fill(k * n, 11, 0.125),
            c: fill(m * n, 7, 0.5),
        };
        let base = AccelConfig::test_small();
        let (reference, ref_stats) = run_case(base, &case);
        let (sharded, stats) = run_case(base.with_grid(gk, gm), &case);
        prop_assert_eq!(&sharded, &reference);
        // The schedule changes; the physical work does not.
        prop_assert_eq!(stats.cell_writes, ref_stats.cell_writes);
        prop_assert_eq!(stats.rows_programmed, ref_stats.rows_programmed);
        prop_assert_eq!(stats.macs, ref_stats.macs);
        prop_assert!(stats.busy <= ref_stats.busy);
    }

    /// Wear (endurance) spreads across the grid: with enough tiles for
    /// the block grid, no tile is programmed twice, and the total write
    /// volume matches the single-tile run.
    #[test]
    fn wear_spreads_across_tiles(
        mb in 1usize..4,
        kb in 1usize..4,
    ) {
        // Exact multiples of the 8x8 tile: an mb x kb block grid.
        let (m, k, n) = (8 * mb, 8 * kb, 4);
        let case = GemmCase {
            m, n, k,
            alpha: 1.0,
            beta: 0.0,
            trans_a: false,
            a: fill(m * k, 5, 0.5),
            b: fill(k * n, 9, 0.25),
            c: vec![0.0; m * n],
        };
        let (_, single_stats) = run_case(AccelConfig::test_small(), &case);
        let cfg = AccelConfig::test_small().with_grid(kb, mb);
        let mut mach = Machine::new(MachineConfig::test_small());
        let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
        let alloc = |mach: &mut Machine, data: &[f32]| {
            let (_va, pa) = mach.alloc_cma((data.len() * 4) as u64).expect("cma");
            mach.mem.write_f32_run(pa, 4, data);
            pa
        };
        let a = alloc(&mut mach, &case.a);
        let b = alloc(&mut mach, &case.b);
        let c = alloc(&mut mach, &case.c);
        for (r, v) in [
            (Reg::M, m as u64), (Reg::N, n as u64), (Reg::K, k as u64),
            (Reg::Lda, k as u64), (Reg::Ldb, n as u64), (Reg::Ldc, n as u64),
            (Reg::AddrA, a), (Reg::AddrB, b), (Reg::AddrC, c),
            (Reg::Alpha, 1.0f32.to_bits() as u64),
            (Reg::Beta, 0.0f32.to_bits() as u64),
            (Reg::Command, Command::Gemm as u64),
        ] {
            acc.pmio_write(r, v);
        }
        acc.execute(&mut mach);
        prop_assert_eq!(acc.regs().status(), Status::Done);
        let wear = acc.tile_wear();
        prop_assert_eq!(wear.len(), kb * mb);
        let total: u64 = wear.iter().map(|w| w.cell_writes).sum();
        prop_assert_eq!(total, single_stats.cell_writes);
        for w in &wear {
            prop_assert_eq!(w.cell_writes, 64);
            prop_assert_eq!(w.max_cell_writes, 1);
        }
    }
}
