//! Deterministic data initialization.
//!
//! PolyBench initializes arrays with index formulas; we use a variant
//! with *small integer* values so that every intermediate of every kernel
//! stays inside the exactly-representable f32 integer range at test
//! sizes. Host execution, CIM execution and the Rust
//! references then agree bit-for-bit, making end-to-end equivalence tests
//! sharp instead of tolerance-based.

use crate::Kernel;

/// Fills one array of a kernel with its deterministic initial contents.
/// Scalars (`alpha`, `beta`) keep their source-level initializers and are
/// left untouched.
pub fn init_array(kernel: Kernel, name: &str, data: &mut [f32]) {
    if data.len() == 1 && (name == "alpha" || name == "beta") {
        return;
    }
    // Outputs that the kernels zero themselves still get junk here; the
    // kernel's own init statements must win (and do — that is part of
    // what the equivalence tests check). Accumulator outputs (mvt x1/x2,
    // conv out, gemm C) get defined values.
    let seed = init_seed(kernel, name);
    for (i, v) in data.iter_mut().enumerate() {
        *v = init_value(seed, i);
    }
}

fn init_seed(kernel: Kernel, name: &str) -> u32 {
    name.bytes()
        .fold(kernel.name().len() as u32 + 1, |h, b| h.wrapping_mul(31).wrapping_add(b as u32))
}

/// The small-integer hash fill behind [`init_array`]: the value written
/// at flat index `flat` for a given array `seed`, always in `{-2..2}`.
/// Exported so other workload suites (e.g. the `workloads` crate's GEMM
/// chains) can share the exact recipe under their own seeding.
pub fn init_value(seed: u32, flat: usize) -> f32 {
    let h = seed.wrapping_add(flat as u32).wrapping_mul(2654435761);
    ((h >> 16) % 5) as f32 - 2.0 // values in {-2..2}
}

/// Fills one row-major *panel* of a larger `rows x cols` array with the
/// values [`init_array`] would put there — the streaming initializer for
/// [`crate::Dataset::XLarge`] operands, where the working set is staged
/// through tile-sized panels instead of materialized whole. `panel` is
/// `panel_rows x panel_cols` and covers the rectangle whose top-left
/// element is `(row0, col0)`.
///
/// Bit-for-bit identical to slicing the output of [`init_array`], which
/// the tests pin.
///
/// # Panics
///
/// Panics if the panel does not fit inside the `rows x cols` array or
/// `panel.len()` mismatches the panel shape.
#[allow(clippy::too_many_arguments)]
pub fn init_array_panel(
    kernel: Kernel,
    name: &str,
    rows: usize,
    cols: usize,
    row0: usize,
    col0: usize,
    panel_rows: usize,
    panel_cols: usize,
    panel: &mut [f32],
) {
    assert_eq!(panel.len(), panel_rows * panel_cols, "panel buffer shape mismatch");
    assert!(row0 + panel_rows <= rows, "panel exceeds array height");
    assert!(col0 + panel_cols <= cols, "panel exceeds array width");
    let seed = init_seed(kernel, name);
    for r in 0..panel_rows {
        for c in 0..panel_cols {
            panel[r * panel_cols + c] = init_value(seed, (row0 + r) * cols + (col0 + c));
        }
    }
}

/// An initializer closure for `tdo_cim`-style executors.
pub fn init_fn(kernel: Kernel) -> impl Fn(&str, &mut [f32]) {
    move |name, data| init_array(kernel, name, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_deterministic_and_bounded() {
        let mut a = vec![0f32; 64];
        let mut b = vec![0f32; 64];
        init_array(Kernel::Gemm, "A", &mut a);
        init_array(Kernel::Gemm, "A", &mut b);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-2.0..=2.0).contains(v) && v.fract() == 0.0));
        assert!(a.iter().any(|v| *v != 0.0));
    }

    #[test]
    fn different_arrays_differ() {
        let mut a = vec![0f32; 64];
        let mut b = vec![0f32; 64];
        init_array(Kernel::Gemm, "A", &mut a);
        init_array(Kernel::Gemm, "B", &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn panel_init_matches_whole_array_init() {
        let (rows, cols) = (12, 20);
        let mut whole = vec![0f32; rows * cols];
        init_array(Kernel::Gemm, "A", &mut whole);
        // Every aligned and ragged panel of a few shapes must reproduce
        // the corresponding slice of the whole-array fill exactly.
        for (row0, col0, pr, pc) in [(0, 0, 12, 20), (4, 8, 3, 5), (11, 19, 1, 1), (0, 16, 12, 4)] {
            let mut panel = vec![0f32; pr * pc];
            init_array_panel(Kernel::Gemm, "A", rows, cols, row0, col0, pr, pc, &mut panel);
            for r in 0..pr {
                for c in 0..pc {
                    let got = panel[r * pc + c];
                    let want = whole[(row0 + r) * cols + (col0 + c)];
                    assert_eq!(got.to_bits(), want.to_bits(), "({row0},{col0}) r={r} c={c}");
                }
            }
        }
    }

    #[test]
    fn scalars_keep_source_initializers() {
        let mut alpha = vec![2.0f32];
        init_array(Kernel::Gemm, "alpha", &mut alpha);
        assert_eq!(alpha, vec![2.0]);
    }
}
