//! Pure-Rust reference implementations of the kernels.
//!
//! Each function mirrors the mini-C source *operation for operation*
//! (same loop order, same f32 rounding points), so the validation tests
//! can require bitwise equality against both host execution and
//! CIM execution.

use crate::init::init_array;
use crate::{Dataset, Kernel};

/// Computed output arrays of one kernel, by name.
pub fn reference_outputs(kernel: Kernel, dataset: Dataset) -> Vec<(String, Vec<f32>)> {
    let n = dataset.base_size();
    match kernel {
        Kernel::Gemm => {
            let a = mat(kernel, "A", n, n);
            let b = mat(kernel, "B", n, n);
            let mut c = mat(kernel, "C", n, n);
            gemm_ref(&a, &b, &mut c, n, 2.0, 3.0);
            vec![("C".into(), c)]
        }
        Kernel::TwoMm => {
            let a = mat(kernel, "A", n, n);
            let b = mat(kernel, "B", n, n);
            let c = mat(kernel, "C", n, n);
            let mut d = mat(kernel, "D", n, n);
            let mut tmp = mat(kernel, "tmp", n, n);
            for v in tmp.iter_mut() {
                *v = 0.0;
            }
            gemm_ref(&a, &b, &mut tmp, n, 2.0, 0.0);
            gemm_ref(&tmp, &c, &mut d, n, 1.0, 3.0);
            vec![("tmp".into(), tmp), ("D".into(), d)]
        }
        Kernel::ThreeMm => {
            let a = mat(kernel, "A", n, n);
            let b = mat(kernel, "B", n, n);
            let c = mat(kernel, "C", n, n);
            let d = mat(kernel, "D", n, n);
            let mut e = vec![0f32; n * n];
            let mut f = vec![0f32; n * n];
            let mut g = vec![0f32; n * n];
            gemm_ref(&a, &b, &mut e, n, 1.0, 0.0);
            gemm_ref(&c, &d, &mut f, n, 1.0, 0.0);
            gemm_ref(&e, &f, &mut g, n, 1.0, 0.0);
            vec![("E".into(), e), ("F".into(), f), ("G".into(), g)]
        }
        Kernel::Conv => {
            let img = mat(kernel, "img", n, n);
            let f = mat(kernel, "f", 3, 3);
            let on = n - 2;
            let mut out = mat(kernel, "out", on, on);
            for i in 0..on {
                for j in 0..on {
                    for r in 0..3 {
                        for s in 0..3 {
                            out[i * on + j] += f[r * 3 + s] * img[(i + r) * n + j + s];
                        }
                    }
                }
            }
            vec![("out".into(), out)]
        }
        Kernel::Gesummv => {
            let a = mat(kernel, "A", n, n);
            let b = mat(kernel, "B", n, n);
            let x = mat(kernel, "x", n, 1);
            let mut tmp = vec![0f32; n];
            let mut w = vec![0f32; n];
            let mut y = mat(kernel, "y", n, 1);
            gemv_ref(&a, &x, &mut tmp, n, false);
            gemv_ref(&b, &x, &mut w, n, false);
            for i in 0..n {
                y[i] = 2.0 * tmp[i] + 3.0 * w[i];
            }
            vec![("tmp".into(), tmp), ("w".into(), w), ("y".into(), y)]
        }
        Kernel::Bicg => {
            let a = mat(kernel, "A", n, n);
            let p = mat(kernel, "p", n, 1);
            let r = mat(kernel, "r", n, 1);
            let mut q = vec![0f32; n];
            let mut s = vec![0f32; n];
            gemv_ref(&a, &p, &mut q, n, false);
            gemv_ref(&a, &r, &mut s, n, true);
            vec![("q".into(), q), ("s".into(), s)]
        }
        Kernel::Atax => {
            let a = mat(kernel, "A", n, n);
            let x = mat(kernel, "x", n, 1);
            let mut tmp = vec![0f32; n];
            let mut y = vec![0f32; n];
            gemv_ref(&a, &x, &mut tmp, n, false);
            gemv_ref(&a, &tmp, &mut y, n, true);
            vec![("tmp".into(), tmp), ("y".into(), y)]
        }
        Kernel::Mvt => {
            let a = mat(kernel, "A", n, n);
            let y1 = mat(kernel, "y1", n, 1);
            let y2 = mat(kernel, "y2", n, 1);
            let mut x1 = mat(kernel, "x1", n, 1);
            let mut x2 = mat(kernel, "x2", n, 1);
            for i in 0..n {
                for j in 0..n {
                    x1[i] += a[i * n + j] * y1[j];
                }
            }
            for i in 0..n {
                for j in 0..n {
                    x2[i] += a[j * n + i] * y2[j];
                }
            }
            vec![("x1".into(), x1), ("x2".into(), x2)]
        }
    }
}

fn mat(kernel: Kernel, name: &str, rows: usize, cols: usize) -> Vec<f32> {
    let mut data = vec![0f32; rows * cols];
    init_array(kernel, name, &mut data);
    data
}

/// `C = alpha*A*B + beta*C`, mirroring the source's evaluation order:
/// scale first, then accumulate `alpha * A[i][k] * B[k][j]` per `k`.
fn gemm_ref(a: &[f32], b: &[f32], c: &mut [f32], n: usize, alpha: f32, beta: f32) {
    for i in 0..n {
        for j in 0..n {
            c[i * n + j] *= beta;
            for k in 0..n {
                c[i * n + j] += alpha * a[i * n + k] * b[k * n + j];
            }
        }
    }
}

/// Row-panel reference for the streamed GEMM path: computes only
/// `C[row0 .. row0+panel_rows][*]` of the `gemm` kernel
/// (`C = beta*C + alpha*A*B`), reading the matching `A` row panel.
/// `a_panel` is `panel_rows x n` (the panel a streaming executor would
/// stage), `b` is the full `n x n` operand, and `c_panel` holds the
/// panel's rows of `C` on entry and exit.
///
/// Accumulation order per element is identical to [`reference_outputs`]'s
/// whole-array `gemm`, so a streamed run that concatenates panel results
/// is bit-for-bit equal to the unstreamed reference — the invariant the
/// `Dataset::XLarge` streaming tests pin at Mini scale.
pub fn gemm_panel_ref(
    a_panel: &[f32],
    b: &[f32],
    c_panel: &mut [f32],
    n: usize,
    alpha: f32,
    beta: f32,
) {
    let rows = c_panel.len() / n;
    assert_eq!(a_panel.len(), rows * n, "A panel must match the C panel's rows");
    for i in 0..rows {
        for j in 0..n {
            c_panel[i * n + j] *= beta;
            for k in 0..n {
                c_panel[i * n + j] += alpha * a_panel[i * n + k] * b[k * n + j];
            }
        }
    }
}

/// `y += op(A) * x` with `y` pre-zeroed by the caller, source order.
fn gemv_ref(a: &[f32], x: &[f32], y: &mut [f32], n: usize, trans: bool) {
    if trans {
        // for j { s[j] = 0; for i s[j] += r[i]*A[i][j] } shape.
        for j in 0..n {
            for i in 0..n {
                y[j] += x[i] * a[i * n + j];
            }
        }
    } else {
        for i in 0..n {
            for j in 0..n {
                y[i] += a[i * n + j] * x[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_non_trivial() {
        for k in Kernel::ALL_EXTENDED {
            let outs = reference_outputs(k, Dataset::Mini);
            assert!(!outs.is_empty(), "{}", k.name());
            for (name, data) in outs {
                assert!(data.iter().any(|v| *v != 0.0), "{}::{name} is identically zero", k.name());
                assert!(data.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn gemm_reference_hand_check() {
        // 1x1 check through the public path is awkward; verify the helper.
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![1.0, 0.0, 0.0, 1.0];
        let mut c = vec![1.0, 1.0, 1.0, 1.0];
        gemm_ref(&a, &b, &mut c, 2, 2.0, 3.0);
        assert_eq!(c, vec![2.0 + 3.0, 4.0 + 3.0, 6.0 + 3.0, 8.0 + 3.0]);
    }

    #[test]
    fn panel_reference_streams_bit_for_bit() {
        use crate::init::init_array_panel;
        // Unstreamed reference at Mini...
        let outs = reference_outputs(Kernel::Gemm, Dataset::Mini);
        let (_, whole) = &outs[0];
        // ...vs panel-by-panel streaming with a ragged panel height.
        let n = Dataset::Mini.base_size();
        let b = mat(Kernel::Gemm, "B", n, n);
        let mut streamed = vec![0f32; n * n];
        let panel_rows = 5; // does not divide 16: exercises the tail panel
        let mut row0 = 0;
        while row0 < n {
            let pr = panel_rows.min(n - row0);
            let mut a_panel = vec![0f32; pr * n];
            init_array_panel(Kernel::Gemm, "A", n, n, row0, 0, pr, n, &mut a_panel);
            let c_panel = &mut streamed[row0 * n..(row0 + pr) * n];
            init_array_panel(Kernel::Gemm, "C", n, n, row0, 0, pr, n, c_panel);
            gemm_panel_ref(&a_panel, &b, c_panel, n, 2.0, 3.0);
            row0 += pr;
        }
        let whole_bits: Vec<u32> = whole.iter().map(|v| v.to_bits()).collect();
        let streamed_bits: Vec<u32> = streamed.iter().map(|v| v.to_bits()).collect();
        assert_eq!(whole_bits, streamed_bits);
    }

    #[test]
    fn transposed_gemv_reference() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let x = vec![1.0, 1.0];
        let mut y = vec![0.0, 0.0];
        gemv_ref(&a, &x, &mut y, 2, true);
        assert_eq!(y, vec![4.0, 6.0]);
    }
}
