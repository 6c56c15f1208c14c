//! Native oracles, independent of the compiler under test.

use workloads::ChainSpec;

/// Bit-for-bit equality (`-0.0 != 0.0`, NaN payloads compared).
pub fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits())
}

/// `C = beta * C + alpha * A * B` for `n x n` row-major operands, with
/// the per-element operation order of `polybench::gemm_panel_ref`
/// (`c *= beta`, then `c += alpha * a[i][k] * b[k][j]` for ascending
/// `k`), looped `i-k-j` so the inner loop streams rows of `B`.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], n: usize, alpha: f32, beta: f32) {
    for i in 0..n {
        let row = &mut c[i * n..(i + 1) * n];
        row.iter_mut().for_each(|v| *v *= beta);
        for k in 0..n {
            let aik = alpha * a[i * n + k];
            for (v, bkj) in row.iter_mut().zip(&b[k * n..(k + 1) * n]) {
                *v += aik * bkj;
            }
        }
    }
}

/// Every activation array `H{l}_{b}` of a chain, layer-major, computed
/// the way the interpreter evaluates the source: every `+` and `*`
/// rounded to `f32` on its own, heads summed left to right.
///
/// `input(name)` returns an input array (`X{b}` or a weight) by name.
pub fn chain(spec: &ChainSpec, input: impl Fn(&str) -> Vec<f32>) -> Vec<(String, Vec<f32>)> {
    let (r, d) = (spec.rows, spec.width);
    let s = spec.activation_scale();
    let mut cur: Vec<Vec<f32>> = (0..spec.batch).map(|b| input(&spec.input_name(b))).collect();
    let mut out = Vec::with_capacity(spec.layers * spec.batch);
    for l in 1..=spec.layers {
        let weights: Vec<Vec<f32>> =
            (0..spec.heads).map(|h| input(&spec.head_weight_name(l, h))).collect();
        let mut next = Vec::with_capacity(spec.batch);
        for (b, x) in cur.iter().enumerate() {
            let mut acc: Option<Vec<f32>> = None;
            for w in &weights {
                let mut p = vec![0f32; r * d];
                for i in 0..r {
                    for j in 0..d {
                        let mut v = 0f32;
                        for k in 0..d {
                            v += x[i * d + k] * w[k * d + j];
                        }
                        p[i * d + j] = v;
                    }
                }
                acc = Some(match acc {
                    None => p,
                    Some(sum) => sum.iter().zip(&p).map(|(a, b)| a + b).collect(),
                });
            }
            let h: Vec<f32> = acc.expect("at least one head").iter().map(|v| v * s).collect();
            out.push((spec.h_name(l, b), h.clone()));
            next.push(h);
        }
        cur = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_matches_the_polybench_reference() {
        let (kernel, dataset) = (polybench::Kernel::Gemm, polybench::Dataset::Mini);
        let n = dataset.base_size();
        let mat = |name: &str| {
            let mut m = vec![0f32; n * n];
            polybench::init_array(kernel, name, &mut m);
            m
        };
        let mut c = mat("C");
        gemm(&mat("A"), &mat("B"), &mut c, n, 2.0, 3.0);
        let want = polybench::reference_outputs(kernel, dataset);
        assert!(same_bits(&c, &want[0].1));
    }

    #[test]
    fn single_head_chain_matches_the_workload_reference() {
        let spec = ChainSpec { rows: 4, width: 8, batch: 2, layers: 3, heads: 1 };
        let input = |name: &str| {
            let len = if name.starts_with('X') { 4 * 8 } else { 8 * 8 };
            let mut m = vec![0f32; len];
            workloads::chain::init_array(name, &mut m);
            m
        };
        let ours = chain(&spec, input);
        let theirs = spec.reference_outputs();
        assert_eq!(ours.len(), theirs.len());
        for ((n1, a), (n2, b)) in ours.iter().zip(&theirs) {
            assert_eq!(n1, n2);
            assert!(same_bits(a, b), "{n1}");
        }
    }
}
