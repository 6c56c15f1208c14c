//! Inference-style GEMM chains: the first non-PolyBench workload.
//!
//! An MLP-style forward pass over a *batch* of independent requests:
//! each of `batch` micro-batches (`rows` samples of `width` features)
//! flows through `layers` fully-connected layers sharing per-layer
//! weights, with a host-side activation between layers. The workload is
//! emitted as ordinary mini-C — the transparency premise of the paper —
//! and the expected compiled shape is:
//!
//! * per layer, the `batch` same-shape GEMMs are adjacent and
//!   independent, so Loop Tactics *fuses* them into one
//!   `polly_cimBlasGemmBatched` call whose elements the engine schedules
//!   onto disjoint tile sub-grids concurrently (the PR 3 async path);
//! * the activation nests are pointwise host loops: they match no
//!   kernel shape, stay on the host, and separate the layers' fusion
//!   groups (they read and write every `H` array, so fusing across a
//!   layer boundary would be illegal anyway).
//!
//! The activation is a power-of-two rescale, `h = h * s` with
//! `s = 2^-ceil(log2(4*width))`: it keeps every intermediate bounded
//! (|h| <= 1 after each layer) no matter how deep the chain or how wide
//! the layer, so XLarge chains cannot overflow `f32`. A nonlinear
//! activation would change nothing structurally — any pointwise nest
//! separates the groups the same way.

use polybench::Dataset;

/// Shape of an inference chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    /// Samples per micro-batch (the GEMM `m` dimension).
    pub rows: usize,
    /// Feature width of every layer (the GEMM `n` and `k` dimensions).
    pub width: usize,
    /// Independent micro-batches per layer — the expected
    /// `polly_cimBlasGemmBatched` element count.
    pub batch: usize,
    /// Fully-connected layers, each followed by an activation.
    pub layers: usize,
    /// Projection heads per layer. `1` is the plain MLP. With more, each
    /// layer computes `heads` projections of the *same* input through
    /// per-head weights (the Q/K/V shape of attention) and the
    /// activation combines them — so within every `(layer, micro-batch)`
    /// the `heads` GEMMs share their stationary operand, the reuse the
    /// compiler's residency placement pins.
    pub heads: usize,
}

impl ChainSpec {
    /// The suite's default shape at a dataset size: square
    /// `base_size x base_size` layers, four micro-batches, three layers,
    /// single-headed.
    pub fn for_dataset(d: Dataset) -> ChainSpec {
        ChainSpec { rows: d.base_size(), width: d.base_size(), batch: 4, layers: 3, heads: 1 }
    }

    /// Returns the spec with `heads` projection heads per layer.
    pub fn with_heads(mut self, heads: usize) -> ChainSpec {
        self.heads = heads;
        self
    }

    /// The activation's power-of-two rescale factor (see module docs).
    /// The bound covers the head sum: `|H| <= 1` after each layer for
    /// any depth, width and head count.
    pub fn activation_scale(&self) -> f32 {
        let mut e = 0u32;
        while (1usize << e) < 4 * self.width * self.heads {
            e += 1;
        }
        (2.0f32).powi(-(e as i32))
    }

    /// Useful multiply-accumulates of the whole chain.
    pub fn macs(&self) -> u64 {
        (self.batch * self.layers * self.heads * self.rows * self.width * self.width) as u64
    }

    /// Array names: micro-batch inputs.
    pub fn input_name(&self, b: usize) -> String {
        format!("X{b}")
    }

    /// Array names: per-layer weights (layers are 1-based).
    pub fn weight_name(&self, l: usize) -> String {
        format!("W{l}")
    }

    /// Array names: per-layer, per-head weights (`W{l}` when
    /// single-headed, for source compatibility with the plain MLP).
    pub fn head_weight_name(&self, l: usize, h: usize) -> String {
        if self.heads == 1 {
            self.weight_name(l)
        } else {
            format!("W{l}_{h}")
        }
    }

    /// Array names: layer-`l` head-`h` projection of micro-batch `b`
    /// (multi-head chains only).
    pub fn p_name(&self, l: usize, b: usize, h: usize) -> String {
        format!("P{l}_{b}_{h}")
    }

    /// Array names: layer-`l` activations of micro-batch `b`.
    pub fn h_name(&self, l: usize, b: usize) -> String {
        format!("H{l}_{b}")
    }

    /// The final outputs (last layer's activations, one per micro-batch).
    pub fn output_names(&self) -> Vec<String> {
        (0..self.batch).map(|b| self.h_name(self.layers, b)).collect()
    }

    /// Emits the chain as mini-C source.
    ///
    /// # Panics
    ///
    /// Panics on degenerate shapes (any dimension zero).
    pub fn source(&self) -> String {
        assert!(
            self.rows > 0 && self.width > 0 && self.batch > 0 && self.layers > 0 && self.heads > 0,
            "degenerate chain {self:?}"
        );
        let (r, d) = (self.rows, self.width);
        let s = self.activation_scale();
        let mut src = String::new();
        src.push_str(&format!("const int R = {r}; const int D = {d};\n"));
        for b in 0..self.batch {
            src.push_str(&format!("float {}[R][D];\n", self.input_name(b)));
        }
        for l in 1..=self.layers {
            for h in 0..self.heads {
                src.push_str(&format!("float {}[D][D];\n", self.head_weight_name(l, h)));
            }
        }
        if self.heads > 1 {
            for l in 1..=self.layers {
                for b in 0..self.batch {
                    for h in 0..self.heads {
                        src.push_str(&format!("float {}[R][D];\n", self.p_name(l, b, h)));
                    }
                }
            }
        }
        for l in 1..=self.layers {
            for b in 0..self.batch {
                src.push_str(&format!("float {}[R][D];\n", self.h_name(l, b)));
            }
        }
        src.push_str("void kernel() {\n");
        for l in 1..=self.layers {
            if self.heads == 1 {
                // The plain MLP emission, byte-identical to the
                // single-headed suite of earlier revisions.
                let w = self.weight_name(l);
                for b in 0..self.batch {
                    let h = self.h_name(l, b);
                    let x = if l == 1 { self.input_name(b) } else { self.h_name(l - 1, b) };
                    src.push_str(&format!(
                        "  for (int i = 0; i < R; i++)\n    for (int j = 0; j < D; j++) {{\n      \
                         {h}[i][j] = 0.0;\n      for (int k = 0; k < D; k++)\n        \
                         {h}[i][j] += {x}[i][k] * {w}[k][j];\n    }}\n"
                    ));
                }
                for b in 0..self.batch {
                    let h = self.h_name(l, b);
                    src.push_str(&format!(
                        "  for (int i = 0; i < R; i++)\n    for (int j = 0; j < D; j++)\n      \
                         {h}[i][j] = {h}[i][j] * {s};\n"
                    ));
                }
            } else {
                // Multi-head projection: every head of a micro-batch
                // reads the same input through its own weights...
                for b in 0..self.batch {
                    let x = if l == 1 { self.input_name(b) } else { self.h_name(l - 1, b) };
                    for h in 0..self.heads {
                        let p = self.p_name(l, b, h);
                        let w = self.head_weight_name(l, h);
                        src.push_str(&format!(
                            "  for (int i = 0; i < R; i++)\n    for (int j = 0; j < D; j++) {{\n      \
                             {p}[i][j] = 0.0;\n      for (int k = 0; k < D; k++)\n        \
                             {p}[i][j] += {x}[i][k] * {w}[k][j];\n    }}\n"
                        ));
                    }
                }
                // ...and the host-side activation combines the heads.
                for b in 0..self.batch {
                    let h = self.h_name(l, b);
                    let sum = (0..self.heads)
                        .map(|hh| format!("{}[i][j]", self.p_name(l, b, hh)))
                        .collect::<Vec<_>>()
                        .join(" + ");
                    src.push_str(&format!(
                        "  for (int i = 0; i < R; i++)\n    for (int j = 0; j < D; j++)\n      \
                         {h}[i][j] = ({sum}) * {s};\n"
                    ));
                }
            }
        }
        src.push_str("}\n");
        src
    }

    /// Reference outputs: every `H` array in layer-major order, computed
    /// operation-for-operation like the source (same loop order, same
    /// `f32` rounding points), so equivalence tests can require bitwise
    /// equality against host and CIM execution.
    pub fn reference_outputs(&self) -> Vec<(String, Vec<f32>)> {
        let (r, d) = (self.rows, self.width);
        let s = self.activation_scale();
        let weights: Vec<Vec<Vec<f32>>> = (1..=self.layers)
            .map(|l| {
                (0..self.heads).map(|h| init_mat(&self.head_weight_name(l, h), d * d)).collect()
            })
            .collect();
        let mut cur: Vec<Vec<f32>> =
            (0..self.batch).map(|b| init_mat(&self.input_name(b), r * d)).collect();
        let mut out = Vec::new();
        for l in 1..=self.layers {
            let mut next = Vec::with_capacity(self.batch);
            for x in &cur {
                let heads: Vec<Vec<f32>> = weights[l - 1]
                    .iter()
                    .map(|w| {
                        let mut p = vec![0f32; r * d];
                        for i in 0..r {
                            for j in 0..d {
                                for k in 0..d {
                                    p[i * d + j] += x[i * d + k] * w[k * d + j];
                                }
                            }
                        }
                        p
                    })
                    .collect();
                // The combine mirrors the emitted expression exactly: a
                // lone `h * s` for the plain MLP, `(h0 + h1 + ...) * s`
                // for multi-head layers — summed left to right, every
                // `+` and `*` rounded to f32 on its own like the
                // interpreter evaluates it.
                let h: Vec<f32> = (0..r * d)
                    .map(|idx| heads[1..].iter().fold(heads[0][idx], |acc, p| acc + p[idx]) * s)
                    .collect();
                next.push(h);
            }
            for (b, h) in next.iter().enumerate() {
                out.push((self.h_name(l, b), h.clone()));
            }
            cur = next;
        }
        out
    }
}

/// Deterministic initial contents of a chain array: small integers in
/// `{-2..2}` via the shared [`polybench::init_value`] hash fill (under
/// this suite's own name seeding), so first-layer intermediates stay
/// exactly representable. `H` arrays are zeroed by the kernel itself;
/// their initial junk must not survive — which the equivalence tests
/// check.
pub fn init_array(name: &str, data: &mut [f32]) {
    let seed = name.bytes().fold(7u32, |h, b| h.wrapping_mul(31).wrapping_add(b as u32));
    for (i, v) in data.iter_mut().enumerate() {
        *v = polybench::init_value(seed, i);
    }
}

/// An initializer closure for `tdo_cim`-style executors.
pub fn init_fn() -> impl Fn(&str, &mut [f32]) {
    |name, data| init_array(name, data)
}

fn init_mat(name: &str, len: usize) -> Vec<f32> {
    let mut data = vec![0f32; len];
    init_array(name, &mut data);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_structure() {
        let spec = ChainSpec { rows: 4, width: 4, batch: 2, layers: 2, heads: 1 };
        let src = spec.source();
        assert!(src.contains("const int R = 4; const int D = 4;"));
        assert!(src.contains("H1_0[i][j] += X0[i][k] * W1[k][j];"), "{src}");
        assert!(src.contains("H2_1[i][j] += H1_1[i][k] * W2[k][j];"), "{src}");
        // Activation scale for width 4: 2^-4 = 0.0625.
        assert!(src.contains("H1_0[i][j] = H1_0[i][j] * 0.0625;"), "{src}");
        assert_eq!(spec.macs(), 2 * 2 * 4 * 4 * 4);
        assert_eq!(spec.output_names(), vec!["H2_0", "H2_1"]);
    }

    #[test]
    fn sources_compile_across_shapes() {
        for spec in [
            ChainSpec { rows: 3, width: 5, batch: 1, layers: 1, heads: 1 },
            ChainSpec { rows: 8, width: 8, batch: 3, layers: 2, heads: 1 },
            ChainSpec { rows: 4, width: 6, batch: 2, layers: 2, heads: 3 },
            ChainSpec::for_dataset(Dataset::Mini),
            ChainSpec::for_dataset(Dataset::Mini).with_heads(2),
        ] {
            tdo_lang::compile(&spec.source())
                .unwrap_or_else(|e| panic!("{spec:?} does not compile: {e}"));
        }
    }

    #[test]
    fn multi_head_source_structure() {
        let spec = ChainSpec { rows: 4, width: 4, batch: 2, layers: 2, heads: 3 };
        let src = spec.source();
        // Heads of one micro-batch share the input through per-head
        // weights...
        assert!(src.contains("P1_0_0[i][j] += X0[i][k] * W1_0[k][j];"), "{src}");
        assert!(src.contains("P1_0_2[i][j] += X0[i][k] * W1_2[k][j];"), "{src}");
        // ...layer 2 consumes the combined activation...
        assert!(src.contains("P2_1_0[i][j] += H1_1[i][k] * W2_0[k][j];"), "{src}");
        // ...and the combine sums the heads before rescaling. Scale for
        // width 4, 3 heads: 2^-ceil(log2(48)) = 2^-6.
        assert!(
            src.contains("H1_0[i][j] = (P1_0_0[i][j] + P1_0_1[i][j] + P1_0_2[i][j]) * 0.015625;"),
            "{src}"
        );
        assert_eq!(spec.macs(), 2 * 2 * 3 * 4 * 4 * 4);
    }

    #[test]
    fn multi_head_reference_is_bounded() {
        let spec = ChainSpec { rows: 5, width: 16, batch: 2, layers: 3, heads: 4 };
        let outs = spec.reference_outputs();
        assert_eq!(outs.len(), spec.layers * spec.batch);
        for (name, data) in &outs {
            assert!(data.iter().any(|v| *v != 0.0), "{name} identically zero");
            assert!(data.iter().all(|v| v.abs() <= 1.0), "{name} exceeds the activation bound");
        }
    }

    #[test]
    fn reference_is_bounded_and_non_trivial() {
        // The power-of-two activation must keep every layer's outputs in
        // [-1, 1] regardless of depth — the no-overflow invariant that
        // makes XLarge chains safe.
        let spec = ChainSpec { rows: 6, width: 32, batch: 2, layers: 5, heads: 1 };
        let outs = spec.reference_outputs();
        assert_eq!(outs.len(), spec.layers * spec.batch);
        for (name, data) in &outs {
            assert!(data.iter().any(|v| *v != 0.0), "{name} identically zero");
            assert!(data.iter().all(|v| v.abs() <= 1.0), "{name} exceeds the activation bound");
        }
    }

    #[test]
    fn activation_scale_is_a_power_of_two() {
        for width in [1, 3, 16, 64, 100, 1024] {
            let s = ChainSpec { rows: 1, width, batch: 1, layers: 1, heads: 1 }.activation_scale();
            assert!(s > 0.0 && s.log2().fract() == 0.0, "width {width}: scale {s}");
            assert!(s * (4 * width) as f32 <= 1.0 + f32::EPSILON);
        }
    }
}
