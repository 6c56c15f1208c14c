//! Pure (uncosted) backend: reference semantics for programs, including
//! the functional meaning of every `polly_cim*` runtime call.
//!
//! Transformation correctness tests run a program before and after a
//! rewrite on this backend and require identical array contents: the
//! rewritten program's accelerator calls must compute exactly what the
//! loops they replaced computed.

use super::{Backend, InterpError};
use crate::calls::{ConvCall, GemmShape, GemvCall, Operands, ResolvedCall};
use crate::types::{ArrayId, Program};

/// Reference storage backend.
#[derive(Debug, Clone)]
pub struct PureBackend {
    arrays: Vec<Vec<f32>>,
}

impl PureBackend {
    /// Allocates zeroed storage for every array of `prog`, applying scalar
    /// initializers.
    pub fn for_program(prog: &Program) -> Self {
        let arrays = prog
            .arrays
            .iter()
            .map(|d| {
                let mut v = vec![0f32; d.elem_count()];
                if let Some(init) = d.scalar_init {
                    v[0] = init as f32;
                }
                v
            })
            .collect();
        PureBackend { arrays }
    }

    /// Contents of an array.
    pub fn array(&self, id: ArrayId) -> &[f32] {
        &self.arrays[id.0]
    }

    /// Overwrites an array's contents (harness initialization).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the declared element count.
    pub fn set_array(&mut self, id: ArrayId, data: &[f32]) {
        assert_eq!(self.arrays[id.0].len(), data.len(), "array size mismatch");
        self.arrays[id.0].copy_from_slice(data);
    }

    /// All arrays, in declaration order (for whole-state comparisons).
    pub fn into_arrays(self) -> Vec<Vec<f32>> {
        self.arrays
    }

    /// `C = alpha * op(A) * B + beta * C` on the operands `(A, B, C)`,
    /// each taken from its `(row, col)` origin in `off`.
    fn gemm(&mut self, s: &GemmShape<f64>, (a, b, c): Operands, off: [(usize, usize); 3]) {
        let a = self.arrays[a.0].clone();
        let b = self.arrays[b.0].clone();
        let c = &mut self.arrays[c.0];
        let [a_off, b_off, c_off] = off;
        let at = |i: usize, kk: usize| -> f32 {
            if s.trans_a {
                a[(a_off.0 + kk) * s.lda + a_off.1 + i]
            } else {
                a[(a_off.0 + i) * s.lda + a_off.1 + kk]
            }
        };
        for i in 0..s.m {
            for j in 0..s.n {
                let mut acc = 0f32;
                for kk in 0..s.k {
                    acc += at(i, kk) * b[(b_off.0 + kk) * s.ldb + b_off.1 + j];
                }
                let ci = (c_off.0 + i) * s.ldc + c_off.1 + j;
                let old = c[ci];
                c[ci] = s.alpha as f32 * acc + s.beta as f32 * old;
            }
        }
    }

    fn conv(&mut self, c: &ConvCall) {
        let img = self.arrays[c.img.0].clone();
        let filt = self.arrays[c.filt.0].clone();
        let out = &mut self.arrays[c.out.0];
        let (oh, ow) = (c.h - c.fh + 1, c.w - c.fw + 1);
        for oi in 0..oh {
            for oj in 0..ow {
                let mut acc = 0f32;
                for fr in 0..c.fh {
                    for fc in 0..c.fw {
                        acc += filt[fr * c.fw + fc] * img[(oi + fr) * c.w + oj + fc];
                    }
                }
                // The matched source is a reduction (`out[i][j] += ...`):
                // accumulate into the existing output.
                out[oi * ow + oj] += acc;
            }
        }
    }
}

impl Backend for PureBackend {
    fn load(&mut self, array: ArrayId, flat: usize) -> f32 {
        self.arrays[array.0][flat]
    }

    fn store(&mut self, array: ArrayId, flat: usize, v: f32) {
        self.arrays[array.0][flat] = v;
    }

    fn call(&mut self, call: &ResolvedCall<'_>) -> Result<(), InterpError> {
        match *call {
            // Single storage: data movement is a no-op.
            ResolvedCall::Init(_)
            | ResolvedCall::Malloc(_)
            | ResolvedCall::HostToDev(_)
            | ResolvedCall::DevToHost(_)
            | ResolvedCall::Pin(_) => {}
            ResolvedCall::Gemm(g) => self.gemm(&g.shape, g.operands, g.origins),
            ResolvedCall::Gemv(g) => {
                // The `n = 1` GEMM: the same products, summed in the same
                // order.
                let GemvCall { trans_a, m, k, alpha, a, lda, x, beta, y } = g;
                let shape = GemmShape { trans_a, m, n: 1, k, alpha, lda, ldb: 1, beta, ldc: 1 };
                self.gemm(&shape, (a, x, y), [(0, 0); 3]);
            }
            ResolvedCall::Batched { shape, problems } => {
                for &operands in problems {
                    self.gemm(&shape, operands, [(0, 0); 3]);
                }
            }
            ResolvedCall::Conv(c) => self.conv(&c),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calls::{CimCall, GemmCall, GemmExtent, GemvCall};
    use crate::expr::Expr;
    use crate::interp::run;
    use crate::stmt::Stmt;

    const A: ArrayId = ArrayId(0);
    const B: ArrayId = ArrayId(1);
    const C: ArrayId = ArrayId(2);

    fn prog_with(names: &[(&str, Vec<usize>)]) -> Program {
        let mut p = Program::new("t");
        for (n, d) in names {
            p.add_array(*n, d.clone());
        }
        p
    }

    /// Runs the calls as the body of `p` on `be`.
    fn exec(p: &Program, be: &mut PureBackend, calls: Vec<CimCall>) {
        let p = Program { body: calls.into_iter().map(Stmt::Call).collect(), ..p.clone() };
        run(&p, be).expect("calls run");
    }

    #[test]
    fn gemm_call_semantics() {
        let p = prog_with(&[("A", vec![2, 2]), ("B", vec![2, 2]), ("C", vec![2, 2])]);
        let mut be = PureBackend::for_program(&p);
        be.set_array(A, &[1.0, 2.0, 3.0, 4.0]);
        be.set_array(B, &[5.0, 6.0, 7.0, 8.0]);
        let (extent, alpha, beta) =
            (GemmExtent::Whole { m: 2, n: 2, k: 2 }, Expr::Float(1.0), Expr::Float(0.0));
        let gemm = GemmCall {
            trans_a: false,
            extent,
            alpha,
            a: A,
            lda: 2,
            b: B,
            ldb: 2,
            beta,
            c: C,
            ldc: 2,
        };
        exec(&p, &mut be, vec![CimCall::Gemm(Box::new(gemm))]);
        assert_eq!(be.array(C), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transposed_gemv_semantics() {
        let p = prog_with(&[("A", vec![2, 2]), ("x", vec![2]), ("y", vec![2])]);
        let mut be = PureBackend::for_program(&p);
        be.set_array(A, &[1.0, 2.0, 3.0, 4.0]);
        be.set_array(B, &[1.0, 1.0]);
        let (alpha, beta) = (Expr::Float(1.0), Expr::Float(0.0));
        let gemv = GemvCall { trans_a: true, m: 2, k: 2, alpha, a: A, lda: 2, x: B, beta, y: C };
        exec(&p, &mut be, vec![CimCall::Gemv(Box::new(gemv))]);
        assert_eq!(be.array(C), &[4.0, 6.0]); // A^T x
    }

    #[test]
    fn conv_call_semantics() {
        let p = prog_with(&[("img", vec![3, 3]), ("f", vec![2, 2]), ("out", vec![2, 2])]);
        let mut be = PureBackend::for_program(&p);
        be.set_array(A, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        be.set_array(B, &[1.0, 0.0, 0.0, 1.0]);
        let conv = ConvCall { img: A, h: 3, w: 3, filt: B, fh: 2, fw: 2, out: C };
        exec(&p, &mut be, vec![CimCall::Conv(conv)]);
        assert_eq!(be.array(C), &[6.0, 8.0, 12.0, 14.0]); // img[i][j]+img[i+1][j+1]
    }

    #[test]
    fn memory_management_calls_are_noops() {
        let p = prog_with(&[("A", vec![2])]);
        let mut be = PureBackend::for_program(&p);
        be.set_array(A, &[1.0, 2.0]);
        let moves =
            [CimCall::Malloc(A), CimCall::HostToDev(A), CimCall::DevToHost(A), CimCall::Pin(A)];
        exec(&p, &mut be, moves.into_iter().chain([CimCall::Init(0)]).collect());
        assert_eq!(be.array(A), &[1.0, 2.0]);
    }

    #[test]
    fn scalar_init_applies() {
        let mut p = Program::new("t");
        let s = p.add_scalar("alpha", Some(2.5));
        let b = PureBackend::for_program(&p);
        assert_eq!(b.array(s), &[2.5]);
    }
}
