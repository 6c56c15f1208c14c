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

    /// Requires the `rows x cols` operand `name`, row-major with leading
    /// dimension `ld` from element `(row, col)` of `array`, to lie inside
    /// the array: the machine executor rejects an operand that overruns
    /// its buffer, and indexing past the array would panic here.
    fn check_operand(
        &self,
        name: &str,
        array: ArrayId,
        (row, col): (usize, usize),
        (rows, cols, ld): (usize, usize, usize),
    ) -> Result<(), InterpError> {
        let len = self.arrays[array.0].len();
        let start = row.checked_mul(ld).and_then(|s| s.checked_add(col));
        let end = if rows == 0 || cols == 0 {
            start.map(|_| 0)
        } else {
            start.and_then(|s| (rows - 1).checked_mul(ld)?.checked_add(cols)?.checked_add(s))
        };
        if end.is_some_and(|end| end <= len) {
            return Ok(());
        }
        Err(InterpError::Backend(format!(
            "operand {name} ({rows}x{cols}, ld {ld}) at ({row}, {col}) does not fit its \
             {len}-element array"
        )))
    }

    /// Checks the operands `(A, B, C)` of `C = alpha * op(A) * B + beta *
    /// C`, each taken from its `(row, col)` origin in `off`.
    fn check_gemm(
        &self,
        s: &GemmShape<f64>,
        (a, b, c): Operands,
        [a_off, b_off, c_off]: [(usize, usize); 3],
    ) -> Result<(), InterpError> {
        let (a_rows, a_cols) = if s.trans_a { (s.k, s.m) } else { (s.m, s.k) };
        self.check_operand("A", a, a_off, (a_rows, a_cols, s.lda))?;
        self.check_operand("B", b, b_off, (s.k, s.n, s.ldb))?;
        self.check_operand("C", c, c_off, (s.m, s.n, s.ldc))
    }

    /// `C = alpha * op(A) * B + beta * C` on operands that
    /// [`PureBackend::check_gemm`] accepted.
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

    fn conv(&mut self, c: &ConvCall) -> Result<(), InterpError> {
        if c.fh == 0 || c.fw == 0 || c.h < c.fh || c.w < c.fw {
            return Err(InterpError::Backend(format!(
                "filter {}x{} does not fit the {}x{} image",
                c.fh, c.fw, c.h, c.w
            )));
        }
        let (oh, ow) = (c.h - c.fh + 1, c.w - c.fw + 1);
        self.check_operand("image", c.img, (0, 0), (c.h, c.w, c.w))?;
        self.check_operand("filter", c.filt, (0, 0), (c.fh, c.fw, c.fw))?;
        self.check_operand("output", c.out, (0, 0), (oh, ow, ow))?;
        let img = self.arrays[c.img.0].clone();
        let filt = self.arrays[c.filt.0].clone();
        let out = &mut self.arrays[c.out.0];
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
        Ok(())
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
            ResolvedCall::Gemm(g) => {
                self.check_gemm(&g.shape, g.operands, g.origins)?;
                self.gemm(&g.shape, g.operands, g.origins);
            }
            ResolvedCall::Gemv(g) => {
                // The `n = 1` GEMM: the same products, summed in the same
                // order.
                let GemvCall { trans_a, m, k, alpha, a, lda, x, beta, y } = g;
                let shape = GemmShape { trans_a, m, n: 1, k, alpha, lda, ldb: 1, beta, ldc: 1 };
                self.check_gemm(&shape, (a, x, y), [(0, 0); 3])?;
                self.gemm(&shape, (a, x, y), [(0, 0); 3]);
            }
            ResolvedCall::Batched { shape, problems } => {
                // Every problem is checked before any runs: a rejected
                // call leaves every array untouched.
                for &operands in problems {
                    self.check_gemm(&shape, operands, [(0, 0); 3])?;
                }
                for &operands in problems {
                    self.gemm(&shape, operands, [(0, 0); 3]);
                }
            }
            ResolvedCall::Conv(c) => self.conv(&c)?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calls::{BatchedCall, CimCall, GemmCall, GemmExtent, GemvCall, TileView};
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

    /// Runs the call as the body of `p` on `be` and expects a backend
    /// error that leaves every array as it was.
    fn rejected(p: &Program, be: &mut PureBackend, call: CimCall) -> String {
        let before = be.clone().into_arrays();
        let p = Program { body: vec![Stmt::Call(call)], ..p.clone() };
        let err = run(&p, be).expect_err("call must be rejected");
        assert_eq!(be.clone().into_arrays(), before, "a rejected call wrote an array");
        match err {
            InterpError::Backend(msg) => msg,
            other => panic!("expected a backend error, got {other:?}"),
        }
    }

    /// An 8-row view of a 4x4 `A` is an error, not an index past `A`.
    #[test]
    fn gemm_view_past_its_operand_is_rejected() {
        let p = prog_with(&[("A", vec![4, 4]), ("B", vec![4, 4]), ("C", vec![8, 4])]);
        let mut be = PureBackend::for_program(&p);
        let int = Expr::Int;
        let view = TileView {
            m: int(8),
            n: int(4),
            k: int(4),
            a_off: (int(0), int(0)),
            b_off: (int(0), int(0)),
            c_off: (int(0), int(0)),
        };
        let gemm = GemmCall {
            trans_a: false,
            extent: GemmExtent::View(Box::new(view)),
            alpha: Expr::Float(1.0),
            a: A,
            lda: 4,
            b: B,
            ldb: 4,
            beta: Expr::Float(0.0),
            c: C,
            ldc: 4,
        };
        let msg = rejected(&p, &mut be, CimCall::Gemm(Box::new(gemm)));
        assert_eq!(msg, "operand A (8x4, ld 4) at (0, 0) does not fit its 16-element array");
    }

    /// GEMV, batched GEMM and conv operands that overrun their arrays
    /// are errors; a batch with one bad problem runs none of them.
    #[test]
    fn operands_past_their_arrays_are_rejected() {
        let p = prog_with(&[("A", vec![4, 4]), ("x", vec![4]), ("y", vec![4])]);
        let mut be = PureBackend::for_program(&p);
        be.set_array(A, &[1.0; 16]);
        be.set_array(B, &[1.0; 4]);
        let (alpha, beta) = (Expr::Float(1.0), Expr::Float(0.0));
        let gemv = GemvCall { trans_a: false, m: 8, k: 2, alpha, a: A, lda: 2, x: B, beta, y: C };
        let msg = rejected(&p, &mut be, CimCall::Gemv(Box::new(gemv)));
        assert!(msg.starts_with("operand C (8x1, ld 1)"), "{msg}");

        let (alpha, beta) = (Expr::Float(1.0), Expr::Float(0.0));
        let shape =
            GemmShape { trans_a: false, m: 4, n: 4, k: 4, alpha, lda: 4, ldb: 4, beta, ldc: 4 };
        let batched = BatchedCall { shape, problems: vec![(A, A, A), (A, A, B)] };
        let msg = rejected(&p, &mut be, CimCall::Batched(Box::new(batched)));
        assert!(msg.starts_with("operand C (4x4, ld 4)"), "{msg}");

        let conv = ConvCall { img: A, h: 4, w: 4, filt: B, fh: 2, fw: 2, out: C };
        let msg = rejected(&p, &mut be, CimCall::Conv(conv));
        assert!(msg.starts_with("operand output (3x3, ld 3)"), "{msg}");
        let conv = ConvCall { img: B, h: 2, w: 2, filt: A, fh: 4, fw: 4, out: C };
        let msg = rejected(&p, &mut be, CimCall::Conv(conv));
        assert_eq!(msg, "filter 4x4 does not fit the 2x2 image");
    }

    #[test]
    fn scalar_init_applies() {
        let mut p = Program::new("t");
        let s = p.add_scalar("alpha", Some(2.5));
        let b = PureBackend::for_program(&p);
        assert_eq!(b.array(s), &[2.5]);
    }
}
