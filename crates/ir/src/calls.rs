//! The `polly_cim*` runtime calls, typed.
//!
//! Loop Tactics replaces each matched kernel with these calls, carrying
//! "Blas parameters (i.e., values of alpha or leading dimensions)
//! automatically collected or computed" (Listing 1). A field is an
//! [`Expr`] only where the host computes the value at the call: the
//! scales `alpha` and `beta`, and a view call's extents and origins.
//! Everything else is fixed at compile time.
//!
//! The C argument order lives here alone, in [`CimCall::callee`] and
//! [`CimCall::args`]; the printer, the verifier and the offload graph's
//! footprint walk read it. The interpreter evaluates a call's `Expr`
//! fields into a [`ResolvedCall`], which its backend executes.

use crate::expr::Expr;
use crate::interp::{InterpError, Value};
use crate::types::ArrayId;

/// A call to the CIM runtime library (inserted by Loop Tactics; the
/// front end never produces one).
#[derive(Debug, Clone, PartialEq)]
pub enum CimCall {
    /// `polly_cimInit(device)`.
    Init(u32),
    /// `polly_cimMalloc(array)`.
    Malloc(ArrayId),
    /// `polly_cimHostToDev(array)`.
    HostToDev(ArrayId),
    /// `polly_cimDevToHost(array)`.
    DevToHost(ArrayId),
    /// `polly_cimPin(array)`: residency-placement hint — the array's
    /// contents are stable across the upcoming kernels, so the runtime
    /// may keep it installed on its tiles between calls.
    Pin(ArrayId),
    /// `polly_cimBlasSGemm(...)`, or `polly_cimBlasSGemmView(...)` for a
    /// compiler-made tile.
    Gemm(Box<GemmCall>),
    /// `polly_cimBlasSGemv(...)`.
    Gemv(Box<GemvCall>),
    /// `polly_cimBlasGemmBatched(...)`.
    Batched(Box<BatchedCall>),
    /// `polly_cimConv2d(...)`.
    Conv(ConvCall),
}

/// `C = alpha * op(A) * B + beta * C`. The device never transposes `B`,
/// so the call's `trans_b` argument is always 0.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmCall {
    /// Transpose `A`.
    pub trans_a: bool,
    /// Extents, and a view's origins.
    pub extent: GemmExtent,
    /// Product scale.
    pub alpha: Expr,
    /// Left operand.
    pub a: ArrayId,
    /// Leading dimension of `A`.
    pub lda: usize,
    /// Right operand.
    pub b: ArrayId,
    /// Leading dimension of `B`.
    pub ldb: usize,
    /// Accumulator scale.
    pub beta: Expr,
    /// Result operand.
    pub c: ArrayId,
    /// Leading dimension of `C`.
    pub ldc: usize,
}

/// What a [`GemmCall`] covers.
#[derive(Debug, Clone, PartialEq)]
pub enum GemmExtent {
    /// `polly_cimBlasSGemm`: whole operands; `C` is `m x n` and the
    /// reduction runs over `k`.
    Whole { m: usize, n: usize, k: usize },
    /// `polly_cimBlasSGemmView` (Listing 3): one tile of a
    /// compiler-tiled GEMM.
    View(Box<TileView>),
}

/// The tile a `polly_cimBlasSGemmView` call covers: extents and origins
/// the host computes from the tile variables at the call.
#[derive(Debug, Clone, PartialEq)]
pub struct TileView {
    /// Result rows of the tile.
    pub m: Expr,
    /// Result columns of the tile.
    pub n: Expr,
    /// Reduction extent of the tile.
    pub k: Expr,
    /// `(row, col)` origin into `A`.
    pub a_off: (Expr, Expr),
    /// `(row, col)` origin into `B`.
    pub b_off: (Expr, Expr),
    /// `(row, col)` origin into `C`.
    pub c_off: (Expr, Expr),
}

/// `y = alpha * op(A) * x + beta * y`. The scales are `S`: an [`Expr`]
/// in the IR, `f64` once resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemvCall<S = Expr> {
    /// Transpose `A`.
    pub trans_a: bool,
    /// Output length.
    pub m: usize,
    /// Input length.
    pub k: usize,
    /// Product scale.
    pub alpha: S,
    /// Matrix operand.
    pub a: ArrayId,
    /// Leading dimension of `A`.
    pub lda: usize,
    /// Input vector.
    pub x: ArrayId,
    /// Accumulator scale.
    pub beta: S,
    /// Output vector.
    pub y: ArrayId,
}

/// Independent GEMMs of one shape and one pair of scales, issued as one
/// call (Listing 2).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedCall {
    /// Shape and scales every problem shares.
    pub shape: GemmShape,
    /// Per-problem operands.
    pub problems: Vec<Operands>,
}

/// Shape and scales of a GEMM on whole operands. The scales are `S`: an
/// [`Expr`] in the IR, `f64` once resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmShape<S = Expr> {
    /// Transpose `A`.
    pub trans_a: bool,
    /// Result rows.
    pub m: usize,
    /// Result columns.
    pub n: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Product scale.
    pub alpha: S,
    /// Leading dimension of `A`.
    pub lda: usize,
    /// Leading dimension of `B`.
    pub ldb: usize,
    /// Accumulator scale.
    pub beta: S,
    /// Leading dimension of `C`.
    pub ldc: usize,
}

/// The `(A, B, C)` operands of one GEMM.
pub type Operands = (ArrayId, ArrayId, ArrayId);

/// A valid-padding 2-D convolution that accumulates into `out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvCall {
    /// Input image.
    pub img: ArrayId,
    /// Image height.
    pub h: usize,
    /// Image width.
    pub w: usize,
    /// Filter.
    pub filt: ArrayId,
    /// Filter height.
    pub fh: usize,
    /// Filter width.
    pub fw: usize,
    /// Output image.
    pub out: ArrayId,
}

/// One C argument of a runtime call, as [`CimCall::args`] lists them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg<'a> {
    /// A value the host computes at the call.
    Expr(&'a Expr),
    /// A value fixed at compile time: a device, flag, count or dimension.
    Int(usize),
    /// An array handle (rendered as `cim_<name>`).
    Array(ArrayId),
}

impl CimCall {
    /// The C symbol of the call.
    pub fn callee(&self) -> &'static str {
        match self {
            CimCall::Init(_) => "polly_cimInit",
            CimCall::Malloc(_) => "polly_cimMalloc",
            CimCall::HostToDev(_) => "polly_cimHostToDev",
            CimCall::DevToHost(_) => "polly_cimDevToHost",
            CimCall::Pin(_) => "polly_cimPin",
            CimCall::Gemm(g) => match g.extent {
                GemmExtent::Whole { .. } => "polly_cimBlasSGemm",
                GemmExtent::View(_) => "polly_cimBlasSGemmView",
            },
            CimCall::Gemv(_) => "polly_cimBlasSGemv",
            CimCall::Batched(_) => "polly_cimBlasGemmBatched",
            CimCall::Conv(_) => "polly_cimConv2d",
        }
    }

    /// The C arguments of the call, in order.
    pub fn args(&self) -> Vec<Arg<'_>> {
        use Arg::{Array, Expr as E, Int};
        let flag = |b: bool| Int(usize::from(b));
        match self {
            CimCall::Init(device) => vec![Int(*device as usize)],
            CimCall::Malloc(a)
            | CimCall::HostToDev(a)
            | CimCall::DevToHost(a)
            | CimCall::Pin(a) => vec![Array(*a)],
            CimCall::Gemm(g) => {
                let mut args = vec![flag(g.trans_a), Int(0)];
                match &g.extent {
                    GemmExtent::Whole { m, n, k } => args.extend([
                        Int(*m),
                        Int(*n),
                        Int(*k),
                        E(&g.alpha),
                        Array(g.a),
                        Int(g.lda),
                        Array(g.b),
                        Int(g.ldb),
                        E(&g.beta),
                        Array(g.c),
                        Int(g.ldc),
                    ]),
                    GemmExtent::View(v) => args.extend([
                        E(&v.m),
                        E(&v.n),
                        E(&v.k),
                        E(&g.alpha),
                        Array(g.a),
                        Int(g.lda),
                        E(&v.a_off.0),
                        E(&v.a_off.1),
                        Array(g.b),
                        Int(g.ldb),
                        E(&v.b_off.0),
                        E(&v.b_off.1),
                        E(&g.beta),
                        Array(g.c),
                        Int(g.ldc),
                        E(&v.c_off.0),
                        E(&v.c_off.1),
                    ]),
                }
                args
            }
            CimCall::Gemv(g) => vec![
                flag(g.trans_a),
                Int(g.m),
                Int(g.k),
                E(&g.alpha),
                Array(g.a),
                Int(g.lda),
                Array(g.x),
                E(&g.beta),
                Array(g.y),
            ],
            CimCall::Batched(b) => {
                let s = &b.shape;
                let mut args = vec![
                    flag(s.trans_a),
                    Int(0),
                    Int(s.m),
                    Int(s.n),
                    Int(s.k),
                    E(&s.alpha),
                    Int(s.lda),
                    Int(s.ldb),
                    E(&s.beta),
                    Int(s.ldc),
                    Int(b.problems.len()),
                ];
                for &(a, b, c) in &b.problems {
                    args.extend([Array(a), Array(b), Array(c)]);
                }
                args
            }
            CimCall::Conv(c) => vec![
                Array(c.img),
                Int(c.h),
                Int(c.w),
                Array(c.filt),
                Int(c.fh),
                Int(c.fw),
                Array(c.out),
            ],
        }
    }

    /// Evaluates the call's host-computed values with `eval`, in this
    /// order: a view's extents, `alpha`, `beta`, a view's origins.
    ///
    /// # Errors
    ///
    /// Whatever `eval` returns, and [`InterpError::BadCallArgs`] for an
    /// extent or origin that is not a non-negative integer.
    pub fn resolve(
        &self,
        eval: impl FnMut(&Expr) -> Result<Value, InterpError>,
    ) -> Result<ResolvedCall<'_>, InterpError> {
        let mut ev = Eval { callee: self.callee(), eval };
        Ok(match self {
            CimCall::Init(device) => ResolvedCall::Init(*device),
            CimCall::Malloc(a) => ResolvedCall::Malloc(*a),
            CimCall::HostToDev(a) => ResolvedCall::HostToDev(*a),
            CimCall::DevToHost(a) => ResolvedCall::DevToHost(*a),
            CimCall::Pin(a) => ResolvedCall::Pin(*a),
            CimCall::Gemm(g) => {
                let (m, n, k) = match &g.extent {
                    GemmExtent::Whole { m, n, k } => (*m, *n, *k),
                    GemmExtent::View(v) => {
                        (ev.index(&v.m, "m")?, ev.index(&v.n, "n")?, ev.index(&v.k, "k")?)
                    }
                };
                let alpha = ev.scale(&g.alpha)?;
                let beta = ev.scale(&g.beta)?;
                let origins = match &g.extent {
                    GemmExtent::Whole { .. } => [(0, 0); 3],
                    GemmExtent::View(v) => [
                        (ev.index(&v.a_off.0, "a_off.0")?, ev.index(&v.a_off.1, "a_off.1")?),
                        (ev.index(&v.b_off.0, "b_off.0")?, ev.index(&v.b_off.1, "b_off.1")?),
                        (ev.index(&v.c_off.0, "c_off.0")?, ev.index(&v.c_off.1, "c_off.1")?),
                    ],
                };
                let (trans_a, lda, ldb, ldc) = (g.trans_a, g.lda, g.ldb, g.ldc);
                ResolvedCall::Gemm(ResolvedGemm {
                    shape: GemmShape { trans_a, m, n, k, alpha, lda, ldb, beta, ldc },
                    operands: (g.a, g.b, g.c),
                    origins,
                })
            }
            CimCall::Gemv(g) => {
                let alpha = ev.scale(&g.alpha)?;
                let beta = ev.scale(&g.beta)?;
                let GemvCall { trans_a, m, k, a, lda, x, y, .. } = **g;
                ResolvedCall::Gemv(GemvCall { trans_a, m, k, alpha, a, lda, x, beta, y })
            }
            CimCall::Batched(b) => {
                let alpha = ev.scale(&b.shape.alpha)?;
                let beta = ev.scale(&b.shape.beta)?;
                let GemmShape { trans_a, m, n, k, lda, ldb, ldc, .. } = b.shape;
                ResolvedCall::Batched {
                    shape: GemmShape { trans_a, m, n, k, alpha, lda, ldb, beta, ldc },
                    problems: &b.problems,
                }
            }
            CimCall::Conv(c) => ResolvedCall::Conv(*c),
        })
    }
}

/// The evaluator [`CimCall::resolve`] reads a call's `Expr` fields with.
struct Eval<F> {
    callee: &'static str,
    eval: F,
}

impl<F: FnMut(&Expr) -> Result<Value, InterpError>> Eval<F> {
    fn scale(&mut self, e: &Expr) -> Result<f64, InterpError> {
        Ok((self.eval)(e)?.as_f64())
    }

    /// An extent or an origin coordinate: a non-negative integer. An
    /// integer value converts exactly; a float must be a whole number.
    fn index(&mut self, e: &Expr, what: &str) -> Result<usize, InterpError> {
        let (index, got) = match (self.eval)(e)? {
            Value::I(i) => (usize::try_from(i).ok(), i.to_string()),
            Value::F(f) => ((f >= 0.0 && f.fract() == 0.0).then_some(f as usize), f.to_string()),
        };
        index.ok_or_else(|| {
            InterpError::BadCallArgs(format!(
                "{}: {what} must be a non-negative integer (got {got})",
                self.callee
            ))
        })
    }
}

/// A runtime call with its host-computed values evaluated: what a
/// [`Backend`](crate::interp::Backend) executes. It lives for one call
/// and borrows a batched call's operand list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResolvedCall<'c> {
    /// `polly_cimInit(device)`.
    Init(u32),
    /// `polly_cimMalloc(array)`.
    Malloc(ArrayId),
    /// `polly_cimHostToDev(array)`.
    HostToDev(ArrayId),
    /// `polly_cimDevToHost(array)`.
    DevToHost(ArrayId),
    /// `polly_cimPin(array)`.
    Pin(ArrayId),
    /// A GEMM on whole operands or on views into them.
    Gemm(ResolvedGemm),
    /// A GEMV.
    Gemv(GemvCall<f64>),
    /// Independent GEMMs of one shape.
    Batched {
        /// Shape and scales every problem shares.
        shape: GemmShape<f64>,
        /// Per-problem operands.
        problems: &'c [Operands],
    },
    /// A 2-D convolution.
    Conv(ConvCall),
}

/// A resolved GEMM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedGemm {
    /// Shape and scales.
    pub shape: GemmShape<f64>,
    /// `(A, B, C)`.
    pub operands: Operands,
    /// The `(row, col)` origin of each operand; zero except in a view.
    pub origins: [(usize, usize); 3],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, PureBackend};
    use crate::printer::print_stmts;
    use crate::stmt::Stmt;
    use crate::types::{Program, VarId};

    const C: ArrayId = ArrayId(0);
    const A: ArrayId = ArrayId(1);
    const B: ArrayId = ArrayId(2);

    /// 4x4 arrays `C`, `A`, `B`, the scalar `alpha` and the tile variable
    /// `ii`.
    fn abi_program() -> Program {
        let mut p = Program::new("abi");
        for name in ["C", "A", "B"] {
            p.add_array(name, vec![4, 4]);
        }
        p.add_scalar("alpha", Some(1.5));
        p.fresh_var("ii");
        p
    }

    /// `C = alpha * A^T * B + 0.5 * C` over `extent`.
    fn gemm(extent: GemmExtent) -> CimCall {
        let alpha = Expr::load(ArrayId(3), vec![]);
        let beta = Expr::Float(0.5);
        let call = GemmCall {
            trans_a: true,
            extent,
            alpha,
            a: A,
            lda: 5,
            b: B,
            ldb: 6,
            beta,
            c: C,
            ldc: 7,
        };
        CimCall::Gemm(Box::new(call))
    }

    /// A tile of `m x 3 x 2` at origins `(ii, 0)`, `(0, 1)` and `(ii, 1)`.
    fn view(m: Expr) -> CimCall {
        let (ii, int) = (|| Expr::Var(VarId(0)), Expr::Int);
        gemm(GemmExtent::View(Box::new(TileView {
            m,
            n: int(3),
            k: int(2),
            a_off: (ii(), int(0)),
            b_off: (int(0), int(1)),
            c_off: (ii(), int(1)),
        })))
    }

    /// Every call prints its C argument list in the runtime's order.
    #[test]
    fn every_call_prints_its_c_layout() {
        let p = abi_program();
        let ii = Expr::Var(VarId(0));
        let tile_rows = Expr::sub(Expr::min(Expr::add(ii.clone(), Expr::Int(2)), Expr::Int(4)), ii);
        let gemv = GemvCall {
            trans_a: true,
            m: 4,
            k: 3,
            alpha: Expr::Float(2.0),
            a: A,
            lda: 4,
            x: B,
            beta: Expr::Float(1.0),
            y: C,
        };
        let (alpha, beta) = (Expr::Float(1.0), Expr::Float(0.0));
        let shape =
            GemmShape { trans_a: false, m: 4, n: 3, k: 2, alpha, lda: 5, ldb: 6, beta, ldc: 7 };
        let batched = BatchedCall { shape, problems: vec![(A, B, C), (A, C, B)] };
        let conv = ConvCall { img: A, h: 4, w: 4, filt: B, fh: 2, fw: 3, out: C };
        let calls = [
            (CimCall::Init(0), "polly_cimInit(0);"),
            (CimCall::Malloc(C), "polly_cimMalloc(cim_C);"),
            (CimCall::HostToDev(A), "polly_cimHostToDev(cim_A);"),
            (CimCall::DevToHost(C), "polly_cimDevToHost(cim_C);"),
            (CimCall::Pin(A), "polly_cimPin(cim_A);"),
            (
                gemm(GemmExtent::Whole { m: 4, n: 3, k: 2 }),
                "polly_cimBlasSGemm(1, 0, 4, 3, 2, alpha, cim_A, 5, cim_B, 6, 0.5, cim_C, 7);",
            ),
            (
                view(tile_rows),
                "polly_cimBlasSGemmView(1, 0, min(ii + 2, 4) - ii, 3, 2, alpha, cim_A, 5, ii, 0, \
                 cim_B, 6, 0, 1, 0.5, cim_C, 7, ii, 1);",
            ),
            (
                CimCall::Gemv(Box::new(gemv)),
                "polly_cimBlasSGemv(1, 4, 3, 2.0, cim_A, 4, cim_B, 1.0, cim_C);",
            ),
            (
                CimCall::Batched(Box::new(batched)),
                "polly_cimBlasGemmBatched(0, 0, 4, 3, 2, 1.0, 5, 6, 0.0, 7, 2, \
                 cim_A, cim_B, cim_C, cim_A, cim_C, cim_B);",
            ),
            (CimCall::Conv(conv), "polly_cimConv2d(cim_A, 4, 4, cim_B, 2, 3, cim_C);"),
        ];
        for (call, line) in calls {
            assert_eq!(print_stmts(&p, &[Stmt::Call(call)], 0), format!("{line}\n"));
        }
    }

    /// A view's values are evaluated extents first, then `alpha`, `beta`
    /// and the origins, and land in their fields; an extent of -1 is
    /// rejected before the backend sees the call.
    #[test]
    fn view_extent_must_be_a_non_negative_integer() {
        let mut p = abi_program();
        let call = view(Expr::Int(2));
        let mut order = Vec::new();
        let resolved = call
            .resolve(|e| {
                order.push(crate::printer::print_expr(&p, e));
                Ok(Value::I(order.len() as i64))
            })
            .expect("resolves");
        assert_eq!(order, ["2", "3", "2", "alpha", "0.5", "ii", "0", "0", "1", "ii", "1"]);
        let ResolvedCall::Gemm(g) = resolved else { panic!("{resolved:?}") };
        let s = g.shape;
        assert_eq!((s.m, s.n, s.k, s.alpha, s.beta), (1, 2, 3, 4.0, 5.0));
        assert_eq!(g.origins, [(6, 7), (8, 9), (10, 11)]);
        assert_eq!((g.operands, s.lda, s.ldb, s.ldc), ((A, B, C), 5, 6, 7));

        // An integer origin above 2^53 resolves exactly, not rounded
        // through `f64`.
        let far = (1i64 << 53) + 1;
        let CimCall::Gemm(mut far_call) = view(Expr::Int(2)) else { unreachable!() };
        let GemmExtent::View(v) = &mut far_call.extent else { unreachable!() };
        v.a_off.0 = Expr::Int(far);
        let far_call = CimCall::Gemm(far_call);
        let resolved = far_call
            .resolve(|e| match e {
                Expr::Int(i) => Ok(Value::I(*i)),
                _ => Ok(Value::F(1.0)),
            })
            .expect("resolves");
        let ResolvedCall::Gemm(g) = resolved else { panic!("{resolved:?}") };
        assert_eq!(g.origins[0], (far as usize, 0));

        p.body = vec![Stmt::Call(view(Expr::sub(Expr::Int(0), Expr::Int(1))))];
        let mut be = PureBackend::for_program(&p);
        match run(&p, &mut be) {
            Err(InterpError::BadCallArgs(msg)) => {
                assert_eq!(msg, "polly_cimBlasSGemmView: m must be a non-negative integer (got -1)")
            }
            other => panic!("expected BadCallArgs, got {other:?}"),
        }
        assert_eq!(be.array(C), &[0.0; 16]);
    }
}
