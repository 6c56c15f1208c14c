//! Runtime-call generation (the device-mapping rewrite of Listing 1).
//!
//! For each offloaded kernel Loop Tactics emits: coherence transfers for
//! the operands (`polly_cimHostToDev`), the BLAS-style kernel call with
//! "Blas parameters (i.e., values of alpha or leading dimensions)
//! automatically collected or computed", and the result transfer back
//! (`polly_cimDevToHost`). One prologue per program carries
//! `polly_cimInit` and the `polly_cimMalloc` calls.

use crate::kernels::{GemmDesc, MatchedKernel};
use tdo_ir::calls::{BatchedCall, CimCall, ConvCall, GemmCall, GemmExtent, GemmShape, GemvCall};
use tdo_ir::{ArrayId, Stmt};

/// The program prologue: device init plus one `polly_cimMalloc` per array
/// touched by any offloaded kernel (Listing 1, lines 2-7).
pub fn prologue(device: u32, arrays: &[ArrayId]) -> Vec<Stmt> {
    let mut out = vec![Stmt::Call(CimCall::Init(device))];
    out.extend(arrays.iter().map(|&a| Stmt::Call(CimCall::Malloc(a))));
    out
}

/// Calls realizing one matched kernel: input transfers, the kernel call,
/// output transfer.
pub fn kernel_calls(k: &MatchedKernel) -> Vec<Stmt> {
    let mut out: Vec<Stmt> =
        k.arrays_read().into_iter().map(|a| Stmt::Call(CimCall::HostToDev(a))).collect();
    out.push(match k {
        MatchedKernel::Gemm(g) => gemm_call(g, GemmExtent::Whole { m: g.m, n: g.n, k: g.k }),
        MatchedKernel::Gemv(g) => Stmt::Call(CimCall::Gemv(Box::new(GemvCall {
            trans_a: g.trans_a,
            m: g.m,
            k: g.k,
            alpha: g.alpha.clone(),
            a: g.a,
            lda: g.lda,
            x: g.x,
            beta: g.beta.clone(),
            y: g.y,
        }))),
        MatchedKernel::Conv(c) => Stmt::Call(CimCall::Conv(ConvCall {
            img: c.img,
            h: c.h,
            w: c.w,
            filt: c.filt,
            fh: c.fh,
            fw: c.fw,
            out: c.out,
        })),
    });
    out.extend(k.arrays_written().into_iter().map(|a| Stmt::Call(CimCall::DevToHost(a))));
    out
}

/// The GEMM call of `g` over `extent`: the whole operands, or one tile of
/// a compiler-tiled loop (Listing 3) whose extents and origins are
/// expressions over the tile variables.
pub fn gemm_call(g: &GemmDesc, extent: GemmExtent) -> Stmt {
    Stmt::Call(CimCall::Gemm(Box::new(GemmCall {
        trans_a: g.trans_a,
        extent,
        alpha: g.alpha.clone(),
        a: g.a,
        lda: g.lda,
        b: g.b,
        ldb: g.ldb,
        beta: g.beta.clone(),
        c: g.c,
        ldc: g.ldc,
    })))
}

/// Calls realizing a fused group as one batched invocation (Listing 2:
/// "The GEMMs will be replaced by a single polly_cimBlasGemmBatched
/// instead of two calls to polly_cimBlasSGemm").
pub fn batched_calls(group: &[&GemmDesc]) -> Vec<Stmt> {
    let t = group[0];
    let mut out = Vec::new();
    for g in group {
        for a in [g.a, g.b, g.c] {
            out.push(Stmt::Call(CimCall::HostToDev(a)));
        }
    }
    let shape = GemmShape {
        trans_a: t.trans_a,
        m: t.m,
        n: t.n,
        k: t.k,
        alpha: t.alpha.clone(),
        lda: t.lda,
        ldb: t.ldb,
        beta: t.beta.clone(),
        ldc: t.ldc,
    };
    let problems = group.iter().map(|g| (g.a, g.b, g.c)).collect();
    out.push(Stmt::Call(CimCall::Batched(Box::new(BatchedCall { shape, problems }))));
    for g in group {
        out.push(Stmt::Call(CimCall::DevToHost(g.c)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdo_ir::Expr;

    fn gemm_desc() -> GemmDesc {
        GemmDesc {
            c: ArrayId(0),
            a: ArrayId(1),
            b: ArrayId(2),
            m: 4,
            n: 4,
            k: 4,
            lda: 4,
            ldb: 4,
            ldc: 4,
            trans_a: false,
            alpha: Expr::Float(1.0),
            beta: Expr::Float(0.0),
            stmt_ids: vec![0],
        }
    }

    #[test]
    fn kernel_calls_have_listing1_structure() {
        let stmts = kernel_calls(&MatchedKernel::Gemm(gemm_desc()));
        let callees: Vec<&str> = stmts
            .iter()
            .map(|s| match s {
                Stmt::Call(c) => c.callee(),
                _ => panic!("expected call"),
            })
            .collect();
        assert_eq!(
            callees,
            vec![
                "polly_cimHostToDev",
                "polly_cimHostToDev",
                "polly_cimHostToDev",
                "polly_cimBlasSGemm",
                "polly_cimDevToHost"
            ]
        );
    }

    #[test]
    fn prologue_structure() {
        let stmts = prologue(0, &[ArrayId(0), ArrayId(1)]);
        assert_eq!(stmts.len(), 3);
        let Stmt::Call(c) = &stmts[0] else { panic!() };
        assert_eq!(c.callee(), "polly_cimInit");
    }

    #[test]
    fn batched_call_carries_all_problems() {
        let g1 = gemm_desc();
        let g2 = GemmDesc { b: ArrayId(3), c: ArrayId(4), ..gemm_desc() };
        let stmts = batched_calls(&[&g1, &g2]);
        let Some(Stmt::Call(batched)) = stmts
            .iter()
            .find(|s| matches!(s, Stmt::Call(c) if c.callee() == "polly_cimBlasGemmBatched"))
        else {
            panic!("no batched call")
        };
        // 11 scalar args + 3 arrays per problem.
        assert_eq!(batched.args().len(), 11 + 6);
    }
}
