//! # tdo-tactics — Loop Tactics for CIM offloading
//!
//! The paper's mid-level optimizer extension (Section III): a declarative
//! matcher/builder framework that detects GEMM/GEMV/conv2d computational
//! patterns on Polly-style schedule trees and transparently rewrites them
//! into calls to the CIM runtime library, without any user intervention.
//!
//! * [`access`] — access-relation matchers with placeholders;
//! * [`detect`] — structural tree shapes combining bands and leaves;
//! * [`kernels`] — matched-kernel descriptors;
//! * [`policy`] — Always vs Selective (cost-model) offload decisions;
//! * [`codegen`] — `polly_cim*` call emission (Listing 1);
//! * [`pass`] — the driver pass with fusion (Listing 2) and compiler
//!   tiling of oversized GEMMs (Listing 3);
//! * [`graph`] — the offload dataflow graph: post-codegen sync hoisting
//!   and residency placement over the emitted runtime calls;
//! * [`pass_manager`] — the explicit pass pipeline running detection
//!   and the graph passes as configurable [`pass_manager::CompilerPass`]
//!   stages, including capacity-aware pin placement.
//!
//! ```
//! use tdo_tactics::pass::{LoopTactics, TacticsConfig};
//!
//! let src = r#"
//!     float A[8][8]; float B[8][8]; float C[8][8];
//!     void kernel() {
//!       for (int i = 0; i < 8; i++)
//!         for (int j = 0; j < 8; j++)
//!           for (int k = 0; k < 8; k++)
//!             C[i][j] += A[i][k] * B[k][j];
//!     }
//! "#;
//! let prog = tdo_lang::compile(src)?;
//! let scop = tdo_poly::scop::extract(&prog)?;
//! let (tree, report) = LoopTactics::new(TacticsConfig::default()).run(&prog, &scop);
//! assert!(report.any_offloaded());
//! let offloaded = tdo_poly::codegen::rebuild_program(&prog, &scop, &tree);
//! assert!(tdo_ir::printer::print_program(&offloaded).contains("polly_cimBlasSGemm"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod access;
pub mod codegen;
pub mod detect;
pub mod graph;
pub mod kernels;
pub mod pass;
pub mod pass_manager;
pub mod policy;

pub use graph::{OffloadGraph, PinCandidate};
pub use kernels::{ConvDesc, GemmDesc, GemvDesc, MatchedKernel};
pub use pass::{KernelReport, LoopTactics, OffloadReport, TacticsConfig};
pub use pass_manager::{
    plan_pins, CompilerPass, PassCtx, PassId, PassManager, PassReport, PinPlan,
};
pub use policy::{CostModel, Decision, OffloadPolicy};
