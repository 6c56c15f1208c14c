//! # tdo-poly — polyhedral-style middle end
//!
//! The Polly substitute of the reproduction (Section III-A of the TDO-CIM
//! paper): [`scop`] detects static control parts and models statements
//! with affine domains and access relations; [`tree`] represents their
//! schedules as trees; [`transforms`] implements the paper's revisited
//! tiling (Listing 3) plus interchange as tree rewrites; [`deps`]
//! provides the kernel-independence test that makes the fusion of
//! Listing 2 (Loop Tactics' batched grouping) legal; [`codegen`] lowers
//! schedules back to loop IR.
//!
//! ```
//! let src = r#"
//!     float A[8][8];
//!     void kernel() {
//!       for (int i = 0; i < 8; i++)
//!         for (int j = 0; j < 8; j++)
//!           A[i][j] = 1.0;
//!     }
//! "#;
//! let prog = tdo_lang::compile(src)?;
//! let scop = tdo_poly::scop::extract(&prog)?;
//! assert_eq!(scop.stmts.len(), 1);
//! assert_eq!(scop.tree.band_depth(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod codegen;
pub mod deps;
pub mod scop;
pub mod transforms;
pub mod tree;

pub use scop::{LoopDim, Scop, ScopError, ScopStmt};
pub use tree::{BandDim, ScheduleTree};
