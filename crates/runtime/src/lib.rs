//! # cim-runtime — the lightweight CIM runtime library and driver model
//!
//! The software stack of Fig. 3: user applications (or the Loop Tactics
//! optimizer) call the user-space [`CimContext`] API, which encodes each
//! call into context-register writes, allocates physically contiguous
//! shared buffers through the CMA, and crosses into the kernel-space
//! [`driver::CimDriver`] for ioctls, address translation, the coherence
//! flush and completion waiting.
//!
//! ```
//! use cim_accel::AccelConfig;
//! use cim_machine::{Machine, MachineConfig};
//! use cim_runtime::{CimContext, DriverConfig, Transpose};
//!
//! # fn main() -> Result<(), cim_runtime::CimError> {
//! let mut mach = Machine::new(MachineConfig::test_small());
//! let mut ctx = CimContext::new(AccelConfig::test_small(), DriverConfig::default(), &mach);
//! ctx.cim_init(&mut mach, 0)?;
//! let a = ctx.cim_malloc(&mut mach, 16)?;
//! let x = ctx.cim_malloc(&mut mach, 8)?;
//! let y = ctx.cim_malloc(&mut mach, 8)?;
//! mach.poke_f32_slice(a.va, &[1.0, 0.0, 0.0, 1.0]);
//! mach.poke_f32_slice(x.va, &[7.0, 9.0]);
//! ctx.cim_blas_sgemv(&mut mach, Transpose::No, 2, 2, 1.0, a, 2, x, 0.0, y)?;
//! let mut out = [0f32; 2];
//! mach.peek_f32_slice(y.va, &mut out);
//! assert_eq!(out, [7.0, 9.0]);
//! # Ok(())
//! # }
//! ```

pub mod api;
pub mod driver;
pub mod error;
pub(crate) mod ranges;
pub mod reactor;
pub mod residency;
pub mod serve;
pub mod stats;

pub use api::{CimContext, CimDevice, DevPtr, SharedDevice, Transpose};
pub use cim_accel::DeviceKind;
pub use driver::{CimDriver, CimFuture, DispatchMode, DriverConfig, FlushMode, WaitPolicy};
pub use error::CimError;
pub use reactor::{CmdRecord, Reactor};
pub use residency::{ResidencyEntry, ResidencyTable};
pub use serve::{
    CimServer, FairnessPolicy, GridScheduler, ServePolicy, TenantConfig, TenantId, TenantUsage,
};
pub use stats::RuntimeStats;
