//! # cim-pcm — phase-change-memory device and crossbar models
//!
//! The analog heart of the TDO-CIM accelerator (Sections II-A/II-B of the
//! paper): multi-level PCM cells organized in a crossbar that computes
//! matrix-vector products via Ohm's and Kirchhoff's laws, read out through
//! shared ADCs, with 8-bit operands bit-sliced across pairs of 4-bit
//! devices. The simulator prices that datapath from operation counts, so
//! the crossbar model keeps the devices' wear ([`Crossbar`]).
//!
//! The crate also owns the Table I energy/latency constants
//! ([`PcmEnergyModel`]) and the Equation-1 lifetime model ([`wear`]),
//! because endurance — the 1e6..1e8-write budget of PCM — is the resource
//! the TDO-CIM compiler transformations conserve.
//!
//! Despite the crate name, the device physics is pluggable: the
//! [`DeviceModel`] trait ([`device`]) bundles energy and endurance
//! parameters per technology, with the paper's PCM part ([`PcmDevice`])
//! and an HfOx ReRAM-style part ([`ReramDevice`]) as the built-in
//! instances.
//!
//! ```
//! use cim_pcm::crossbar::Crossbar;
//!
//! let mut xbar = Crossbar::new(4, 4);
//! xbar.record_program(0, 4);
//! xbar.record_program(0, 2);
//! let wear = xbar.wear();
//! assert_eq!(wear.cell_writes, 6);
//! assert_eq!(wear.max_cell_writes, 2);
//! assert_eq!(wear.row_programs, 2);
//! ```

pub mod crossbar;
pub mod device;
pub mod energy;
pub mod wear;

pub use crossbar::Crossbar;
pub use device::{DeviceKind, DeviceModel, PcmDevice, ReramDevice};
pub use energy::PcmEnergyModel;
