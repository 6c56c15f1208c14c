//! # cim-pcm — phase-change-memory device and crossbar models
//!
//! The analog heart of the TDO-CIM accelerator (Sections II-A/II-B of the
//! paper): multi-level PCM cells organized in a crossbar that computes
//! matrix-vector products via Ohm's and Kirchhoff's laws, read out through
//! shared ADCs, with 8-bit operands bit-sliced across pairs of 4-bit
//! devices.
//!
//! The crate also owns the Table I energy/latency constants
//! ([`PcmEnergyModel`]) and the Equation-1 lifetime model ([`wear`]),
//! because endurance — the 1e6..1e8-write budget of PCM — is the resource
//! the TDO-CIM compiler transformations conserve.
//!
//! Despite the crate name, the device physics is pluggable: the
//! [`DeviceModel`] trait ([`device`]) bundles ADC, energy and endurance
//! parameters per technology, with the paper's PCM part ([`PcmDevice`])
//! and an HfOx ReRAM-style part ([`ReramDevice`]) as the built-in
//! instances.
//!
//! ```
//! use cim_pcm::crossbar::Crossbar;
//!
//! let mut xbar = Crossbar::new(4, 4);
//! xbar.program_row(0, &[1, 2, 3, 4]);
//! let out = xbar.dot_levels(&[2, 0, 0, 0]);
//! assert_eq!(out, vec![2, 4, 6, 8]);
//! ```

pub mod adc;
pub mod crossbar;
pub mod device;
pub mod energy;
pub mod quant;
pub mod wear;

pub use adc::{AdcArray, AdcConfig};
pub use crossbar::{Crossbar, LEVELS};
pub use device::{DeviceKind, DeviceModel, PcmDevice, ReramDevice};
pub use energy::PcmEnergyModel;
pub use quant::QuantParams;

/// Numerical fidelity of the crossbar compute path.
///
/// The paper's evaluation is value-independent (energy and latency depend
/// only on operation counts), so this knob exists for functional
/// validation: `Exact` lets end-to-end tests require bit-identical results
/// against host execution, while `Int8` exercises the real quantized
/// bit-sliced datapath.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Fidelity {
    /// Compute in f32 from the shadow copy of the installed operand
    /// (energy/latency/wear accounting unchanged).
    #[default]
    Exact,
    /// Compute through 8-bit quantization, nibble crossbars, ADC and
    /// digital recombination.
    Int8,
}

impl Fidelity {
    /// Whether results are numerically identical to host execution.
    pub fn is_exact(&self) -> bool {
        matches!(self, Fidelity::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_default_is_exact() {
        assert!(Fidelity::default().is_exact());
        assert!(!Fidelity::Int8.is_exact());
    }
}
