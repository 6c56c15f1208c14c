//! Pluggable resistive-device models.
//!
//! The TDO-CIM paper evaluates one part — a 256x256 crossbar of 4-bit IBM
//! PCM devices (Table I) — but nothing in the stack above the device
//! physics depends on *which* resistive technology sits at the junctions.
//! [`DeviceModel`] gathers the per-technology parameter set (ADC sharing,
//! energy/latency constants, endurance budget) behind one trait so the
//! accelerator, runtime and figure binaries can sweep technologies the
//! way Eva-CiM and CIMFlow sweep array parameters.
//!
//! Two instances ship with the crate:
//!
//! * [`PcmDevice`] — the paper's doped-GST phase-change memory exactly as
//!   in Table I (the defaults of [`AdcConfig`] and [`PcmEnergyModel`]);
//! * [`ReramDevice`] — an HfOx ReRAM-style parameter set: much faster
//!   and cheaper SET/RESET programming, ISAAC-class 100 ns array reads,
//!   but a lower per-cell endurance budget.
//!
//! [`DeviceKind`] is the `Copy` tag configs and CLI flags carry; it
//! resolves to a `&'static dyn DeviceModel` via [`DeviceKind::model`].
//! See `docs/DEVICES.md` for the full device/tile configuration matrix.
//!
//! ```
//! use cim_pcm::device::{DeviceKind, DeviceModel};
//!
//! // Sweep the available device models and compare their write costs:
//! // ReRAM programs an 8-bit cell an order of magnitude cheaper and
//! // faster than PCM, at the price of a smaller endurance budget.
//! let costs: Vec<(&str, f64, f64)> = DeviceKind::ALL
//!     .iter()
//!     .map(|kind| {
//!         let m = kind.model();
//!         (m.name(), m.energy().write_pj_per_cell, m.endurance_writes())
//!     })
//!     .collect();
//! assert_eq!(costs.len(), 2);
//! let (pcm, reram) = (&costs[0], &costs[1]);
//! assert!(pcm.1 > reram.1, "PCM writes cost more energy");
//! assert!(pcm.2 > reram.2, "but PCM cells endure more writes");
//! ```

use crate::adc::AdcConfig;
use crate::energy::PcmEnergyModel;
use crate::wear::LifetimeModel;

/// A resistive memory technology usable as the crossbar device.
///
/// Implementations bundle everything the accelerator needs to simulate a
/// technology: how columns are read out ([`DeviceModel::adc`]), what
/// each operation costs ([`DeviceModel::energy`]) and how many programs a
/// cell survives ([`DeviceModel::endurance_writes`]). The compute
/// datapath is shared: every device stores two 4-bit levels per logical
/// 8-bit cell and is read through the same quantize / nibble-dot / ADC /
/// recombine chain.
pub trait DeviceModel {
    /// Short human-readable technology name (e.g. `"pcm"`).
    fn name(&self) -> &'static str;

    /// Column ADC configuration.
    fn adc(&self) -> AdcConfig;

    /// Energy/latency constants of the datapath built from this device.
    fn energy(&self) -> PcmEnergyModel;

    /// Nominal per-cell endurance budget in program operations — the
    /// `CellEndurance` term of Equation 1.
    fn endurance_writes(&self) -> f64;

    /// Equation-1 lifetime model for a crossbar of `crossbar_bytes` built
    /// from this device.
    fn lifetime(&self, crossbar_bytes: f64) -> LifetimeModel {
        LifetimeModel { crossbar_bytes }
    }
}

/// The paper's 4-bit doped-GST IBM PCM device (Table I parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PcmDevice;

impl DeviceModel for PcmDevice {
    fn name(&self) -> &'static str {
        "pcm"
    }

    fn adc(&self) -> AdcConfig {
        AdcConfig::default()
    }

    fn energy(&self) -> PcmEnergyModel {
        PcmEnergyModel::default()
    }

    fn endurance_writes(&self) -> f64 {
        // Mid-range of the 1e6..1e8 PCM budget the paper quotes.
        1e7
    }
}

/// An HfOx ReRAM-style device (ISAAC/PRIME-class array parameters).
///
/// Same 4-bit multi-level abstraction and bit-sliced 8-bit datapath as
/// [`PcmDevice`]; what changes is the physics-derived constants: filament
/// SET/RESET is ~10x cheaper and ~25x faster than PCM's melt-quench
/// programming, array reads complete in ~100 ns, but the filament survives
/// roughly an order of magnitude fewer program cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReramDevice;

impl DeviceModel for ReramDevice {
    fn name(&self) -> &'static str {
        "reram"
    }

    fn adc(&self) -> AdcConfig {
        AdcConfig::default()
    }

    fn energy(&self) -> PcmEnergyModel {
        PcmEnergyModel {
            // Lower read currents at matched voltage swing.
            compute_fj_per_cell: 100.0,
            // 2x ~10 pJ per 4-bit filament SET/RESET.
            write_pj_per_cell: 20.0,
            // 100 ns row program vs PCM's 2.5 us staircase.
            write_ns_per_row: 100.0,
            // ISAAC-class 100 ns array read.
            compute_ns_per_gemv: 100.0,
            // Peripheral circuitry is shared with the PCM design.
            ..PcmEnergyModel::default()
        }
    }

    fn endurance_writes(&self) -> f64 {
        1e6
    }
}

/// Copyable tag naming a built-in device model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceKind {
    /// The paper's Table-I PCM part ([`PcmDevice`]).
    #[default]
    Pcm,
    /// The HfOx ReRAM-style part ([`ReramDevice`]).
    Reram,
}

impl DeviceKind {
    /// Every built-in device, in sweep order.
    pub const ALL: [DeviceKind; 2] = [DeviceKind::Pcm, DeviceKind::Reram];

    /// Resolves the tag to its parameter set.
    pub fn model(self) -> &'static dyn DeviceModel {
        match self {
            DeviceKind::Pcm => &PcmDevice,
            DeviceKind::Reram => &ReramDevice,
        }
    }

    /// Technology name (`"pcm"` / `"reram"`).
    pub fn name(self) -> &'static str {
        self.model().name()
    }

    /// Parses a CLI-style device name (case-insensitive; `"rram"` is
    /// accepted as an alias for ReRAM).
    pub fn parse(s: &str) -> Option<DeviceKind> {
        match s.to_ascii_lowercase().as_str() {
            "pcm" => Some(DeviceKind::Pcm),
            "reram" | "rram" => Some(DeviceKind::Reram),
            _ => None,
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcm_device_is_the_table_i_part() {
        let d = DeviceKind::Pcm.model();
        assert_eq!(d.name(), "pcm");
        assert_eq!(d.energy(), PcmEnergyModel::default());
        assert_eq!(d.adc(), AdcConfig::default());
    }

    #[test]
    fn reram_trades_endurance_for_write_cost() {
        let pcm = DeviceKind::Pcm.model();
        let reram = DeviceKind::Reram.model();
        assert!(reram.energy().write_pj_per_cell < pcm.energy().write_pj_per_cell);
        assert!(reram.energy().write_ns_per_row < pcm.energy().write_ns_per_row);
        assert!(reram.endurance_writes() < pcm.endurance_writes());
    }

    #[test]
    fn parse_round_trips_names() {
        for kind in DeviceKind::ALL {
            assert_eq!(DeviceKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(DeviceKind::parse("RRAM"), Some(DeviceKind::Reram));
        assert_eq!(DeviceKind::parse("flash"), None);
    }

    #[test]
    fn lifetime_model_uses_device_endurance() {
        let d = DeviceKind::Reram.model();
        let m = d.lifetime(512.0 * 1024.0);
        let years = m.years(d.endurance_writes(), 1e6);
        assert!(years > 0.0);
    }
}
