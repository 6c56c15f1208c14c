//! Endurance and lifetime modelling (Equation 1 and Fig. 5).
//!
//! PCM cells survive 1e6–1e8 program operations. The paper computes the
//! expected lifetime of a crossbar-based system as
//!
//! ```text
//! SystemLifeTime = CellEndurance * S / B          (Eq. 1)
//! ```
//!
//! with `S` the crossbar size in bytes and `B` the write traffic in
//! bytes/second, assuming writes are spread uniformly across the array
//! (wear-levelled). TDO-CIM raises lifetime at *compile time* by halving
//! `B` through shared-input fusion and tile reuse.

/// Seconds in a (non-leap) year.
pub const SECONDS_PER_YEAR: f64 = 365.0 * 24.0 * 3600.0;

/// Lifetime in seconds per Equation 1.
///
/// # Panics
///
/// Panics if `write_traffic_bytes_per_s` is not positive.
pub fn system_lifetime_seconds(
    cell_endurance_writes: f64,
    crossbar_bytes: f64,
    write_traffic_bytes_per_s: f64,
) -> f64 {
    assert!(write_traffic_bytes_per_s > 0.0, "write traffic must be positive");
    cell_endurance_writes * crossbar_bytes / write_traffic_bytes_per_s
}

/// Lifetime in years per Equation 1.
pub fn system_lifetime_years(
    cell_endurance_writes: f64,
    crossbar_bytes: f64,
    write_traffic_bytes_per_s: f64,
) -> f64 {
    system_lifetime_seconds(cell_endurance_writes, crossbar_bytes, write_traffic_bytes_per_s)
        / SECONDS_PER_YEAR
}

/// Lifetime model for a fixed crossbar, parameterized on measured traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModel {
    /// Crossbar capacity in bytes (paper: 512 KiB).
    pub crossbar_bytes: f64,
}

impl Default for LifetimeModel {
    fn default() -> Self {
        LifetimeModel { crossbar_bytes: 512.0 * 1024.0 }
    }
}

impl LifetimeModel {
    /// Years of life at `endurance` writes/cell under `traffic` bytes/s.
    pub fn years(&self, endurance_writes: f64, traffic_bytes_per_s: f64) -> f64 {
        system_lifetime_years(endurance_writes, self.crossbar_bytes, traffic_bytes_per_s)
    }

    /// Sweeps endurance values (in millions of writes), producing
    /// `(endurance_mwrites, years)` pairs — the x/y series of Fig. 5.
    pub fn sweep_years(
        &self,
        endurance_mwrites: impl IntoIterator<Item = f64>,
        traffic_bytes_per_s: f64,
    ) -> Vec<(f64, f64)> {
        endurance_mwrites
            .into_iter()
            .map(|mw| (mw, self.years(mw * 1e6, traffic_bytes_per_s)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_is_linear_in_endurance() {
        let m = LifetimeModel::default();
        let t = 1e6; // 1 MB/s of writes
        let y10 = m.years(10e6, t);
        let y40 = m.years(40e6, t);
        assert!((y40 / y10 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn halving_traffic_doubles_lifetime() {
        // The factor-2 "smart mapping" result of Fig. 5.
        let m = LifetimeModel::default();
        let naive = m.years(20e6, 2e6);
        let smart = m.years(20e6, 1e6);
        assert!((smart / naive - 2.0).abs() < 1e-9);
    }

    #[test]
    fn units_sanity() {
        // 1e6 endurance * 512KiB / 1 MB/s = 524288 * 1e6 / 1e6 s = 524288 s.
        let s = system_lifetime_seconds(1e6, 512.0 * 1024.0, 1e6);
        assert!((s - 524_288.0).abs() < 1e-6);
    }

    #[test]
    fn sweep_produces_series() {
        let m = LifetimeModel::default();
        let series = m.sweep_years([10.0, 20.0, 30.0, 40.0], 1e6);
        assert_eq!(series.len(), 4);
        assert!(series.windows(2).all(|w| w[1].1 > w[0].1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_traffic_panics() {
        system_lifetime_seconds(1e6, 1.0, 0.0);
    }
}
