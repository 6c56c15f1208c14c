//! Scalar quantity newtypes used across the simulator.
//!
//! Energy is tracked in picojoules and time in nanoseconds, both as `f64`.
//! The newtypes exist so that a joule is never accidentally added to a
//! nanosecond ([C-NEWTYPE]), and so that `Display` can auto-scale into
//! engineering units when printing reports.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An amount of energy, stored internally in picojoules.
///
/// ```
/// use cim_machine::units::Energy;
/// let e = Energy::from_nj(2.0) + Energy::from_pj(500.0);
/// assert!((e.as_nj() - 2.5).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy {
    pj: f64,
}

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy { pj: 0.0 };

    /// Creates an energy from picojoules.
    pub fn from_pj(pj: f64) -> Self {
        Energy { pj }
    }

    /// Creates an energy from femtojoules.
    pub fn from_fj(fj: f64) -> Self {
        Energy { pj: fj * 1e-3 }
    }

    /// Creates an energy from nanojoules.
    pub fn from_nj(nj: f64) -> Self {
        Energy { pj: nj * 1e3 }
    }

    /// Creates an energy from millijoules.
    pub fn from_mj(mj: f64) -> Self {
        Energy { pj: mj * 1e9 }
    }

    /// Returns the energy in picojoules.
    pub fn as_pj(self) -> f64 {
        self.pj
    }

    /// Returns the energy in nanojoules.
    pub fn as_nj(self) -> f64 {
        self.pj * 1e-3
    }

    /// Returns the energy in microjoules.
    pub fn as_uj(self) -> f64 {
        self.pj * 1e-6
    }

    /// Returns the energy in millijoules.
    pub fn as_mj(self) -> f64 {
        self.pj * 1e-9
    }

    /// Returns the energy in joules.
    pub fn as_j(self) -> f64 {
        self.pj * 1e-12
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy { pj: self.pj + rhs.pj }
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.pj += rhs.pj;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy { pj: self.pj - rhs.pj }
    }
}

impl SubAssign for Energy {
    fn sub_assign(&mut self, rhs: Energy) {
        self.pj -= rhs.pj;
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy { pj: self.pj * rhs }
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.pj / rhs.pj
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Energy({self})")
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.pj.abs();
        if abs >= 1e12 {
            write!(f, "{:.3} J", self.pj * 1e-12)
        } else if abs >= 1e9 {
            write!(f, "{:.3} mJ", self.pj * 1e-9)
        } else if abs >= 1e6 {
            write!(f, "{:.3} uJ", self.pj * 1e-6)
        } else if abs >= 1e3 {
            write!(f, "{:.3} nJ", self.pj * 1e-3)
        } else {
            write!(f, "{:.3} pJ", self.pj)
        }
    }
}

/// A span of simulated time, stored internally in nanoseconds.
///
/// ```
/// use cim_machine::units::SimTime;
/// let t = SimTime::from_us(1.0) + SimTime::from_ns(500.0);
/// assert!((t.as_us() - 1.5).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime {
    ns: f64,
}

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime { ns: 0.0 };

    /// Creates a time span from nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        SimTime { ns }
    }

    /// Creates a time span from microseconds.
    pub fn from_us(us: f64) -> Self {
        SimTime { ns: us * 1e3 }
    }

    /// Creates a time span from milliseconds.
    pub fn from_ms(ms: f64) -> Self {
        SimTime { ns: ms * 1e6 }
    }

    /// Creates a time span from seconds.
    pub fn from_s(s: f64) -> Self {
        SimTime { ns: s * 1e9 }
    }

    /// Creates a time span from a cycle count at the given frequency.
    pub fn from_cycles(cycles: u64, freq_hz: f64) -> Self {
        SimTime { ns: cycles as f64 / freq_hz * 1e9 }
    }

    /// Returns the time span in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.ns
    }

    /// Returns the time span in microseconds.
    pub fn as_us(self) -> f64 {
        self.ns * 1e-3
    }

    /// Returns the time span in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.ns * 1e-6
    }

    /// Returns the time span in seconds.
    pub fn as_s(self) -> f64 {
        self.ns * 1e-9
    }

    /// Returns the number of whole cycles this span covers at `freq_hz`.
    pub fn to_cycles(self, freq_hz: f64) -> u64 {
        (self.ns * 1e-9 * freq_hz).round() as u64
    }

    /// Returns the larger of two time spans.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.ns >= other.ns {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime { ns: self.ns + rhs.ns }
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.ns += rhs.ns;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime { ns: self.ns - rhs.ns }
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime { ns: self.ns * rhs }
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    fn div(self, rhs: SimTime) -> f64 {
        self.ns / rhs.ns
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.ns.abs();
        if abs >= 1e9 {
            write!(f, "{:.3} s", self.ns * 1e-9)
        } else if abs >= 1e6 {
            write!(f, "{:.3} ms", self.ns * 1e-6)
        } else if abs >= 1e3 {
            write!(f, "{:.3} us", self.ns * 1e-3)
        } else {
            write!(f, "{:.3} ns", self.ns)
        }
    }
}

/// Energy-delay product: joules times seconds.
///
/// Lower is better; the paper reports *improvements* (ratios) of this value.
pub fn edp(energy: Energy, time: SimTime) -> f64 {
    energy.as_j() * time.as_s()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_conversions_roundtrip() {
        let e = Energy::from_mj(1.5);
        assert!((e.as_uj() - 1500.0).abs() < 1e-9);
        assert!((e.as_nj() - 1.5e6).abs() < 1e-6);
        assert!((e.as_pj() - 1.5e9).abs() < 1e-3);
    }

    #[test]
    fn energy_arithmetic() {
        let a = Energy::from_pj(100.0);
        let b = Energy::from_pj(50.0);
        assert_eq!((a + b).as_pj(), 150.0);
        assert_eq!((a - b).as_pj(), 50.0);
        assert_eq!((a * 2.0).as_pj(), 200.0);
        assert_eq!(a / b, 2.0);
        let total: Energy = [a, b, b].into_iter().sum();
        assert_eq!(total.as_pj(), 200.0);
    }

    #[test]
    fn energy_display_scales() {
        assert_eq!(format!("{}", Energy::from_pj(12.0)), "12.000 pJ");
        assert_eq!(format!("{}", Energy::from_nj(3.9)), "3.900 nJ");
        assert_eq!(format!("{}", Energy::from_mj(32.6)), "32.600 mJ");
    }

    #[test]
    fn time_conversions_and_cycles() {
        let t = SimTime::from_us(1.0);
        assert_eq!(t.to_cycles(1.2e9), 1200);
        let back = SimTime::from_cycles(1200, 1.2e9);
        assert!((back.as_us() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_display_scales() {
        assert_eq!(format!("{}", SimTime::from_ns(2.5)), "2.500 ns");
        assert_eq!(format!("{}", SimTime::from_us(1.0)), "1.000 us");
        assert_eq!(format!("{}", SimTime::from_s(2.0)), "2.000 s");
    }

    #[test]
    fn edp_is_product_of_joules_and_seconds() {
        let e = Energy::from_mj(2.0);
        let t = SimTime::from_ms(3.0);
        assert!((edp(e, t) - 2.0e-3 * 3.0e-3).abs() < 1e-18);
    }

    #[test]
    fn time_max() {
        let a = SimTime::from_ns(5.0);
        let b = SimTime::from_ns(7.0);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
