//! Energy and latency constants of the CIM datapath (Table I).
//!
//! All constants are per-8-bit-operand figures: the 8-bit cell is realized
//! as two 4-bit PCM devices, and Table I already folds the doubling in
//! ("200 fJ (2x 100 fJ/4-bit PCM)").

use cim_machine::units::{Energy, SimTime};

/// Digital ALU operations per output column of one GEMV: the weighted
/// sum that recombines the MSB and LSB nibble columns of an 8-bit cell
/// (shift, add) and the subtraction of the offset-binary term, each
/// priced at [`PcmEnergyModel::alu_pj_per_op`] (Table I's 2.11 pJ).
pub const RECOMBINE_ALU_OPS_PER_COLUMN: u64 = 3;

/// Per-operation energy/latency model of the PCM crossbar and its
/// surrounding mixed-signal and digital circuitry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcmEnergyModel {
    /// Compute energy per active 8-bit cell per GEMV, in femtojoules.
    pub compute_fj_per_cell: f64,
    /// Write energy per 8-bit cell program, in picojoules.
    pub write_pj_per_cell: f64,
    /// Mixed-signal (DAC + S&H + ADC) energy per GEMV, in nanojoules.
    pub mixed_signal_nj_per_gemv: f64,
    /// Input/output buffer energy per byte access, in picojoules.
    pub buffer_pj_per_byte: f64,
    /// Digital weighted-sum energy per GEMV, in picojoules.
    pub weighted_sum_pj_per_gemv: f64,
    /// Energy per extra digital ALU operation, in picojoules.
    pub alu_pj_per_op: f64,
    /// DMA + micro-engine energy per GEMV, in nanojoules (paper bound).
    pub dma_engine_nj_per_gemv: f64,
    /// Crossbar row program latency, in nanoseconds per row (2.5 us).
    pub write_ns_per_row: f64,
    /// Crossbar compute latency per GEMV, in nanoseconds (1 us).
    pub compute_ns_per_gemv: f64,
}

impl Default for PcmEnergyModel {
    fn default() -> Self {
        PcmEnergyModel {
            compute_fj_per_cell: 200.0,
            write_pj_per_cell: 200.0,
            mixed_signal_nj_per_gemv: 3.9,
            buffer_pj_per_byte: 5.4,
            weighted_sum_pj_per_gemv: 40.0,
            alu_pj_per_op: 2.11,
            dma_engine_nj_per_gemv: 0.78,
            write_ns_per_row: 2500.0,
            compute_ns_per_gemv: 1000.0,
        }
    }
}

impl PcmEnergyModel {
    /// Energy for one GEMV touching `active_cells` 8-bit junctions.
    pub fn compute_energy(&self, active_cells: u64) -> Energy {
        Energy::from_fj(self.compute_fj_per_cell * active_cells as f64)
    }

    /// Energy for programming `cells` 8-bit cells.
    pub fn write_energy(&self, cells: u64) -> Energy {
        Energy::from_pj(self.write_pj_per_cell * cells as f64)
    }

    /// Mixed-signal energy for `gemvs` operations.
    pub fn mixed_signal_energy(&self, gemvs: u64) -> Energy {
        Energy::from_nj(self.mixed_signal_nj_per_gemv * gemvs as f64)
    }

    /// Buffer energy for `byte_accesses` row/column/output buffer accesses.
    pub fn buffer_energy(&self, byte_accesses: u64) -> Energy {
        Energy::from_pj(self.buffer_pj_per_byte * byte_accesses as f64)
    }

    /// Digital-logic energy: weighted sums plus extra ALU operations.
    pub fn digital_energy(&self, gemvs: u64, extra_alu_ops: u64) -> Energy {
        Energy::from_pj(
            self.weighted_sum_pj_per_gemv * gemvs as f64
                + self.alu_pj_per_op * extra_alu_ops as f64,
        )
    }

    /// DMA and micro-engine control energy for `gemvs` operations.
    pub fn dma_engine_energy(&self, gemvs: u64) -> Energy {
        Energy::from_nj(self.dma_engine_nj_per_gemv * gemvs as f64)
    }

    /// Time to program `rows` crossbar rows (row-parallel within a row,
    /// serial across rows).
    pub fn write_time(&self, rows: u64) -> SimTime {
        SimTime::from_ns(self.write_ns_per_row * rows as f64)
    }

    /// Time to execute `gemvs` crossbar operations.
    pub fn compute_time(&self, gemvs: u64) -> SimTime {
        SimTime::from_ns(self.compute_ns_per_gemv * gemvs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_i() {
        let m = PcmEnergyModel::default();
        assert_eq!(m.compute_fj_per_cell, 200.0);
        assert_eq!(m.write_pj_per_cell, 200.0);
        assert_eq!(m.mixed_signal_nj_per_gemv, 3.9);
        assert_eq!(m.buffer_pj_per_byte, 5.4);
        assert_eq!(m.weighted_sum_pj_per_gemv, 40.0);
        assert_eq!(m.alu_pj_per_op, 2.11);
        assert!(m.dma_engine_nj_per_gemv <= 0.78);
        assert_eq!(m.write_ns_per_row, 2500.0);
        assert_eq!(m.compute_ns_per_gemv, 1000.0);
    }

    #[test]
    fn full_crossbar_gemv_energy() {
        let m = PcmEnergyModel::default();
        // 256x256 cells x 200 fJ = 13.1 uJ... no: 65536 x 200 fJ = 13.1 nJ.
        let e = m.compute_energy(256 * 256);
        assert!((e.as_nj() - 13.1072).abs() < 1e-3);
    }

    #[test]
    fn full_crossbar_write_energy() {
        let m = PcmEnergyModel::default();
        // 65536 cells x 200 pJ = 13.1 uJ.
        let e = m.write_energy(256 * 256);
        assert!((e.as_uj() - 13.1072).abs() < 1e-3);
    }

    #[test]
    fn write_dominates_compute_per_cell() {
        let m = PcmEnergyModel::default();
        // The 1000x write/compute energy gap drives the GEMV-like losses.
        let ratio = m.write_energy(1) / m.compute_energy(1);
        assert!((ratio - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn latency_model() {
        let m = PcmEnergyModel::default();
        assert!((m.write_time(256).as_us() - 640.0).abs() < 1e-9);
        assert!((m.compute_time(128).as_us() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn digital_energy_combines_terms() {
        let m = PcmEnergyModel::default();
        let e = m.digital_energy(2, 10);
        assert!((e.as_pj() - (80.0 + 21.1)).abs() < 1e-9);
    }
}
