//! Host platform configuration (Table I, "Host CPU Spec").

use crate::bus::BusConfig;
use crate::cache::{CacheConfig, MemLatency};
use crate::cpu::PipelineCosts;

/// Complete configuration of the simulated host platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Core clock frequency in Hz (paper: 1.2 GHz).
    pub freq_hz: f64,
    /// Number of Arm-A7 cores (paper: 2; kernels are single-threaded).
    pub cores: usize,
    /// Energy per retired instruction in pJ, including caches (paper: 128).
    pub pj_per_inst: f64,
    /// L1 data cache geometry (paper: 32 KiB).
    pub l1d: CacheConfig,
    /// Shared L2 geometry (paper: 2 MiB).
    pub l2: CacheConfig,
    /// Memory latencies.
    pub mem_latency: MemLatency,
    /// Pipeline issue costs.
    pub pipeline: PipelineCosts,
    /// Interconnect configuration.
    pub bus: BusConfig,
    /// Total physical memory in bytes (paper: 2 GiB LPDDR3).
    pub phys_mem_bytes: u64,
    /// Base physical address of the CMA carve-out for CIM shared buffers.
    pub cma_base: u64,
    /// Size of the CMA carve-out in bytes.
    pub cma_bytes: u64,
    /// Instructions charged per cache line flushed by the driver
    /// (address generation + `DC CIVAC` + loop overhead).
    pub flush_insts_per_line: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            freq_hz: 1.2e9,
            cores: 2,
            pj_per_inst: 128.0,
            l1d: CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 4 },
            l2: CacheConfig { size_bytes: 2 * 1024 * 1024, line_bytes: 64, ways: 8 },
            mem_latency: MemLatency::default(),
            pipeline: PipelineCosts::default(),
            bus: BusConfig::default(),
            phys_mem_bytes: 2 * 1024 * 1024 * 1024,
            cma_base: 0x6000_0000,
            cma_bytes: 256 * 1024 * 1024,
            flush_insts_per_line: 4,
        }
    }
}

impl MachineConfig {
    /// A scaled-down configuration for fast unit tests (same ratios,
    /// smaller caches and memory).
    pub fn test_small() -> Self {
        MachineConfig {
            l1d: CacheConfig { size_bytes: 4 * 1024, line_bytes: 64, ways: 2 },
            l2: CacheConfig { size_bytes: 64 * 1024, line_bytes: 64, ways: 4 },
            phys_mem_bytes: 64 * 1024 * 1024,
            cma_base: 0x0200_0000,
            cma_bytes: 16 * 1024 * 1024,
            ..MachineConfig::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (CMA outside physical memory,
    /// zero frequency, cache geometry errors).
    pub fn validate(&self) {
        assert!(self.freq_hz > 0.0, "frequency must be positive");
        assert!(self.cores >= 1, "need at least one core");
        assert!(self.pj_per_inst >= 0.0, "energy per instruction must be non-negative");
        assert!(
            self.cma_base.checked_add(self.cma_bytes).is_some_and(|e| e <= self.phys_mem_bytes),
            "CMA carve-out must fit in physical memory"
        );
        let _ = self.l1d.sets();
        let _ = self.l2.sets();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_i() {
        let c = MachineConfig::default();
        assert_eq!(c.freq_hz, 1.2e9);
        assert_eq!(c.cores, 2);
        assert_eq!(c.pj_per_inst, 128.0);
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.phys_mem_bytes, 2 * 1024 * 1024 * 1024);
        c.validate();
    }

    #[test]
    fn test_small_is_valid() {
        MachineConfig::test_small().validate();
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_set_count_panics() {
        // 48 KiB / 4 ways / 64 B lines = 192 sets: no bit-field set index.
        let l1d = CacheConfig { size_bytes: 48 * 1024, line_bytes: 64, ways: 4 };
        MachineConfig { l1d, ..MachineConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "CMA carve-out")]
    fn cma_outside_memory_panics() {
        let cfg = MachineConfig { cma_base: 4 * 1024 * 1024 * 1024, ..MachineConfig::test_small() };
        cfg.validate();
    }
}
