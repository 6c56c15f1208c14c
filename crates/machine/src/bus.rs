//! System bus and DMA transfer model.
//!
//! Host, main memory and the CIM accelerator share one interconnect
//! (Fig. 2 (a)). The bus provides two services the accelerator depends on:
//! port-mapped IO to the context registers, and burst DMA between main
//! memory and the accelerator buffers. Accelerator-side accesses are
//! uncacheable, which — together with the driver's pre-invocation flush —
//! enforces coherence over the shared region (Section II-E).

use crate::units::SimTime;

/// Who initiated a bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Initiator {
    /// The host CPU (PMIO register accesses, uncached loads/stores).
    Host,
    /// The accelerator's DMA engine.
    Dma,
}

/// Timing parameters of the interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Sustained DMA bandwidth in bytes per nanosecond (GB/s).
    pub dma_bytes_per_ns: f64,
    /// Fixed setup latency per DMA burst.
    pub dma_setup: SimTime,
    /// Latency of one port-mapped IO register access.
    pub pmio_access: SimTime,
}

impl Default for BusConfig {
    fn default() -> Self {
        // LPDDR3-933 x32: ~7.5 GB/s peak; sustain ~4 GB/s for DMA bursts.
        BusConfig {
            dma_bytes_per_ns: 4.0,
            dma_setup: SimTime::from_ns(200.0),
            pmio_access: SimTime::from_ns(50.0),
        }
    }
}

impl BusConfig {
    /// Time for a DMA burst of `bytes` (setup + sustained transfer; zero
    /// bytes are free). The single timing formula shared by the live bus
    /// and the accelerator's cost walk.
    pub fn dma_time(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            SimTime::ZERO
        } else {
            self.dma_setup + SimTime::from_ns(bytes as f64 / self.dma_bytes_per_ns)
        }
    }
}

/// Traffic counters for the bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// DMA bytes moved from memory to the accelerator.
    pub dma_bytes_in: u64,
    /// DMA bytes moved from the accelerator to memory.
    pub dma_bytes_out: u64,
    /// Number of DMA bursts.
    pub dma_bursts: u64,
    /// PMIO register reads+writes.
    pub pmio_accesses: u64,
}

/// The shared system interconnect.
#[derive(Debug, Default)]
pub struct SystemBus {
    cfg: BusConfig,
    stats: BusStats,
}

impl SystemBus {
    /// Creates a bus with the given timing configuration.
    pub fn new(cfg: BusConfig) -> Self {
        SystemBus { cfg, stats: BusStats::default() }
    }

    /// Bus timing configuration.
    pub fn config(&self) -> BusConfig {
        self.cfg
    }

    /// Traffic counters.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Resets traffic counters.
    pub fn reset_stats(&mut self) {
        self.stats = BusStats::default();
    }

    /// Time for a DMA burst of `bytes` and the bookkeeping for it.
    /// `into_accel` is true when memory is read into accelerator buffers.
    pub fn dma_burst(&mut self, bytes: u64, into_accel: bool) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        self.stats.dma_bursts += 1;
        if into_accel {
            self.stats.dma_bytes_in += bytes;
        } else {
            self.stats.dma_bytes_out += bytes;
        }
        self.cfg.dma_time(bytes)
    }

    /// Time for one PMIO context-register access.
    pub fn pmio_access(&mut self) -> SimTime {
        self.stats.pmio_accesses += 1;
        self.cfg.pmio_access
    }

    /// Pure estimate of a DMA burst time (no counters touched).
    pub fn estimate_dma(&self, bytes: u64) -> SimTime {
        self.cfg.dma_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_burst_time_scales_with_bytes() {
        let mut bus = SystemBus::new(BusConfig::default());
        let t1 = bus.dma_burst(4096, true);
        let t2 = bus.dma_burst(8192, true);
        assert!(t2 > t1);
        assert_eq!(bus.stats().dma_bursts, 2);
        assert_eq!(bus.stats().dma_bytes_in, 4096 + 8192);
        // setup 200ns + 4096/4 = 1024ns
        assert!((t1.as_ns() - 1224.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_burst_is_free() {
        let mut bus = SystemBus::new(BusConfig::default());
        assert_eq!(bus.dma_burst(0, false), SimTime::ZERO);
        assert_eq!(bus.stats().dma_bursts, 0);
    }

    #[test]
    fn pmio_counted() {
        let mut bus = SystemBus::new(BusConfig::default());
        bus.pmio_access();
        bus.pmio_access();
        assert_eq!(bus.stats().pmio_accesses, 2);
    }

    #[test]
    fn estimate_matches_measured() {
        let mut bus = SystemBus::new(BusConfig::default());
        let est = bus.estimate_dma(65536);
        let got = bus.dma_burst(65536, true);
        assert_eq!(est, got);
    }

    #[test]
    fn directions_tracked_separately() {
        let mut bus = SystemBus::new(BusConfig::default());
        bus.dma_burst(100, true);
        bus.dma_burst(50, false);
        assert_eq!(bus.stats().dma_bytes_in, 100);
        assert_eq!(bus.stats().dma_bytes_out, 50);
    }
}
