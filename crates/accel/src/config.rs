//! Accelerator configuration (Table I, "CIM Parameter").

use cim_pcm::{AdcConfig, DeviceKind, Fidelity, PcmEnergyModel};

/// Most per-tile DMA channels a configuration may request: the driver
/// surfaces per-channel busy time in a fixed-size
/// `cim_runtime`-side array, so the knob is bounded.
pub const MAX_DMA_CHANNELS: usize = 8;

/// Static configuration of the CIM accelerator.
///
/// Besides the per-tile crossbar geometry, the configuration carries two
/// sweepable knobs: the resistive [`DeviceKind`] whose physics fills the
/// `adc`/`energy` fields ([`AccelConfig::for_device`]) and the
/// tile-grid shape `grid` over which oversized GEMMs are sharded
/// ([`AccelConfig::with_grid`]). `docs/DEVICES.md` tabulates both axes.
///
/// # Examples
///
/// Sweep tile grids for a GEMM four times larger than one crossbar and
/// check how many physical tiles each shape engages:
///
/// ```
/// use cim_accel::{AccelConfig, CimAccelerator};
/// use cim_accel::regs::{Command, Reg, Status};
/// use cim_machine::{Machine, MachineConfig};
///
/// for (grid, expect_tiles) in [((1, 1), 1), ((2, 1), 2), ((2, 2), 4)] {
///     let cfg = AccelConfig::test_small().with_grid(grid.0, grid.1);
///     assert_eq!(cfg.tile_count(), expect_tiles);
///
///     // 16x16 GEMM on 8x8 tiles: a 2x2 block grid.
///     let mut mach = Machine::new(MachineConfig::test_small());
///     let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
///     let n = 16usize;
///     let (_, a) = mach.alloc_cma((n * n * 4) as u64).unwrap();
///     let (_, b) = mach.alloc_cma((n * n * 4) as u64).unwrap();
///     let (_, c) = mach.alloc_cma((n * n * 4) as u64).unwrap();
///     let data: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32 - 3.0).collect();
///     mach.mem.write_f32_slice(a, &data);
///     mach.mem.write_f32_slice(b, &data);
///     for (r, v) in [(Reg::M, n as u64), (Reg::N, n as u64), (Reg::K, n as u64),
///                    (Reg::Lda, n as u64), (Reg::Ldb, n as u64), (Reg::Ldc, n as u64),
///                    (Reg::AddrA, a), (Reg::AddrB, b), (Reg::AddrC, c),
///                    (Reg::Alpha, 1.0f32.to_bits() as u64),
///                    (Reg::Beta, 0.0f32.to_bits() as u64),
///                    (Reg::Command, Command::Gemm as u64)] {
///         acc.pmio_write(r, v);
///     }
///     acc.execute(&mut mach);
///     assert_eq!(acc.regs().status(), Status::Done);
///     // All configured tiles absorb blocks of the 2x2 block grid.
///     assert_eq!(acc.stats().max_tiles_active, expect_tiles as u64);
/// }
/// ```
///
/// Sweep device models — same geometry, different physics:
///
/// ```
/// use cim_accel::AccelConfig;
/// use cim_pcm::DeviceKind;
///
/// let energies: Vec<f64> = DeviceKind::ALL
///     .iter()
///     .map(|&d| AccelConfig::for_device(d).energy.write_pj_per_cell)
///     .collect();
/// assert!(energies[0] > energies[1], "PCM writes cost more than ReRAM");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Crossbar word lines per tile — the stationary operand's *input*
    /// dimension capacity (paper: 256).
    pub rows: usize,
    /// Crossbar bit lines per tile — the stationary operand's *output*
    /// dimension capacity (paper: 256 logical 8-bit columns, realized as
    /// two 4-bit device columns each).
    pub cols: usize,
    /// Tile-grid shape `(k_tiles, m_tiles)`: how many physical tiles sit
    /// along the reduction (word-line) and output (bit-line) axes. The
    /// paper's accelerator is a single tile, `(1, 1)`; larger grids let
    /// the micro-engine shard oversized GEMMs across tiles that compute
    /// in parallel.
    pub grid: (usize, usize),
    /// Which resistive device technology the tiles are built from. This
    /// is a descriptive tag; the operative parameters live in `adc` and
    /// `energy` (use [`AccelConfig::for_device`] to keep them in sync).
    /// Every device stores [`cim_pcm::LEVELS`] levels per cell.
    pub device: DeviceKind,
    /// Shared-ADC configuration.
    pub adc: AdcConfig,
    /// Energy/latency constants.
    pub energy: PcmEnergyModel,
    /// Input/output buffer capacity in bytes per tile (paper: 1.5 KiB).
    pub buffer_bytes: usize,
    /// Numerical fidelity of the compute path.
    pub fidelity: Fidelity,
    /// Whether the micro-engine double-buffers DMA against compute
    /// (Section II-C).
    pub double_buffering: bool,
    /// Maximum number of timeline events retained.
    pub timeline_capacity: usize,
    /// Per-tile DMA channels feeding the crossbar install path. With one
    /// channel (the default, the paper's single modeled bus) every block
    /// gather of a wave serializes behind the previous one; with `c`
    /// channels a block destined for tile `t` of its wave queues on
    /// channel `t mod c`, so installs on disjoint tiles overlap their
    /// gathers. Bounded by [`MAX_DMA_CHANNELS`]. Row programming was
    /// always parallel across tiles; this knob only de-serializes the
    /// DMA leg of [`crate::shard::InstallClock`].
    pub dma_channels: usize,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            rows: 256,
            cols: 256,
            grid: (1, 1),
            device: DeviceKind::Pcm,
            adc: AdcConfig::default(),
            energy: PcmEnergyModel::default(),
            buffer_bytes: 1536,
            fidelity: Fidelity::Exact,
            double_buffering: true,
            timeline_capacity: 4096,
            dma_channels: 1,
        }
    }
}

impl AccelConfig {
    /// A small crossbar for fast unit tests.
    pub fn test_small() -> Self {
        AccelConfig { rows: 8, cols: 8, buffer_bytes: 64, ..AccelConfig::default() }
    }

    /// Paper-geometry configuration built from the given device model's
    /// parameters (ADC, energy/latency constants).
    pub fn for_device(kind: DeviceKind) -> Self {
        AccelConfig::default().with_device(kind)
    }

    /// Replaces the device technology, refreshing `adc` and `energy` from
    /// the device model while keeping geometry, buffers, fidelity and all
    /// other knobs.
    pub fn with_device(self, kind: DeviceKind) -> Self {
        let model = kind.model();
        AccelConfig { device: kind, adc: model.adc(), energy: model.energy(), ..self }
    }

    /// Sets the tile-grid shape `(k_tiles, m_tiles)`.
    pub fn with_grid(self, k_tiles: usize, m_tiles: usize) -> Self {
        AccelConfig { grid: (k_tiles, m_tiles), ..self }
    }

    /// Sets the number of per-tile DMA channels feeding the install
    /// path. `1` (the default) is the paper's single serial bus; more
    /// channels let a wave's block gathers on distinct tiles overlap.
    ///
    /// ```
    /// use cim_accel::AccelConfig;
    ///
    /// let cfg = AccelConfig::test_small().with_dma_channels(4);
    /// assert_eq!(cfg.dma_channels, 4);
    /// // The default stays the single serial install bus.
    /// assert_eq!(AccelConfig::test_small().dma_channels, 1);
    /// cfg.validate();
    /// ```
    pub fn with_dma_channels(self, channels: usize) -> Self {
        AccelConfig { dma_channels: channels, ..self }
    }

    /// Returns the configuration unchanged: the engine simulates every
    /// tile on the calling thread, so there is no worker count to set.
    /// Kept so that existing callers (the `perfbench` benchmark among
    /// them) still build.
    pub fn with_sim_threads(self, _threads: usize) -> Self {
        self
    }

    /// Number of physical tiles in the grid.
    pub fn tile_count(&self) -> usize {
        self.grid.0 * self.grid.1
    }

    /// Logical crossbar capacity in 8-bit cells, across all tiles.
    pub fn cells(&self) -> usize {
        self.rows * self.cols * self.tile_count()
    }

    /// Crossbar capacity in bytes (one byte per logical 8-bit cell).
    pub fn capacity_bytes(&self) -> usize {
        self.cells()
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry.
    pub fn validate(&self) {
        assert!(self.rows > 0 && self.cols > 0, "crossbar must be non-empty");
        assert!(self.grid.0 > 0 && self.grid.1 > 0, "tile grid must be non-empty");
        assert!(self.buffer_bytes > 0, "buffers must be non-empty");
        assert!(
            (1..=MAX_DMA_CHANNELS).contains(&self.dma_channels),
            "dma_channels must be in 1..={MAX_DMA_CHANNELS}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_i() {
        let c = AccelConfig::default();
        assert_eq!(c.rows, 256);
        assert_eq!(c.cols, 256);
        assert_eq!(c.grid, (1, 1));
        assert_eq!(c.device, DeviceKind::Pcm);
        assert_eq!(c.cells(), 65536);
        assert_eq!(c.buffer_bytes, 1536);
        c.validate();
    }

    #[test]
    fn small_config_valid() {
        AccelConfig::test_small().validate();
    }

    #[test]
    fn grid_scales_capacity() {
        let c = AccelConfig::default().with_grid(2, 2);
        assert_eq!(c.tile_count(), 4);
        assert_eq!(c.cells(), 4 * 65536);
        c.validate();
    }

    #[test]
    fn with_device_swaps_physics_keeps_geometry() {
        let c = AccelConfig::test_small().with_grid(2, 3).with_device(DeviceKind::Reram);
        assert_eq!(c.device, DeviceKind::Reram);
        assert_eq!(c.rows, 8);
        assert_eq!(c.grid, (2, 3));
        assert_eq!(c.energy, DeviceKind::Reram.model().energy());
        assert_eq!(c.adc, DeviceKind::Reram.model().adc());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "tile grid")]
    fn zero_grid_panics() {
        AccelConfig::default().with_grid(0, 1).validate();
    }

    #[test]
    fn dma_channel_builder_bounds() {
        let c = AccelConfig::default().with_dma_channels(4);
        assert_eq!(c.dma_channels, 4);
        c.validate();
        AccelConfig::default().with_dma_channels(MAX_DMA_CHANNELS).validate();
    }

    #[test]
    #[should_panic(expected = "dma_channels")]
    fn zero_dma_channels_panics() {
        AccelConfig::default().with_dma_channels(0).validate();
    }

    #[test]
    #[should_panic(expected = "dma_channels")]
    fn oversized_dma_channels_panics() {
        AccelConfig::default().with_dma_channels(MAX_DMA_CHANNELS + 1).validate();
    }
}
