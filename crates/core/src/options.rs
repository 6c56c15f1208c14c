//! Compilation and execution options.

use cim_accel::AccelConfig;
use cim_machine::MachineConfig;
use cim_runtime::{DispatchMode, DriverConfig};
use tdo_tactics::{PassId, TacticsConfig};

/// Options of the end-to-end pipeline — the two compilation strings of
/// Section IV: `clang -O3 -march=native` (host) and
/// `clang -O3 -march=native -enable-loop-tactics` (host + CIM).
///
/// The default is the full transparent flow: Loop Tactics detection
/// plus the whole compiler pass pipeline (sync hoisting, h2d elision,
/// capacity-aware pin placement). Use [`CompileOptions::host_only`] for
/// the host baseline and [`CompileOptions::without_dataflow`] for the
/// conservative point-wise schedule the differential suites compare
/// against.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// `-enable-loop-tactics`: run detection + offloading.
    pub enable_loop_tactics: bool,
    /// Loop Tactics configuration (policy, fusion, cost model).
    pub tactics: TacticsConfig,
    /// The compiler pass pipeline to run (in order) when Loop Tactics is
    /// enabled — see [`tdo_tactics::pass_manager`]. The default is the
    /// full pipeline, [`PassId::all`].
    pub passes: Vec<PassId>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            enable_loop_tactics: true,
            tactics: TacticsConfig::default(),
            passes: PassId::all().to_vec(),
        }
    }
}

impl CompileOptions {
    /// Host-only compilation (`clang -O3 -march=native`).
    pub fn host_only() -> Self {
        CompileOptions { enable_loop_tactics: false, ..CompileOptions::default() }
    }

    /// Transparent CIM offloading (`-enable-loop-tactics`) — the
    /// default: detection plus the full pass pipeline.
    pub fn with_tactics() -> Self {
        CompileOptions::default()
    }

    /// The legacy conservative schedule: detection and lowering only,
    /// every kernel bracketed by point-wise coherence syncs and every
    /// call installing its stationary operand cold. The Selective cost
    /// model prices installs per call again, matching the schedule that
    /// actually runs.
    pub fn without_dataflow() -> Self {
        let mut opts =
            CompileOptions { passes: vec![PassId::DetectOffload], ..CompileOptions::default() };
        opts.tactics.assume_residency = false;
        opts
    }

    /// Replaces the pass list (ablation studies).
    pub fn with_passes(mut self, ids: &[PassId]) -> Self {
        self.passes = ids.to_vec();
        self
    }
}

/// Options of the simulated execution environment.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Host platform configuration (Table I host column).
    pub machine: MachineConfig,
    /// Accelerator configuration (Table I CIM column).
    pub accel: AccelConfig,
    /// Driver cost configuration (wait policy, flush coverage).
    pub driver: DriverConfig,
    /// Record the accelerator event timeline (Fig. 2 (d)).
    pub record_timeline: bool,
}

impl ExecOptions {
    /// Retargets the accelerator to another device technology (keeps
    /// geometry and every other knob).
    pub fn with_device(mut self, device: cim_pcm::DeviceKind) -> Self {
        self.accel = self.accel.with_device(device);
        self
    }

    /// Reshapes the accelerator's tile grid to `(k_tiles, m_tiles)`.
    pub fn with_tile_grid(mut self, k_tiles: usize, m_tiles: usize) -> Self {
        self.accel = self.accel.with_grid(k_tiles, m_tiles);
        self
    }

    /// Sets the number of per-tile DMA channels the modeled device uses
    /// to install stationary operands — the fig10 sweep knob. With more
    /// than one channel, crossbar installs on disjoint tiles of a wave
    /// gather concurrently instead of serializing on one bus.
    ///
    /// ```
    /// use tdo_cim::ExecOptions;
    ///
    /// let opts = ExecOptions::default().with_dma_channels(4);
    /// assert_eq!(opts.accel.dma_channels, 4);
    /// // The default remains the paper's single shared DMA bus.
    /// assert_eq!(ExecOptions::default().accel.dma_channels, 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics (in [`cim_accel::AccelConfig::validate`]) when `channels`
    /// is zero or exceeds [`cim_accel::MAX_DMA_CHANNELS`].
    pub fn with_dma_channels(mut self, channels: usize) -> Self {
        self.accel = self.accel.with_dma_channels(channels);
        self
    }

    /// Resizes the CMA carve-out for workloads whose device-destined
    /// working set exceeds the platform default — e.g. XLarge GEMM
    /// chains, where `batch * layers` activation matrices plus weights
    /// must all be physically contiguous and shared.
    ///
    /// ```
    /// use tdo_cim::ExecOptions;
    ///
    /// let opts = ExecOptions::default().with_cma_bytes(512 * 1024 * 1024);
    /// assert_eq!(opts.machine.cma_bytes, 512 * 1024 * 1024);
    /// // The carve-out must stay inside physical memory.
    /// opts.machine.validate();
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the enlarged carve-out no longer fits below the top of
    /// physical memory.
    pub fn with_cma_bytes(mut self, bytes: u64) -> Self {
        self.machine.cma_bytes = bytes;
        let fits = self
            .machine
            .cma_base
            .checked_add(bytes)
            .is_some_and(|end| end <= self.machine.phys_mem_bytes);
        assert!(fits, "CMA carve-out of {bytes} bytes exceeds physical memory");
        self
    }

    /// Selects how `polly_cim*` calls reach the accelerator:
    /// [`DispatchMode::Sync`] blocks the host per invocation (the paper's
    /// spinlock), [`DispatchMode::Async`] submits and lets the host
    /// overlap its own compute until a result is observed.
    ///
    /// ```
    /// use cim_runtime::DispatchMode;
    /// use tdo_cim::ExecOptions;
    ///
    /// let opts = ExecOptions::default().with_dispatch(DispatchMode::Async);
    /// assert_eq!(opts.driver.dispatch, DispatchMode::Async);
    /// // The default remains the paper's blocking driver.
    /// assert_eq!(ExecOptions::default().driver.dispatch, DispatchMode::Sync);
    /// ```
    pub fn with_dispatch(mut self, mode: DispatchMode) -> Self {
        self.driver.dispatch = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(!CompileOptions::host_only().enable_loop_tactics);
        assert!(CompileOptions::with_tactics().enable_loop_tactics);
        // The default is the full pass pipeline — dataflow needs no opt-in.
        assert_eq!(CompileOptions::default().passes, PassId::all().to_vec());
        assert!(CompileOptions::default().enable_loop_tactics);
        let legacy = CompileOptions::without_dataflow();
        assert_eq!(legacy.passes, vec![PassId::DetectOffload]);
        assert!(!legacy.tactics.assume_residency);
        let e = ExecOptions::default();
        assert_eq!(e.accel.rows, 256);
    }

    #[test]
    fn device_and_grid_builders() {
        let e = ExecOptions::default().with_device(cim_pcm::DeviceKind::Reram).with_tile_grid(2, 2);
        assert_eq!(e.accel.device, cim_pcm::DeviceKind::Reram);
        assert_eq!(e.accel.grid, (2, 2));
        assert_eq!(e.accel.rows, 256);
    }

    #[test]
    fn dma_channel_builder() {
        let e = ExecOptions::default().with_dma_channels(4);
        assert_eq!(e.accel.dma_channels, 4);
        e.accel.validate();
    }

    #[test]
    fn cma_builder_resizes_carveout() {
        let e = ExecOptions::default().with_cma_bytes(512 * 1024 * 1024);
        assert_eq!(e.machine.cma_bytes, 512 * 1024 * 1024);
        e.machine.validate();
    }

    #[test]
    #[should_panic(expected = "exceeds physical memory")]
    fn cma_builder_rejects_oversized_carveout() {
        let _ = ExecOptions::default().with_cma_bytes(4 * 1024 * 1024 * 1024);
    }

    #[test]
    fn dispatch_builder() {
        let e = ExecOptions::default().with_dispatch(DispatchMode::Async);
        assert_eq!(e.driver.dispatch, DispatchMode::Async);
        assert_eq!(ExecOptions::default().driver.dispatch, DispatchMode::Sync);
    }
}
