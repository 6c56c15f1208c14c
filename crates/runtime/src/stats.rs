//! Runtime-library call statistics.

use std::fmt;

/// Counters for every entry point of the user-space API.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// `cim_init` calls.
    pub init_calls: u64,
    /// `cim_malloc` calls.
    pub malloc_calls: u64,
    /// Total bytes allocated on the device.
    pub bytes_allocated: u64,
    /// `cim_host_to_dev` calls.
    pub h2d_calls: u64,
    /// Bytes copied host-to-device.
    pub h2d_bytes: u64,
    /// `cim_dev_to_host` calls.
    pub d2h_calls: u64,
    /// Bytes copied device-to-host.
    pub d2h_bytes: u64,
    /// `cim_blas_sgemm` calls.
    pub gemm_calls: u64,
    /// `cim_blas_sgemv` calls.
    pub gemv_calls: u64,
    /// `cim_blas_gemm_batched` calls.
    pub gemm_batched_calls: u64,
    /// `cim_conv2d` calls.
    pub conv_calls: u64,
    /// Commands dispatched asynchronously (submitted without blocking).
    pub async_submits: u64,
    /// In-flight commands an observation point (h2d/d2h/coherence sync)
    /// left running because their operands did not overlap the observed
    /// buffer — each one is a wait the buffer-scoped doorbell avoided.
    pub selective_sync_skips: u64,
    /// `cim_pin` calls (compiler residency placement).
    pub pin_calls: u64,
    /// Kernels whose stationary operand was pinned and already installed
    /// — the pre-invocation flush of that operand was skipped and the
    /// engine reused the resident tiles.
    pub pin_hits: u64,
    /// Pinned ranges invalidated because a host write or free reached
    /// them through a runtime entry point.
    pub pin_invalidations: u64,
    /// Installed pins evicted from their tiles because a fresh pinned
    /// placement exceeded the grid's capacity (the entry stays pinned
    /// and re-installs on its next use — a capacity spill).
    pub pin_evictions: u64,
    /// Submissions by *this context* that found the shared submission
    /// queue full and stalled — the per-tenant attribution of
    /// [`crate::driver::DriverStats::queue_full_stalls`], so a noisy
    /// neighbor's backpressure shows up on the neighbor, not the victim.
    pub queue_full_stalls: u64,
    /// Kernel calls delayed by the serving scheduler's fairness policy
    /// (accumulated tile-time backlog exceeded the tenant's quota).
    pub sched_throttles: u64,
    /// Kernel calls delayed because the tenant exhausted its wear
    /// budget (endurance metering; see `serve::TenantConfig`).
    pub wear_throttles: u64,
}

impl RuntimeStats {
    /// Total accelerator-invoking calls.
    pub fn offload_calls(&self) -> u64 {
        self.gemm_calls + self.gemv_calls + self.gemm_batched_calls + self.conv_calls
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "runtime statistics:")?;
        writeln!(f, "  init/malloc      {:>8} / {:<8}", self.init_calls, self.malloc_calls)?;
        writeln!(f, "  h2d/d2h bytes    {:>8} / {:<8}", self.h2d_bytes, self.d2h_bytes)?;
        writeln!(
            f,
            "  gemm/gemv/batched/conv {:>4}/{}/{}/{}",
            self.gemm_calls, self.gemv_calls, self.gemm_batched_calls, self.conv_calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_calls_sums_kernel_entry_points() {
        let s = RuntimeStats {
            gemm_calls: 2,
            gemv_calls: 3,
            gemm_batched_calls: 1,
            conv_calls: 4,
            ..RuntimeStats::default()
        };
        assert_eq!(s.offload_calls(), 10);
    }

    #[test]
    fn display_is_non_empty() {
        assert!(RuntimeStats::default().to_string().contains("runtime statistics"));
    }
}
