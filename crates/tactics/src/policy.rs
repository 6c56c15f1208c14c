//! Offload decision policies.
//!
//! The paper offloads every matched kernel ("our approach is completely
//! transparent"), which is [`OffloadPolicy::Always`]. The *Selective*
//! policy adds a TOM-style cost model (Related Work, \[22\]): it compares
//! the predicted accelerator energy — including the host-side wait — with
//! a host execution estimate and offloads only when beneficial. The
//! "Selective Geomean" series of Fig. 6 uses it.

use crate::kernels::MatchedKernel;
use cim_accel::estimate::{estimate_conv2d, estimate_gemm, estimate_gemv};
use cim_accel::{AccelConfig, AccelStats};
use cim_machine::bus::BusConfig;
use tdo_ir::Expr;

/// Which kernels to offload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OffloadPolicy {
    /// Offload every matched kernel (the paper's transparent flow).
    #[default]
    Always,
    /// Offload only kernels the cost model predicts to win.
    Selective,
}

/// Cost model parameters for the Selective policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Accelerator configuration used for estimates.
    pub accel: AccelConfig,
    /// Interconnect timing.
    pub bus: BusConfig,
    /// Host energy per instruction in pJ (Table I: 128).
    pub host_pj_per_inst: f64,
    /// Average host instructions per multiply-accumulate, calibrated
    /// against the costed interpreter (~12: address arithmetic, loads,
    /// multiply-adds, loop overhead share).
    pub host_insts_per_mac: f64,
    /// Host clock in Hz.
    pub host_freq_hz: f64,
    /// Whether the host spin-waits during accelerator runs (energy!).
    pub spin_wait: bool,
    /// Fixed per-call driver overhead in instructions (ioctl + flush +
    /// register writes).
    pub offload_overhead_insts: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            accel: AccelConfig::default(),
            bus: BusConfig::default(),
            host_pj_per_inst: 128.0,
            host_insts_per_mac: 12.0,
            host_freq_hz: 1.2e9,
            spin_wait: true,
            offload_overhead_insts: 6000.0,
        }
    }
}

/// Outcome of a cost-model query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Whether offloading is predicted to save energy.
    pub offload: bool,
    /// Predicted host-only energy in pJ.
    pub host_pj: f64,
    /// Predicted offloaded energy in pJ (device + host driver share).
    pub cim_pj: f64,
}

impl CostModel {
    fn beta_zero(beta: &Expr) -> bool {
        matches!(beta, Expr::Float(v) if *v == 0.0)
    }

    /// Accelerator estimate for a matched kernel: the statistics the
    /// accelerator reports for the call. With `resident`, the stationary
    /// operand is modeled as already installed on its tiles (a pinned
    /// reuse); only meaningful when [`CostModel::single_block`] holds
    /// for the operand. `None` for a convolution whose filter does not
    /// fit the accelerator's Toeplitz mapping.
    fn estimate_with(&self, k: &MatchedKernel, resident: bool) -> Option<AccelStats> {
        match k {
            MatchedKernel::Gemm(g) => Some(estimate_gemm(
                &self.accel,
                &self.bus,
                g.m,
                g.n,
                g.k,
                Self::beta_zero(&g.beta),
                resident,
            )),
            MatchedKernel::Gemv(g) => Some(estimate_gemv(
                &self.accel,
                &self.bus,
                g.m,
                g.k,
                Self::beta_zero(&g.beta),
                resident,
            )),
            MatchedKernel::Conv(c) => estimate_conv2d(&self.accel, &self.bus, c.h, c.w, c.fh, c.fw),
        }
    }

    /// Accelerator estimate for a matched kernel (cold: the stationary
    /// operand is installed by the call); `None` when the accelerator
    /// cannot run it.
    pub fn estimate(&self, k: &MatchedKernel) -> Option<AccelStats> {
        self.estimate_with(k, false)
    }

    /// Whether an `m x k` stationary operand occupies a single crossbar
    /// tile — the condition under which tile residency survives
    /// back-to-back kernels, so a pinned install is paid once.
    pub fn single_block(&self, m: usize, k: usize) -> bool {
        k <= self.accel.rows && m <= self.accel.cols
    }

    /// Stationary-operand extent `(m, k)` of a matched kernel, when it
    /// has one the runtime can keep resident.
    fn stationary_extent(k: &MatchedKernel) -> Option<(usize, usize)> {
        match k {
            MatchedKernel::Gemm(g) => Some((g.m, g.k)),
            MatchedKernel::Gemv(g) => Some((g.m, g.k)),
            MatchedKernel::Conv(_) => None,
        }
    }

    fn decision_from(&self, macs: u64, cim_energy_pj: f64, cim_time_s: f64) -> Decision {
        let host_pj = macs as f64 * self.host_insts_per_mac * self.host_pj_per_inst;
        let wait_pj = if self.spin_wait {
            // Spinning retires ~1 inst/cycle for the accelerator's busy time.
            cim_time_s * self.host_freq_hz * self.host_pj_per_inst
        } else {
            0.0
        };
        let cim_pj = cim_energy_pj + wait_pj + self.offload_overhead_insts * self.host_pj_per_inst;
        Decision { offload: cim_pj < host_pj, host_pj, cim_pj }
    }

    /// Compares offloaded vs host execution for a single, cold kernel
    /// invocation. A kernel the accelerator cannot run stays on the host
    /// at an infinite offload cost.
    pub fn decide(&self, k: &MatchedKernel) -> Decision {
        match self.estimate(k) {
            Some(est) => self.decision_from(k.macs(), est.total_energy().as_pj(), est.busy.as_s()),
            None => self.decision_from(k.macs(), f64::INFINITY, 0.0),
        }
    }

    /// Compares offloaded vs host execution for one call of a run of
    /// `uses` consecutive kernels reusing the same pinned stationary
    /// operand: the crossbar install is paid once (cold call), the
    /// remaining `uses - 1` calls run against resident tiles, and the
    /// decision is made on the per-call average. Falls back to
    /// [`CostModel::decide`] when residency cannot help — a single use,
    /// a multi-tile operand, or a kernel without a stationary operand.
    pub fn decide_reused(&self, k: &MatchedKernel, uses: usize) -> Decision {
        let resident_ok =
            uses > 1 && Self::stationary_extent(k).is_some_and(|(m, kk)| self.single_block(m, kk));
        if !resident_ok {
            return self.decide(k);
        }
        let (Some(cold), Some(warm)) = (self.estimate_with(k, false), self.estimate_with(k, true))
        else {
            return self.decide(k);
        };
        let n = uses as f64;
        let time_s = (cold.busy.as_s() + (n - 1.0) * warm.busy.as_s()) / n;
        let (cold_pj, warm_pj) = (cold.total_energy().as_pj(), warm.total_energy().as_pj());
        let energy_pj = (cold_pj + (n - 1.0) * warm_pj) / n;
        self.decision_from(k.macs(), energy_pj, time_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{GemmDesc, GemvDesc};
    use tdo_ir::ArrayId;

    fn gemm(n: usize) -> MatchedKernel {
        MatchedKernel::Gemm(GemmDesc {
            c: ArrayId(0),
            a: ArrayId(1),
            b: ArrayId(2),
            m: n,
            n,
            k: n,
            lda: n,
            ldb: n,
            ldc: n,
            trans_a: false,
            alpha: Expr::Float(1.0),
            beta: Expr::Float(0.0),
            stmt_ids: vec![0],
        })
    }

    fn gemv(n: usize) -> MatchedKernel {
        MatchedKernel::Gemv(GemvDesc {
            y: ArrayId(0),
            a: ArrayId(1),
            x: ArrayId(2),
            m: n,
            k: n,
            lda: n,
            trans_a: false,
            alpha: Expr::Float(1.0),
            beta: Expr::Float(1.0),
            stmt_ids: vec![0],
        })
    }

    #[test]
    fn large_gemm_wins_small_gemv_loses() {
        // The central asymmetry of Fig. 6: GEMM-like kernels amortize the
        // crossbar writes over O(n^3) MACs, GEMV-like kernels cannot.
        let cm = CostModel::default();
        let d = cm.decide(&gemm(256));
        assert!(d.offload, "gemm-256: cim {} vs host {}", d.cim_pj, d.host_pj);
        let d = cm.decide(&gemv(256));
        assert!(!d.offload, "gemv-256: cim {} vs host {}", d.cim_pj, d.host_pj);
    }

    #[test]
    fn spin_wait_matters_for_the_decision() {
        let mut cm = CostModel { spin_wait: true, ..CostModel::default() };
        let spin = cm.decide(&gemm(128)).cim_pj;
        cm.spin_wait = false;
        let idle = cm.decide(&gemm(128)).cim_pj;
        assert!(spin > idle);
    }

    #[test]
    fn tiny_kernels_never_offload_under_selective_costs() {
        let cm = CostModel::default();
        let d = cm.decide(&gemm(4));
        assert!(!d.offload, "4x4 gemm cannot amortize the driver overhead");
    }

    #[test]
    fn pinned_gemv_chain_flips_to_offload_once_residency_is_priced() {
        // A stationary-weight GEMV chain is the regression shape: cold,
        // every call pays the full crossbar install and loses to the
        // host; priced as a pinned run, the install amortizes away and
        // the chain flips to offload.
        let cm = CostModel::default();
        assert!(!cm.decide(&gemv(256)).offload, "cold gemv-256 must lose");
        assert_eq!(
            cm.decide_reused(&gemv(256), 1),
            cm.decide(&gemv(256)),
            "single use: no amortization"
        );
        let d = cm.decide_reused(&gemv(256), 8);
        assert!(d.offload, "8-deep pinned chain: cim {} vs host {}", d.cim_pj, d.host_pj);
        assert!(d.cim_pj < cm.decide(&gemv(256)).cim_pj, "amortized cost must drop");
    }

    #[test]
    fn reuse_amortization_requires_a_single_block_operand() {
        // A multi-wave stationary operand cannot stay resident, so reuse
        // must not change the decision.
        let cm = CostModel::default();
        let k = gemm(1024);
        assert_eq!(cm.decide_reused(&k, 16), cm.decide(&k));
    }
}
