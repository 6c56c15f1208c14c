//! Multi-tenant serving layer: one shared tile grid, N client contexts.
//!
//! The rest of the stack runs one program in one [`CimContext`]; this
//! module makes the runtime a *server*. A [`CimServer`] owns a single
//! [`crate::api::CimDevice`] — accelerator, driver, reactor — and
//! hands out tenant contexts that all submit against it. Three
//! mechanisms multiplex the grid:
//!
//! - **Tile-region leases** space-multiplex: each tenant's single-block
//!   kernels are steered onto a leased [`GridRegion`], so tenants on
//!   disjoint leases overlap on the hardware exactly like the disjoint
//!   sub-regions of one program's async calls. Physical serialization
//!   stays where it always was — the per-region doorbells of the
//!   driver's [`crate::Reactor`] — so a lease is advisory placement,
//!   never a correctness mechanism.
//! - **A fairness policy** time-multiplexes contended regions: the
//!   scheduler meters each tenant's scheduled tile-time and delays the
//!   *birth* of new commands from a tenant whose backlog exceeds its
//!   weighted quota ([`FairnessPolicy::DeficitWeighted`]). Commands
//!   already in the reactor cannot be reordered, so host-side admission
//!   is the entire lever — and it bounds every victim's wait by the sum
//!   of its co-lessees' quotas plus one command's busy time.
//! - **Wear budgets** make endurance a metered shared resource: each
//!   install's cell writes are charged to the submitting tenant, a
//!   tenant past its budget pays a wear penalty at admission, and its
//!   lease is steered to the least-worn region
//!   ([`GridScheduler::lease_region`]) so one hot tenant cannot burn
//!   out a single tile.
//!
//! Isolation is bit-for-bit: engine numerics are independent of region
//! placement (the PR 2 sharding property), and tile residency is keyed
//! by `(base_pa, generation)`, so a neighbor stealing a tile merely
//! forces a re-install, never a wrong result. The differential property
//! suite (`tests/serving_props.rs`) pins any interleaving of N tenants
//! against each tenant alone on a private grid.

use std::cell::RefCell;
use std::rc::Rc;

use cim_accel::{partition_grid, AccelConfig, CimAccelerator, GridRegion};
use cim_machine::units::SimTime;
use cim_machine::Machine;

use crate::api::{CimContext, CimDevice, SharedDevice};
use crate::driver::{CimDriver, DriverConfig};
use crate::error::CimError;

/// Identity of a connected tenant — an index into the scheduler's
/// tenant table, stable for the lifetime of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// The tenant's slot in the scheduler's tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-tenant serving parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Fairness weight: a tenant's backlog quota scales linearly with
    /// it, so a weight-2 tenant may keep twice the scheduled tile-time
    /// in flight before admission throttles it. Zero is treated as 1.
    pub weight: u32,
    /// Cell-write budget: once the tenant's installs have consumed this
    /// many cell writes, admission adds the policy's wear penalty per
    /// call and the lease steers to the least-worn region. `None` is
    /// unmetered.
    pub wear_budget: Option<u64>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig { weight: 1, wear_budget: None }
    }
}

/// How contended regions are time-multiplexed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FairnessPolicy {
    /// No admission control: tenants submit as fast as they arrive and
    /// only the dispatch queue's doorbells order them. An adversarial
    /// tenant can starve its co-lessees — kept as the unfair baseline
    /// the fairness tests (and `fig11_serving`) compare against.
    Fifo,
    /// Deficit-weighted admission: a tenant whose scheduled-but-unretired
    /// tile-time backlog exceeds `backlog_quota * weight` idles until it
    /// is back inside its quota, and a tenant past its wear budget pays
    /// `wear_penalty` per call on top.
    DeficitWeighted {
        /// Backlog each unit of weight may keep in flight.
        backlog_quota: SimTime,
        /// Extra admission delay per call once the wear budget is spent.
        wear_penalty: SimTime,
    },
}

impl Default for FairnessPolicy {
    fn default() -> Self {
        FairnessPolicy::DeficitWeighted {
            backlog_quota: SimTime::from_us(25.0),
            wear_penalty: SimTime::from_us(10.0),
        }
    }
}

/// Server-wide scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServePolicy {
    /// How many lease regions to partition the grid into (0 = the
    /// finest partition, one region per tile). More tenants than
    /// regions is fine — they share leases and the doorbells serialize.
    pub regions: usize,
    /// The time-multiplexing policy for contended regions.
    pub fairness: FairnessPolicy,
}

/// What a tenant has consumed so far — the scheduler's ledger, and the
/// per-tenant rows of `fig11_serving`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantUsage {
    /// Kernel dispatches metered for this tenant.
    pub grants: u64,
    /// Scheduled tile-time: busy time x region tiles, summed.
    pub tile_ns: f64,
    /// Weighted virtual time (`tile_ns / weight`) — equal shares under
    /// saturation mean equal `vtime_ns` growth across tenants.
    pub vtime_ns: f64,
    /// Cell writes charged to this tenant's installs.
    pub wear_cells: u64,
    /// Host time admission control made this tenant idle.
    pub throttle_ns: f64,
    /// Admission delays caused by backlog over quota.
    pub backlog_throttles: u64,
    /// Admission delays caused by a spent wear budget.
    pub wear_throttles: u64,
    /// Lease moves forced by wear steering.
    pub steers: u64,
}

/// One leasable slice of the grid and how many tenants hold it.
#[derive(Debug, Clone, Copy)]
struct LeaseRegion {
    region: GridRegion,
    lessees: usize,
}

#[derive(Debug, Clone)]
struct TenantState {
    cfg: TenantConfig,
    lease: Option<usize>,
    usage: TenantUsage,
    /// Predicted retire instant of the tenant's latest command — the
    /// backlog admission measures against.
    scheduled_until: SimTime,
    connected: bool,
}

/// The shared-grid scheduler: lease assignment, fairness admission and
/// wear metering. Lives inside the [`crate::api::CimDevice`] so every
/// tenant context reaches it under the same borrow as the driver.
#[derive(Debug, Clone)]
pub struct GridScheduler {
    grid: (usize, usize),
    regions: Vec<LeaseRegion>,
    tenants: Vec<TenantState>,
    policy: ServePolicy,
}

impl GridScheduler {
    /// Builds a scheduler over `grid`, partitioned per the policy.
    pub fn new(grid: (usize, usize), policy: ServePolicy) -> Self {
        let want = if policy.regions == 0 { grid.0 * grid.1 } else { policy.regions };
        let regions = partition_grid(grid, want)
            .into_iter()
            .map(|region| LeaseRegion { region, lessees: 0 })
            .collect();
        GridScheduler { grid, regions, tenants: Vec::new(), policy }
    }

    /// The grid this scheduler multiplexes.
    pub fn grid(&self) -> (usize, usize) {
        self.grid
    }

    /// The active policy.
    pub fn policy(&self) -> &ServePolicy {
        &self.policy
    }

    /// Registers a tenant and returns its identity.
    pub fn connect(&mut self, cfg: TenantConfig) -> TenantId {
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(TenantState {
            cfg,
            lease: None,
            usage: TenantUsage::default(),
            scheduled_until: SimTime::ZERO,
            connected: true,
        });
        id
    }

    /// Reclaims the tenant's lease and marks it gone. Its usage ledger
    /// survives for post-mortem inspection.
    pub fn disconnect(&mut self, tid: TenantId) {
        let t = &mut self.tenants[tid.index()];
        if let Some(lease) = t.lease.take() {
            self.regions[lease].lessees -= 1;
        }
        t.connected = false;
    }

    /// Whether the tenant is still connected.
    pub fn connected(&self, tid: TenantId) -> bool {
        self.tenants[tid.index()].connected
    }

    /// The tenant's consumption ledger.
    pub fn usage(&self, tid: TenantId) -> &TenantUsage {
        &self.tenants[tid.index()].usage
    }

    /// The region the tenant currently leases, if any.
    pub fn lease_of(&self, tid: TenantId) -> Option<GridRegion> {
        self.tenants[tid.index()].lease.map(|i| self.regions[i].region)
    }

    /// The tenant's scheduled-but-unretired tile-time at `now` — the
    /// backlog the deficit admission measures against its quota. Under
    /// [`FairnessPolicy::DeficitWeighted`] this is bounded after every
    /// call by `backlog_quota * weight` plus the call's own busy time,
    /// which is what bounds every co-lessee's wait.
    pub fn backlog_of(&self, tid: TenantId, now: SimTime) -> SimTime {
        let t = &self.tenants[tid.index()];
        if t.scheduled_until > now {
            t.scheduled_until - now
        } else {
            SimTime::ZERO
        }
    }

    /// Admission decision for one kernel call at host time `now`:
    /// `(delay, backlog_throttled, wear_throttled)`. The delay is also
    /// charged to the tenant's ledger.
    pub fn admission(&mut self, tid: TenantId, now: SimTime) -> (SimTime, bool, bool) {
        let t = &mut self.tenants[tid.index()];
        let mut delay = SimTime::ZERO;
        let mut backlog_hit = false;
        let mut wear_hit = false;
        if let FairnessPolicy::DeficitWeighted { backlog_quota, wear_penalty } =
            self.policy.fairness
        {
            let backlog =
                if t.scheduled_until > now { t.scheduled_until - now } else { SimTime::ZERO };
            let quota = backlog_quota * t.cfg.weight.max(1) as f64;
            if backlog > quota {
                delay += backlog - quota;
                backlog_hit = true;
            }
            if t.cfg.wear_budget.is_some_and(|b| t.usage.wear_cells > b) {
                delay += wear_penalty;
                wear_hit = true;
            }
        }
        if delay > SimTime::ZERO {
            t.usage.throttle_ns += delay.as_ns();
        }
        if backlog_hit {
            t.usage.backlog_throttles += 1;
        }
        if wear_hit {
            t.usage.wear_throttles += 1;
        }
        (delay, backlog_hit, wear_hit)
    }

    /// The region the tenant's next single-block kernel should run on.
    ///
    /// First call assigns the least-loaded (then least-worn) region. A
    /// tenant past its wear budget is steered: if some region's tiles
    /// have absorbed strictly fewer cell writes than its current
    /// lease's, the lease moves there (counted in
    /// [`TenantUsage::steers`]); residency keyed by physical tile makes
    /// the move safe — the next install simply lands on the new region.
    pub fn lease_region(&mut self, tid: TenantId, accel: &CimAccelerator) -> Option<GridRegion> {
        let i = tid.index();
        if !self.tenants[i].connected {
            return None;
        }
        let over_budget = {
            let t = &self.tenants[i];
            t.cfg.wear_budget.is_some_and(|b| t.usage.wear_cells > b)
        };
        let wear = |r: &LeaseRegion| accel.region_cell_writes(&r.region);
        match self.tenants[i].lease {
            Some(cur) if !over_budget => Some(self.regions[cur].region),
            Some(cur) => {
                let best = self
                    .regions
                    .iter()
                    .enumerate()
                    .min_by_key(|(idx, r)| (wear(r), r.lessees, *idx))
                    .map(|(idx, _)| idx)
                    .expect("partition_grid yields at least one region");
                if best != cur && wear(&self.regions[best]) < wear(&self.regions[cur]) {
                    self.regions[cur].lessees -= 1;
                    self.regions[best].lessees += 1;
                    self.tenants[i].lease = Some(best);
                    self.tenants[i].usage.steers += 1;
                    Some(self.regions[best].region)
                } else {
                    Some(self.regions[cur].region)
                }
            }
            None => {
                let best = self
                    .regions
                    .iter()
                    .enumerate()
                    .min_by_key(|(idx, r)| (r.lessees, wear(r), *idx))
                    .map(|(idx, _)| idx)
                    .expect("partition_grid yields at least one region");
                self.regions[best].lessees += 1;
                self.tenants[i].lease = Some(best);
                Some(self.regions[best].region)
            }
        }
    }

    /// Meters a dispatched command: `busy` accelerator time on `region`
    /// retiring at `ready_at`, having programmed `cells` crossbar cells.
    pub fn note_dispatch(
        &mut self,
        tid: TenantId,
        region: GridRegion,
        busy: SimTime,
        ready_at: SimTime,
        cells: u64,
    ) {
        let t = &mut self.tenants[tid.index()];
        t.scheduled_until = t.scheduled_until.max(ready_at);
        let tile_ns = busy.as_ns() * region.tiles() as f64;
        t.usage.grants += 1;
        t.usage.tile_ns += tile_ns;
        t.usage.vtime_ns += tile_ns / t.cfg.weight.max(1) as f64;
        t.usage.wear_cells += cells;
    }
}

/// The serving front end: owns the [`SharedDevice`] and hands out
/// tenant contexts. All tenants share the device's reactor: one set of
/// submission slots and one in-flight command table across contexts.
#[derive(Debug)]
pub struct CimServer {
    device: SharedDevice,
}

impl CimServer {
    /// Builds a server around a fresh device built from `accel_cfg`.
    pub fn new(
        accel_cfg: AccelConfig,
        driver_cfg: DriverConfig,
        policy: ServePolicy,
        mach: &Machine,
    ) -> Self {
        let grid = accel_cfg.grid;
        let device = Rc::new(RefCell::new(CimDevice {
            accel: CimAccelerator::new(accel_cfg, mach.cfg.bus),
            driver: CimDriver::new(driver_cfg),
            scheduler: Some(GridScheduler::new(grid, policy)),
        }));
        CimServer { device }
    }

    /// The shared device (inspection; co-owned with every tenant).
    pub fn device(&self) -> SharedDevice {
        Rc::clone(&self.device)
    }

    /// Admits a tenant: registers it with the scheduler and returns its
    /// context over the shared device.
    pub fn connect(&mut self, cfg: TenantConfig) -> CimContext {
        let tid = self
            .device
            .borrow_mut()
            .scheduler
            .as_mut()
            .expect("a CimServer device always has a scheduler")
            .connect(cfg);
        CimContext::attach(self.device(), Some(tid))
    }

    /// Disconnects a tenant: in-flight commands are synchronized (its
    /// doorbells claimed), allocations released, and the lease
    /// reclaimed — see [`CimContext::disconnect`]. Consumes the context.
    ///
    /// # Errors
    ///
    /// As for [`CimContext::disconnect`].
    pub fn disconnect(&mut self, mach: &mut Machine, mut ctx: CimContext) -> Result<(), CimError> {
        ctx.disconnect(mach)
    }

    /// The tenant's consumption ledger (copied out of the scheduler).
    pub fn usage(&self, tid: TenantId) -> TenantUsage {
        *self
            .device
            .borrow()
            .scheduler
            .as_ref()
            .expect("a CimServer device always has a scheduler")
            .usage(tid)
    }

    /// The region the tenant currently leases, if any.
    pub fn lease_of(&self, tid: TenantId) -> Option<GridRegion> {
        self.device
            .borrow()
            .scheduler
            .as_ref()
            .expect("a CimServer device always has a scheduler")
            .lease_of(tid)
    }

    /// The tenant's scheduled-but-unretired backlog at `now` — see
    /// [`GridScheduler::backlog_of`].
    pub fn backlog_of(&self, tid: TenantId, now: SimTime) -> SimTime {
        self.device
            .borrow()
            .scheduler
            .as_ref()
            .expect("a CimServer device always has a scheduler")
            .backlog_of(tid, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_machine::MachineConfig;

    fn small_accel(mach: &Machine) -> CimAccelerator {
        CimAccelerator::new(AccelConfig::test_small().with_grid(2, 2), mach.cfg.bus)
    }

    #[test]
    fn leases_spread_over_least_loaded_regions() {
        let mach = Machine::new(MachineConfig::test_small());
        let accel = small_accel(&mach);
        let mut s = GridScheduler::new((2, 2), ServePolicy::default());
        let t0 = s.connect(TenantConfig::default());
        let t1 = s.connect(TenantConfig::default());
        let r0 = s.lease_region(t0, &accel).expect("lease");
        let r1 = s.lease_region(t1, &accel).expect("lease");
        assert!(!r0.overlaps(&r1), "fresh tenants get disjoint leases");
        // Leases are sticky for in-budget tenants.
        assert_eq!(s.lease_region(t0, &accel), Some(r0));
        assert_eq!(s.lease_of(t0), Some(r0));
    }

    #[test]
    fn disconnect_reclaims_the_lease() {
        let mach = Machine::new(MachineConfig::test_small());
        let accel = small_accel(&mach);
        let mut s = GridScheduler::new((1, 1), ServePolicy::default());
        let t0 = s.connect(TenantConfig::default());
        let t1 = s.connect(TenantConfig::default());
        let r0 = s.lease_region(t0, &accel).expect("lease");
        s.disconnect(t0);
        assert!(!s.connected(t0));
        assert_eq!(s.lease_of(t0), None);
        assert_eq!(s.lease_region(t0, &accel), None, "gone tenants lease nothing");
        // The freed slot is available again.
        assert_eq!(s.lease_region(t1, &accel), Some(r0));
    }

    #[test]
    fn backlog_over_quota_delays_admission_proportionally_to_weight() {
        let mut s = GridScheduler::new(
            (1, 1),
            ServePolicy {
                regions: 0,
                fairness: FairnessPolicy::DeficitWeighted {
                    backlog_quota: SimTime::from_us(10.0),
                    wear_penalty: SimTime::ZERO,
                },
            },
        );
        let light = s.connect(TenantConfig { weight: 1, wear_budget: None });
        let heavy = s.connect(TenantConfig { weight: 3, wear_budget: None });
        let region = GridRegion { origin: (0, 0), shape: (1, 1) };
        for tid in [light, heavy] {
            s.note_dispatch(tid, region, SimTime::from_us(25.0), SimTime::from_us(25.0), 0);
        }
        let (d_light, hit_light, _) = s.admission(light, SimTime::ZERO);
        let (d_heavy, hit_heavy, _) = s.admission(heavy, SimTime::ZERO);
        assert!(hit_light, "25us backlog > 10us quota");
        assert_eq!(d_light, SimTime::from_us(15.0));
        assert!(!hit_heavy, "25us backlog <= 3 * 10us quota");
        assert_eq!(d_heavy, SimTime::ZERO);
        assert!(s.usage(light).backlog_throttles == 1 && s.usage(heavy).backlog_throttles == 0);
        // Once the clock passes the backlog, admission is free again.
        let (d, hit, _) = s.admission(light, SimTime::from_us(30.0));
        assert_eq!(d, SimTime::ZERO);
        assert!(!hit);
    }

    #[test]
    fn fifo_policy_never_delays() {
        let mut s =
            GridScheduler::new((1, 1), ServePolicy { regions: 0, fairness: FairnessPolicy::Fifo });
        let t = s.connect(TenantConfig::default());
        let region = GridRegion { origin: (0, 0), shape: (1, 1) };
        s.note_dispatch(t, region, SimTime::from_ms(10.0), SimTime::from_ms(10.0), 1 << 30);
        assert_eq!(s.admission(t, SimTime::ZERO), (SimTime::ZERO, false, false));
    }

    #[test]
    fn spent_wear_budget_charges_the_penalty() {
        let mut s = GridScheduler::new((1, 1), ServePolicy::default());
        let t = s.connect(TenantConfig { weight: 1, wear_budget: Some(100) });
        let region = GridRegion { origin: (0, 0), shape: (1, 1) };
        s.note_dispatch(t, region, SimTime::ZERO, SimTime::ZERO, 101);
        let (delay, _, wear_hit) = s.admission(t, SimTime::ZERO);
        assert!(wear_hit);
        assert_eq!(delay, SimTime::from_us(10.0), "default wear penalty");
        assert_eq!(s.usage(t).wear_throttles, 1);
        assert!(s.usage(t).throttle_ns > 0.0);
    }

    #[test]
    fn usage_meters_tile_time_and_weighted_vtime() {
        let mut s = GridScheduler::new((2, 2), ServePolicy::default());
        let t = s.connect(TenantConfig { weight: 2, wear_budget: None });
        let region = GridRegion { origin: (0, 0), shape: (2, 1) };
        s.note_dispatch(t, region, SimTime::from_us(5.0), SimTime::from_us(5.0), 7);
        let u = s.usage(t);
        assert_eq!(u.grants, 1);
        assert_eq!(u.tile_ns, 10_000.0, "5us x 2 tiles");
        assert_eq!(u.vtime_ns, 5_000.0, "halved by weight 2");
        assert_eq!(u.wear_cells, 7);
    }
}
