//! Kernel-space CIM driver model.
//!
//! "At the lowest level of the stack, the kernel-space CIM driver reads
//! and writes to the context registers of the accelerator through a ioctl
//! system call. Besides, the driver translates the virtual address used by
//! the host processor to a physical address [...]. To enforce memory
//! coherence in the shared memory region, the kernel driver triggers a
//! cache flush on the host side before invoking the accelerator. [...]
//! The host can either wait on spinlock or continue with other tasks and
//! check the status of such register periodically" (Sections II-E, III).
//!
//! Every driver action is priced in host instructions (which the paper's
//! host energy model converts to energy at 128 pJ/inst). These overheads
//! are precisely what makes low-intensity GEMV-like kernels lose from
//! offloading in Fig. 6.

use cim_accel::regs::{Command, Reg, Status};
use cim_accel::{CimAccelerator, GridRegion};
use cim_machine::cpu::InstClass;
use cim_machine::units::SimTime;
use cim_machine::Machine;

use crate::api::DevPtr;
use crate::error::CimError;
use crate::reactor::{CmdRecord, Reactor};
use crate::serve::TenantId;

/// How the host waits for accelerator completion.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WaitPolicy {
    /// Busy-wait on the status register: the core burns ~1 inst/cycle for
    /// the whole accelerator run (paper default; counted in Fig. 6's
    /// "energy spent on the driver (host side)").
    #[default]
    Spin,
    /// WFE-style waiting: the clock advances without retiring
    /// instructions, except for a periodic status poll.
    Poll {
        /// Interval between status reads. Must be positive; see
        /// [`DriverConfig::validate`].
        interval: SimTime,
        /// Instructions per poll (wake, uncached load, compare, branch).
        insts_per_poll: u64,
    },
}

/// Smallest poll interval the wait path will honor, in nanoseconds:
/// below this the "sleep" degenerates into a spin and the poll-count
/// arithmetic divides by (nearly) zero, so [`CimDriver`] clamps to it
/// defensively even if a caller mutates the config after construction.
pub const MIN_POLL_INTERVAL_NS: f64 = 1.0;

/// How runtime calls reach the accelerator.
///
/// The paper's host "can either wait on spinlock or continue with other
/// tasks and check the status of such register periodically" (Section
/// III-B); `Sync` is the first half of that sentence, `Async` the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Every invocation blocks the host until the accelerator finishes
    /// (the historical behavior).
    #[default]
    Sync,
    /// Invocations return once the command is in the reactor; the host
    /// overlaps other work and pays only the *remaining* wait when an
    /// observation point claims the command ([`CimDriver::sync`]).
    Async,
}

/// What the pre-invocation cache flush covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushMode {
    /// Flush only the lines of the shared buffers involved in the call.
    #[default]
    Ranges,
    /// Flush the entire hierarchy (simplest driver, worst overhead).
    Full,
}

/// Instruction-cost parameters of the driver paths, and how the driver
/// dispatches, waits and flushes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Instructions per `ioctl` round trip (syscall + driver dispatch).
    pub ioctl_insts: u64,
    /// Instructions per context-register access beyond the bus time.
    pub reg_access_insts: u64,
    /// Instructions for the CMA allocation path.
    pub malloc_insts: u64,
    /// Fixed instructions to set up a flush loop.
    pub flush_base_insts: u64,
    /// Wait policy.
    pub wait: WaitPolicy,
    /// Dispatch mode: blocking invocations or submit/sync overlap.
    pub dispatch: DispatchMode,
    /// Flush coverage.
    pub flush: FlushMode,
    /// Slots in the reactor's submission queue: sequence `s` holds slot
    /// `s mod queue_capacity` until a sweep delivers it. A submission
    /// whose slot is still held stalls the host (counted in
    /// [`DriverStats::queue_full_stalls`]) until the holding command's
    /// doorbell is delivered.
    pub queue_capacity: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            ioctl_insts: 1500,
            reg_access_insts: 3,
            malloc_insts: 2000,
            flush_base_insts: 200,
            wait: WaitPolicy::Spin,
            dispatch: DispatchMode::Sync,
            flush: FlushMode::Ranges,
            queue_capacity: 64,
        }
    }
}

impl DriverConfig {
    /// Checks the configuration for values the wait path cannot honor.
    ///
    /// # Errors
    ///
    /// [`CimError::InvalidArg`] for a [`WaitPolicy::Poll`] interval below
    /// [`MIN_POLL_INTERVAL_NS`] — a zero interval would divide the poll
    /// count by zero and bill infinite poll instructions — or for a
    /// zero [`DriverConfig::queue_capacity`], which could never admit a
    /// submission.
    pub fn validate(&self) -> Result<(), CimError> {
        if let WaitPolicy::Poll { interval, .. } = self.wait {
            if interval.as_ns() < MIN_POLL_INTERVAL_NS {
                return Err(CimError::InvalidArg(format!(
                    "poll interval {interval} is below the {MIN_POLL_INTERVAL_NS} ns minimum"
                )));
            }
        }
        if self.queue_capacity == 0 {
            return Err(CimError::InvalidArg(
                "queue_capacity must hold at least one command".into(),
            ));
        }
        Ok(())
    }
}

/// Cumulative driver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriverStats {
    /// ioctl round trips.
    pub ioctls: u64,
    /// Context-register accesses.
    pub reg_accesses: u64,
    /// Cache lines flushed (valid).
    pub flush_lines: u64,
    /// Cache lines flushed that were dirty (written back).
    pub flush_dirty: u64,
    /// Wait time the host spent *spinning* on the status register —
    /// retired instructions, billed at pJ/inst (the Fig. 3 host-side
    /// driver energy).
    pub busy_wait_time: SimTime,
    /// Wait time the host spent *idle* (WFE between polls) — the clock
    /// advances but almost no instructions retire, so this time is
    /// nearly free in host energy.
    pub idle_wait_time: SimTime,
    /// Number of accelerator invocations (submits included).
    pub invocations: u64,
    /// Completion-status reads of any kind: PMIO status-register reads
    /// plus batched completion-queue head reads. The reactor's win is
    /// this counter collapsing — one CQ read services every in-flight
    /// command where the per-future wait loops each paid their own.
    pub status_reads: u64,
    /// Batched completion-queue sweeps the reactor performed.
    pub batched_polls: u64,
    /// Completions delivered by those sweeps (ratio to
    /// [`DriverStats::batched_polls`] = completions per poll).
    pub completions_polled: u64,
    /// Submissions that found their submission-queue slot held and
    /// stalled the host until a sweep freed it (queue-full
    /// backpressure).
    pub queue_full_stalls: u64,
}

impl DriverStats {
    /// Total time the host spent waiting on the accelerator, regardless
    /// of how (spinning or idling).
    pub fn total_wait_time(&self) -> SimTime {
        self.busy_wait_time + self.idle_wait_time
    }
}

/// Handle to a command dispatched with [`CimDriver::submit`]: its id,
/// the driver's prediction of when the accelerator will flip its status
/// register, and the command's busy time. A plain copy of three fields
/// of the command's [`CmdRecord`] — the reactor keeps the record, the
/// one table of in-flight commands, until [`CimDriver::sync`] claims it
/// by id, and only the sync charges the host its residual wait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CimFuture {
    /// Logical command id ([`CimAccelerator::last_cmd`]).
    pub cmd_id: u64,
    /// Predicted completion time (start + busy; start may be later than
    /// submission when earlier in-flight commands occupy the tiles).
    pub ready_at: SimTime,
    /// Accelerator busy time of the command itself.
    pub busy: SimTime,
}

/// The kernel driver.
#[derive(Debug, Clone)]
pub struct CimDriver {
    cfg: DriverConfig,
    stats: DriverStats,
    reactor: Reactor,
}

impl Default for CimDriver {
    fn default() -> Self {
        CimDriver::new(DriverConfig::default())
    }
}

impl CimDriver {
    /// Creates a driver with the given cost configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DriverConfig::validate`]
    /// (e.g. a zero [`WaitPolicy::Poll`] interval).
    pub fn new(cfg: DriverConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid driver configuration: {e}");
        }
        CimDriver { cfg, stats: DriverStats::default(), reactor: Reactor::new(cfg.queue_capacity) }
    }

    /// The completion reactor: the in-flight command table and the
    /// delivered completions.
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }

    /// Driver configuration.
    pub fn config(&self) -> &DriverConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Charges one ioctl round trip to the host.
    pub fn ioctl(&mut self, mach: &mut Machine) {
        self.stats.ioctls += 1;
        mach.core.retire(InstClass::Other, self.cfg.ioctl_insts);
    }

    /// Charges the CMA allocation path.
    pub fn charge_malloc(&mut self, mach: &mut Machine) {
        mach.core.retire(InstClass::Other, self.cfg.malloc_insts);
    }

    /// Translates a user virtual address for the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::InvalidPointer`] for unmapped addresses.
    pub fn translate(&self, mach: &Machine, va: u64) -> Result<u64, CimError> {
        mach.mmu.translate(va).map_err(|e| CimError::InvalidPointer(e.va))
    }

    /// Writes a batch of context registers over PMIO.
    pub fn write_regs(
        &mut self,
        mach: &mut Machine,
        acc: &mut CimAccelerator,
        regs: &[(Reg, u64)],
    ) {
        for (r, v) in regs {
            acc.pmio_write(*r, *v);
            self.charge_pmio(mach, InstClass::Store);
        }
    }

    /// Reads a context register over PMIO.
    pub fn read_reg(&mut self, mach: &mut Machine, acc: &CimAccelerator, r: Reg) -> u64 {
        self.charge_pmio(mach, InstClass::Load);
        acc.pmio_read(r)
    }

    /// Charges one context-register access: the bus round trip, the
    /// load or store itself and `reg_access_insts - 1` ALU instructions.
    fn charge_pmio(&mut self, mach: &mut Machine, access: InstClass) {
        let t = mach.bus.pmio_access();
        mach.core.idle_wait(t);
        mach.core.retire(access, 1);
        mach.core.retire(InstClass::IntAlu, self.cfg.reg_access_insts - 1);
        self.stats.reg_accesses += 1;
    }

    /// Flushes the host caches for the given physical ranges (or the whole
    /// hierarchy under [`FlushMode::Full`]), charging per-line work.
    pub fn flush_shared(&mut self, mach: &mut Machine, ranges: &[(u64, u64)]) {
        let (valid, dirty) = match self.cfg.flush {
            FlushMode::Full => mach.hier.flush_all(),
            FlushMode::Ranges => {
                let mut v = 0;
                let mut d = 0;
                for (pa, len) in ranges {
                    let (rv, rd) = mach.hier.flush_range(*pa, *len);
                    v += rv;
                    d += rd;
                }
                (v, d)
            }
        };
        self.stats.flush_lines += valid;
        self.stats.flush_dirty += dirty;
        // DC CIVAC loop: address generation + flush op per line, plus the
        // loop walking the range even over non-resident lines.
        let line = mach.cfg.l1d.line_bytes;
        let walked: u64 = match self.cfg.flush {
            FlushMode::Full => mach.cfg.l2.size_bytes / line,
            FlushMode::Ranges => ranges.iter().map(|(_, len)| len.div_ceil(line)).sum(),
        };
        let insts = self.cfg.flush_base_insts + walked * mach.cfg.flush_insts_per_line;
        mach.core.retire(InstClass::Other, insts);
    }

    /// Waits per the configured policy until `until` (no-op when the
    /// host is already there). Spun time lands in
    /// [`DriverStats::busy_wait_time`], polled (idle) time in
    /// [`DriverStats::idle_wait_time`]. Returns the number of polled
    /// wake-ups — zero for a spin or when there was nothing to wait for;
    /// the caller bills the status reads.
    fn wait_until(&mut self, mach: &mut Machine, until: SimTime) -> u64 {
        let now = mach.now();
        if until <= now {
            return 0;
        }
        let remaining = until - now;
        match self.cfg.wait {
            WaitPolicy::Spin => {
                mach.core.spin_wait(remaining);
                self.stats.busy_wait_time += remaining;
                0
            }
            WaitPolicy::Poll { interval, insts_per_poll } => {
                // The core idles between periodic wake-ups and the
                // wake-up instructions overlap the wait window, so
                // exactly `remaining` elapses — a wait completing on its
                // first poll must not overshoot by the poll's
                // instruction time. Clamped defensively: see
                // `MIN_POLL_INTERVAL_NS`.
                let iv_ns = interval.as_ns().max(MIN_POLL_INTERVAL_NS);
                let polls = (remaining.as_ns() / iv_ns).ceil().max(1.0) as u64;
                let before = mach.core.elapsed();
                mach.core.retire(InstClass::Other, polls * insts_per_poll);
                let inst_time = mach.core.elapsed() - before;
                if remaining > inst_time {
                    mach.core.idle_wait(remaining - inst_time);
                }
                self.stats.idle_wait_time += remaining;
                polls
            }
        }
    }

    /// One batched host sweep of the completion queue, billed as
    /// `polls` status reads: every doorbell visible by `horizon` is
    /// delivered at once.
    fn poll_reactor(&mut self, horizon: SimTime, polls: u64) {
        let delivered = self.reactor.poll(horizon);
        self.stats.batched_polls += polls;
        self.stats.status_reads += polls;
        self.stats.completions_polled += delivered as u64;
    }

    /// Blocks the host until the submission queue can admit another
    /// command — queue-full backpressure. Each stall waits (per the
    /// configured policy) for the in-flight command holding the needed
    /// slot, then sweeps the completion queue to free it.
    fn admit(&mut self, mach: &mut Machine) {
        while !self.reactor.can_submit() {
            self.stats.queue_full_stalls += 1;
            let wake = self
                .reactor
                .blocking_ready_at()
                .expect("a full submission queue implies an in-flight holding command");
            let polls = self.wait_until(mach, wake).max(1);
            // Cycle-granular waits can land a fraction of a cycle short
            // of `wake`; sweep at the later of the two so the holding
            // command's doorbell is guaranteed to be delivered.
            self.poll_reactor(mach.now().max(wake), polls);
        }
    }

    /// Triggers the armed command without waiting for it. The command
    /// occupies `region` (which the caller must also have armed via
    /// [`cim_accel::regs::Reg::Region`]) and declares the physical
    /// ranges it reads and writes. It executes (functionally) at
    /// submission; the reactor's in-flight table holds its modeled start
    /// behind unclaimed work it conflicts with — shared tiles or a
    /// PA-range data dependence — and lets it overlap everything else,
    /// so separate runtime calls on disjoint regions run concurrently.
    /// The record also keeps the submitting tenant (`owner`) and the
    /// runtime `scratch` the command reads, both handed back when
    /// [`CimDriver::sync`] claims it. The host is free to "continue with
    /// other tasks" ([`Machine::advance_host`]) until it pays the
    /// *remaining* wait in that sync.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::InvalidArg`] if the armed command is
    /// [`Command::Nop`], which starts nothing and takes no command id,
    /// and [`CimError::Device`] if the engine flagged an error. Either
    /// way the command never entered the reactor.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &mut self,
        mach: &mut Machine,
        acc: &mut CimAccelerator,
        region: GridRegion,
        reads: &[(u64, u64)],
        writes: &[(u64, u64)],
        owner: Option<TenantId>,
        scratch: Option<DevPtr>,
    ) -> Result<CimFuture, CimError> {
        if acc.pmio_read(Reg::Command) == Command::Nop as u64 {
            return Err(CimError::InvalidArg("no command armed: a Nop starts nothing".into()));
        }
        self.stats.invocations += 1;
        // The doorbell cannot ring until the submission queue has a
        // slot: a full queue stalls the host first, which pushes the
        // start instant (and everything behind it) later.
        self.admit(mach);
        let now = mach.now();
        let start = self.reactor.earliest_start(region, reads, writes, now);
        let dur = acc.execute_at(mach, start);
        if acc.regs().status() == Status::Error {
            let e = acc.last_error().cloned().expect("error status implies last_error");
            return Err(CimError::Device(e));
        }
        // Commands still running at our start instant are, by
        // construction, conflict-free with us — disjoint sub-regions
        // whose tile counts are exact. Account the cross-command
        // concurrency (the engine only sees inside a single command).
        let busy = self.reactor.tiles_busy_at(start);
        if busy > 0 {
            acc.note_tiles_active(busy + region.tiles() as u64);
        }
        let future = CimFuture { cmd_id: acc.last_cmd(), ready_at: start + dur, busy: dur };
        let rec = CmdRecord {
            cmd_id: future.cmd_id,
            ready_at: future.ready_at,
            busy: dur,
            region,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
            owner,
            scratch,
        };
        self.reactor.submit(rec).expect("admit() guaranteed a free submission slot");
        Ok(future)
    }

    /// Waits for the submitted command `cmd_id` and claims its record,
    /// applying the [`WaitPolicy`] only to the time remaining after
    /// whatever host work overlapped the accelerator run — zero when the
    /// host caught up late. Spun wait time lands in
    /// [`DriverStats::busy_wait_time`], polled (idle) wait in
    /// [`DriverStats::idle_wait_time`]. The command already succeeded
    /// at submission, so a sync of a submitted command cannot fail; the
    /// returned record carries its busy time and the scratch its caller
    /// must free.
    ///
    /// # Errors
    ///
    /// [`CimError::InvalidArg`] if `cmd_id` has no unclaimed record — it
    /// was never submitted, or it was already claimed. The error is
    /// returned before any wait, register read or charge.
    pub fn sync(
        &mut self,
        mach: &mut Machine,
        acc: &mut CimAccelerator,
        cmd_id: u64,
    ) -> Result<CmdRecord, CimError> {
        if let Some(rec) = self.reactor.claim(cmd_id) {
            // An earlier batched sweep already delivered this command's
            // doorbell: the completion record sits in host memory, so
            // the sync costs nothing — no wait, no device access.
            return Ok(rec);
        }
        let Some(ready_at) = self.reactor.record(cmd_id).map(|rec| rec.ready_at) else {
            return Err(CimError::InvalidArg(format!("command {cmd_id} has no unclaimed record")));
        };
        let waited_polls = self.wait_until(mach, ready_at);
        let polls = match self.cfg.wait {
            WaitPolicy::Spin => {
                // The spin loop ends on the PMIO read observing the
                // status flip; the read doubles as the batched doorbell
                // sweep for everything else that retired meanwhile.
                let _ = self.read_reg(mach, acc, Reg::Status);
                1
            }
            WaitPolicy::Poll { insts_per_poll, .. } => {
                // Polled wake-ups read the completion-queue head in
                // cacheable shared memory — no PMIO. A command found
                // already complete costs one such read.
                if waited_polls == 0 {
                    mach.core.retire(InstClass::Other, insts_per_poll);
                }
                waited_polls.max(1)
            }
        };
        // Cycle-granular waits can land a fraction of a cycle short of
        // `ready_at`; sweep at the later of the two so this command's
        // doorbell is guaranteed to be delivered.
        self.poll_reactor(mach.now().max(ready_at), polls);
        Ok(self.reactor.claim(cmd_id).expect("the sweep delivered the command's doorbell"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_accel::AccelConfig;
    use cim_machine::MachineConfig;

    fn setup() -> (Machine, CimAccelerator, CimDriver) {
        let mach = Machine::new(MachineConfig::test_small());
        let acc = CimAccelerator::new(AccelConfig::test_small(), mach.cfg.bus);
        (mach, acc, CimDriver::new(DriverConfig::default()))
    }

    /// Submits the armed command on the whole grid, declaring no ranges.
    fn submit(
        mach: &mut Machine,
        acc: &mut CimAccelerator,
        drv: &mut CimDriver,
    ) -> Result<CimFuture, CimError> {
        let grid = GridRegion::full(acc.config().grid);
        drv.submit(mach, acc, grid, &[], &[], None, None)
    }

    /// Blocking counterpart of [`submit`]: submit, then sync at once.
    fn invoke(
        mach: &mut Machine,
        acc: &mut CimAccelerator,
        drv: &mut CimDriver,
    ) -> Result<SimTime, CimError> {
        let future = submit(mach, acc, drv)?;
        Ok(drv.sync(mach, acc, future.cmd_id)?.busy)
    }

    fn arm_identity_gemv(mach: &mut Machine, acc: &mut CimAccelerator, drv: &mut CimDriver) -> u64 {
        let (_v, a) = mach.alloc_cma(64).expect("cma");
        let (_v, x) = mach.alloc_cma(64).expect("cma");
        let (_v, y) = mach.alloc_cma(64).expect("cma");
        mach.mem.write_f32_run(a, 4, &[1.0, 0.0, 0.0, 1.0]);
        mach.mem.write_f32_run(x, 4, &[5.0, -3.0]);
        drv.write_regs(
            mach,
            acc,
            &[
                (Reg::M, 2),
                (Reg::K, 2),
                (Reg::Lda, 2),
                (Reg::AddrA, a),
                (Reg::AddrB, x),
                (Reg::AddrC, y),
                (Reg::Alpha, 1.0f32.to_bits() as u64),
                (Reg::Beta, 0.0f32.to_bits() as u64),
                (Reg::Command, Command::Gemv as u64),
            ],
        );
        y
    }

    #[test]
    fn ioctl_charges_instructions() {
        let (mut mach, _acc, mut drv) = setup();
        let before = mach.core.instructions();
        drv.ioctl(&mut mach);
        assert_eq!(mach.core.instructions() - before, 1500);
        assert_eq!(drv.stats().ioctls, 1);
    }

    #[test]
    fn reg_writes_cost_time_and_instructions() {
        let (mut mach, mut acc, mut drv) = setup();
        let t0 = mach.now();
        drv.write_regs(&mut mach, &mut acc, &[(Reg::M, 4), (Reg::N, 4)]);
        assert_eq!(acc.pmio_read(Reg::M), 4);
        assert!(mach.now() > t0); // PMIO latency advanced the clock
        assert_eq!(drv.stats().reg_accesses, 2);
    }

    #[test]
    fn spin_wait_burns_host_instructions() {
        let (mut mach, mut acc, mut drv) = setup();
        let y = arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let insts_before = mach.core.instructions();
        let dur = invoke(&mut mach, &mut acc, &mut drv).expect("gemv ok");
        assert!(dur.as_us() > 1.0); // at least one row-program + compute

        // Spin burns about one instruction per cycle of the wait, and the
        // whole wait is accounted as busy (host-energy-relevant) time.
        let spin = mach.core.spin_instructions();
        assert!(spin as f64 >= dur.to_cycles(mach.cfg.freq_hz) as f64 * 0.9);
        assert!(mach.core.instructions() > insts_before + spin);
        assert_eq!(drv.stats().busy_wait_time, dur);
        assert_eq!(drv.stats().idle_wait_time, SimTime::ZERO);
        assert_eq!(drv.stats().total_wait_time(), dur);
        assert_eq!(mach.mem.read_f32(y), 5.0);
    }

    #[test]
    fn poll_wait_retires_far_fewer_instructions() {
        let (mut mach, mut acc, mut drv) = setup();
        drv.cfg.wait = WaitPolicy::Poll { interval: SimTime::from_us(10.0), insts_per_poll: 20 };
        arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let before = mach.core.instructions();
        let dur = invoke(&mut mach, &mut acc, &mut drv).expect("gemv ok");
        let retired = mach.core.instructions() - before;
        assert!(retired < dur.to_cycles(mach.cfg.freq_hz) / 10);
        assert_eq!(mach.core.spin_instructions(), 0);
        // But the clock still advanced by the accelerator time, and the
        // wait is accounted as idle — the host was asleep, not burning
        // instructions, so it must not be billed as spin energy.
        assert!(mach.now() >= dur);
        assert_eq!(drv.stats().idle_wait_time, dur);
        assert_eq!(drv.stats().busy_wait_time, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "poll interval")]
    fn zero_poll_interval_rejected_at_construction() {
        let cfg = DriverConfig {
            wait: WaitPolicy::Poll { interval: SimTime::ZERO, insts_per_poll: 20 },
            ..DriverConfig::default()
        };
        let _ = CimDriver::new(cfg);
    }

    #[test]
    fn zero_poll_interval_clamped_in_wait_path() {
        // A config mutated after construction bypasses `validate`; the
        // wait path must still clamp rather than divide by zero.
        let (mut mach, mut acc, mut drv) = setup();
        drv.cfg.wait = WaitPolicy::Poll { interval: SimTime::ZERO, insts_per_poll: 2 };
        arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let reads_before = drv.stats().status_reads;
        let dur = invoke(&mut mach, &mut acc, &mut drv).expect("gemv ok");
        // One poll per clamped (1 ns) interval at most — finite and sane
        // (+1 for a final confirming read).
        let max_polls = dur.as_ns().ceil() as u64 + 1;
        assert!(drv.stats().status_reads - reads_before <= max_polls + 1);
    }

    #[test]
    fn sync_without_unclaimed_record_is_an_error() {
        // A never-submitted id (while another command is in flight) and
        // an id synced twice: each is an error that waits, reads and
        // charges nothing.
        let (mut mach, mut acc, mut drv) = setup();
        arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let fut = submit(&mut mach, &mut acc, &mut drv).expect("submit ok");
        for (cmd_id, claim_first) in [(fut.cmd_id + 1, false), (fut.cmd_id, true)] {
            if claim_first {
                drv.sync(&mut mach, &mut acc, cmd_id).expect("the first sync claims the record");
            }
            let (now, insts, stats) = (mach.now(), mach.core.instructions(), drv.stats());
            match drv.sync(&mut mach, &mut acc, cmd_id) {
                Err(CimError::InvalidArg(msg)) => {
                    assert_eq!(msg, format!("command {cmd_id} has no unclaimed record"))
                }
                other => panic!("sync of {cmd_id}: expected InvalidArg, got {other:?}"),
            }
            assert_eq!(mach.now(), now);
            assert_eq!(mach.core.instructions(), insts);
            assert_eq!(drv.stats(), stats);
        }
    }

    #[test]
    fn first_poll_completion_charges_only_elapsed_time() {
        // Regression: a polled wait that completes on its first status
        // read used to append the poll's instruction time *after* the
        // idle window, overshooting the completion instant by a full
        // poll. The wake-up instructions must overlap the wait.
        let (mut mach, mut acc, mut drv) = setup();
        let insts_per_poll = 200;
        drv.cfg.wait = WaitPolicy::Poll { interval: SimTime::from_us(10_000.0), insts_per_poll };
        arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let fut = submit(&mut mach, &mut acc, &mut drv).expect("submit ok");
        drv.sync(&mut mach, &mut acc, fut.cmd_id).expect("submitted");
        let cycle_ns = 1e9 / mach.cfg.freq_hz;
        let over = mach.now().as_ns() - fut.ready_at.as_ns();
        assert!(
            over.abs() <= cycle_ns,
            "wait must end at ready_at (off by {over} ns, > one cycle)"
        );
        assert_eq!(drv.stats().batched_polls, 1, "one coarse poll");
        assert_eq!(drv.stats().status_reads, 1);
        assert_eq!(drv.stats().completions_polled, 1);
        assert_eq!(drv.stats().idle_wait_time, fut.busy);
    }

    #[test]
    fn batched_poll_makes_earlier_sync_free() {
        // Two chained commands; syncing the *later* one sweeps both
        // doorbells in one batched read, so the earlier sync costs
        // nothing — no wait, no device access, no clock movement.
        let (mut mach, mut acc, mut drv) = setup();
        arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let f1 = submit(&mut mach, &mut acc, &mut drv).expect("first");
        drv.write_regs(&mut mach, &mut acc, &[(Reg::Command, Command::Gemv as u64)]);
        let f2 = submit(&mut mach, &mut acc, &mut drv).expect("second");
        drv.sync(&mut mach, &mut acc, f2.cmd_id).expect("submitted");
        assert_eq!(drv.stats().completions_polled, 2, "one sweep delivered both");
        let (insts, cycles) = mach.core.checkpoint();
        let reads = drv.stats().status_reads;
        drv.sync(&mut mach, &mut acc, f1.cmd_id).expect("submitted");
        assert_eq!(mach.core.checkpoint(), (insts, cycles), "claim is free");
        assert_eq!(drv.stats().status_reads, reads, "no extra status read");
        assert_eq!(drv.reactor().in_flight(), 0);
        assert_eq!(drv.reactor().unclaimed(), 0);
    }

    #[test]
    #[should_panic(expected = "queue_capacity")]
    fn zero_queue_capacity_rejected_at_construction() {
        let cfg = DriverConfig { queue_capacity: 0, ..DriverConfig::default() };
        let _ = CimDriver::new(cfg);
    }

    #[test]
    fn submit_then_sync_overlaps_host_work() {
        // Reference: fully blocking invocation.
        let (mut mach_ref, mut acc_ref, mut drv_ref) = setup();
        arm_identity_gemv(&mut mach_ref, &mut acc_ref, &mut drv_ref);
        let t_ref0 = mach_ref.now();
        let dur = invoke(&mut mach_ref, &mut acc_ref, &mut drv_ref).expect("gemv ok");
        let blocked = mach_ref.now() - t_ref0;

        // Async: submit, overlap half the accelerator time with useful
        // host work, then sync for the remainder.
        let (mut mach, mut acc, mut drv) = setup();
        let y = arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let t0 = mach.now();
        let fut = submit(&mut mach, &mut acc, &mut drv).expect("submit ok");
        assert_eq!(drv.reactor().in_flight(), 1);
        assert_eq!(fut.busy, dur);
        let overlapped = mach.advance_host(dur * 0.5);
        assert!(overlapped > 0);
        drv.sync(&mut mach, &mut acc, fut.cmd_id).expect("submitted");
        assert_eq!(drv.reactor().in_flight(), 0);
        assert_eq!(drv.reactor().unclaimed(), 0);
        let total = mach.now() - t0;
        // Same wall time as the blocking run (the accelerator bounds it)...
        assert!((total.as_ns() - blocked.as_ns()).abs() < 1.0, "{total} vs {blocked}");
        // ...but only the un-overlapped half was spent waiting.
        let waited = drv.stats().busy_wait_time;
        assert!(waited < dur * 0.6, "waited {waited} of {dur}");
        assert!(mach.core.spin_instructions() < mach_ref.core.spin_instructions());
        assert_eq!(mach.mem.read_f32(y), 5.0);
    }

    #[test]
    fn sync_after_completion_charges_no_wait() {
        let (mut mach, mut acc, mut drv) = setup();
        arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let fut = submit(&mut mach, &mut acc, &mut drv).expect("submit ok");
        // Host outruns the accelerator: overlap more than the busy time.
        mach.advance_host(fut.busy * 2.0);
        let spin_before = mach.core.spin_instructions();
        drv.sync(&mut mach, &mut acc, fut.cmd_id).expect("submitted");
        assert_eq!(mach.core.spin_instructions(), spin_before, "no residual wait");
        assert_eq!(drv.stats().busy_wait_time, SimTime::ZERO);
    }

    #[test]
    fn queue_serializes_overlapping_regions() {
        let (mut mach, mut acc, mut drv) = setup();
        arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let f1 = submit(&mut mach, &mut acc, &mut drv).expect("first");
        // Second command on the same (full-grid) region: the queue holds
        // it until the first command's predicted completion.
        drv.write_regs(&mut mach, &mut acc, &[(Reg::Command, Command::Gemv as u64)]);
        let f2 = submit(&mut mach, &mut acc, &mut drv).expect("second");
        assert!(f2.ready_at >= f1.ready_at + f2.busy);
        drv.sync(&mut mach, &mut acc, f1.cmd_id).expect("submitted");
        drv.sync(&mut mach, &mut acc, f2.cmd_id).expect("submitted");
        assert!(mach.now() >= f2.ready_at);
    }

    #[test]
    fn full_ring_stall_keeps_the_pinning_command_in_force() {
        // Capacity 1: the second submission stalls until the first
        // command's doorbell is delivered. At 1.1 GHz the cycle-granular
        // wait ends 0.4 cycles before that command's `ready_at`, so its
        // delivered-but-unclaimed record must still hold the second
        // start back.
        let mut mach =
            Machine::new(MachineConfig { freq_hz: 1.1e9, ..MachineConfig::test_small() });
        let mut acc = CimAccelerator::new(AccelConfig::test_small(), mach.cfg.bus);
        let mut drv = CimDriver::new(DriverConfig { queue_capacity: 1, ..DriverConfig::default() });
        arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let f1 = submit(&mut mach, &mut acc, &mut drv).expect("first");
        drv.write_regs(&mut mach, &mut acc, &[(Reg::Command, Command::Gemv as u64)]);
        let f2 = submit(&mut mach, &mut acc, &mut drv).expect("second");
        assert_eq!(drv.stats().queue_full_stalls, 1);
        assert!(mach.now() < f1.ready_at, "the stall ended short of ready_at");
        assert!(f2.ready_at >= f1.ready_at + f2.busy, "second started before the first retired");
    }

    #[test]
    fn flush_ranges_counts_dirty_lines() {
        let (mut mach, _acc, mut drv) = setup();
        let (va, pa) = mach.alloc_cma(256).expect("cma");
        for i in 0..64 {
            mach.host_store_f32(va + 4 * i, 1.0);
        }
        drv.flush_shared(&mut mach, &[(pa, 256)]);
        assert!(drv.stats().flush_dirty >= 4); // 256B / 64B lines

        // Lines live in both L1 and L2; dirty copies only in L1.
        assert!(drv.stats().flush_lines >= drv.stats().flush_dirty);
    }

    #[test]
    fn full_flush_is_much_more_expensive() {
        let (mut mach, _acc, mut drv) = setup();
        drv.cfg.flush = FlushMode::Full;
        let before = mach.core.instructions();
        drv.flush_shared(&mut mach, &[]);
        let full_cost = mach.core.instructions() - before;
        // Walks every line of L2.
        let lines = mach.cfg.l2.size_bytes / mach.cfg.l1d.line_bytes;
        assert!(full_cost >= lines * mach.cfg.flush_insts_per_line);
    }

    #[test]
    fn armed_nop_submit_leaves_no_record() {
        // An armed Nop starts nothing and takes no command id; recorded,
        // it reused the GEMV's id and the sync's sweep delivered that
        // doorbell twice.
        let (mut mach, mut acc, mut drv) = setup();
        let y = arm_identity_gemv(&mut mach, &mut acc, &mut drv);
        let gemv = submit(&mut mach, &mut acc, &mut drv).expect("gemv ok");
        drv.write_regs(&mut mach, &mut acc, &[(Reg::Command, Command::Nop as u64)]);
        let err = submit(&mut mach, &mut acc, &mut drv).unwrap_err();
        assert!(matches!(err, CimError::InvalidArg(_)), "{err:?}");
        assert_eq!(drv.reactor().in_flight(), 1, "only the GEMV is in flight");
        drv.sync(&mut mach, &mut acc, gemv.cmd_id).expect("submitted");
        assert_eq!(mach.mem.read_f32(y), 5.0);
        assert_eq!(drv.reactor().in_flight(), 0);
        assert_eq!(drv.reactor().unclaimed(), 0, "no record left over");
    }

    #[test]
    fn invoke_propagates_device_errors() {
        let (mut mach, mut acc, mut drv) = setup();
        drv.write_regs(&mut mach, &mut acc, &[(Reg::Command, Command::Gemm as u64)]);
        // m=n=k=0 -> BadDims.
        let err = invoke(&mut mach, &mut acc, &mut drv).unwrap_err();
        assert!(matches!(err, CimError::Device(_)));
    }

    #[test]
    fn translate_rejects_unmapped() {
        let (mach, _acc, drv) = setup();
        assert!(matches!(drv.translate(&mach, 0xdead_0000), Err(CimError::InvalidPointer(_))));
    }
}
