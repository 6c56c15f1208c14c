//! Host-side completion reactor: the in-flight commands and the
//! completions delivered to the host.
//!
//! The paper's driver exposes one status register per context. Waiting
//! on it once per future means a host draining N futures pays N
//! separate status-read loops, even when independent commands overlapped
//! on disjoint tiles and retired together. Real offload stacks (NVMe,
//! io_uring, most NIC drivers) instead let the device write a doorbell
//! record to shared memory as each command retires. The host then
//! learns about *every* finished command with a single read of the
//! completion-queue head — one batched status read services all
//! in-flight commands, and a future synced after its doorbell already
//! arrived costs nothing at all.
//!
//! This module holds what that design tracks, as plain data advanced
//! explicitly by the driver at simulated instants: the in-flight
//! commands in submission order, and the completions one host sweep
//! ([`Reactor::poll`]) delivered. The driver decides what each sweep
//! costs; see `driver.rs` for the accounting.
//!
//! The submission queue is a ring of `capacity` slots: sequence `s`
//! holds slot `s mod capacity` from its submit until a sweep delivers
//! it. So a submit is refused while the command `capacity` sequences
//! older is still in flight, even when fewer than `capacity` commands
//! are ([`Reactor::blocking_ready_at`] names it).
//!
//! The reactor is also the runtime's one in-flight command table: every
//! record carries the tile region and physical ranges its command
//! touches, the tenant that submitted it and the runtime scratch it
//! holds, so the per-region doorbell ([`Reactor::earliest_start`]) and
//! every context's observation points query the same records. A walk
//! over the records ([`Reactor::unsynced`]) covers only live ones.

use cim_accel::GridRegion;
use cim_machine::units::SimTime;
use std::collections::BTreeMap;

use crate::api::DevPtr;
use crate::serve::TenantId;

/// Record of one submitted command: when its doorbell becomes visible,
/// the tile region it occupies and the physical ranges it reads and
/// writes — the node of the runtime-side offload dataflow graph — and
/// what its submitter gets back when it claims the command.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdRecord {
    /// Logical command id (`CimAccelerator::last_cmd`).
    pub cmd_id: u64,
    /// Simulated instant the command's doorbell becomes visible.
    pub ready_at: SimTime,
    /// Accelerator busy time of the command.
    pub busy: SimTime,
    /// Tile region the command occupies.
    pub region: GridRegion,
    /// Physical `(base, len)` ranges the command reads.
    pub reads: Vec<(u64, u64)>,
    /// Physical `(base, len)` ranges the command writes.
    pub writes: Vec<(u64, u64)>,
    /// Serving tenant that submitted the command; `None` for the one
    /// context of a private device.
    pub owner: Option<TenantId>,
    /// Runtime scratch (a batched call's descriptor table) the command
    /// reads, freed by the context that claims it.
    pub scratch: Option<DevPtr>,
}

impl CmdRecord {
    /// Whether any range the command reads or writes overlaps
    /// `[pa, pa + len)` — the test an observation point applies. Empty
    /// ranges observe no bytes and overlap nothing, so a zero-length
    /// query at an interior point of an operand does not claim the
    /// command.
    pub fn touches(&self, pa: u64, len: u64) -> bool {
        self.reads.iter().chain(&self.writes).any(|&r| crate::ranges::overlaps((pa, len), r))
    }

    /// Whether a command on `region` touching `reads`/`writes` must wait
    /// for this one: they share tiles (physical crossbars), or the
    /// newcomer writes something this command touches, or reads
    /// something it writes.
    fn conflicts(&self, region: &GridRegion, reads: &[(u64, u64)], writes: &[(u64, u64)]) -> bool {
        let any = |xs: &[(u64, u64)], ys: &[(u64, u64)]| {
            xs.iter().any(|&x| ys.iter().any(|&y| crate::ranges::overlaps(x, y)))
        };
        self.region.overlaps(region)
            || any(writes, &self.writes)
            || any(writes, &self.reads)
            || any(reads, &self.writes)
    }
}

/// The reactor: the in-flight commands in submission order and the
/// delivered-but-unclaimed completions. All host cost accounting lives
/// in the driver — this type only tracks *what* happened and *when*.
#[derive(Debug, Clone)]
pub struct Reactor {
    /// Submission-queue slots: sequence `s` holds slot `s mod capacity`.
    capacity: usize,
    /// Sequence the next submission gets.
    next_seq: u64,
    /// Commands submitted and not yet delivered, with their sequences,
    /// oldest first. Every sequence here is at least
    /// `next_seq - capacity`: a submit is refused while the command
    /// `capacity` sequences older is still in flight.
    in_flight: Vec<(u64, CmdRecord)>,
    /// Records delivered by a sweep whose futures have not synced yet,
    /// by command id. They keep constraining new submissions until
    /// claimed: a sweep may deliver a doorbell a fraction of a cycle
    /// before the host clock reaches its `ready_at`.
    delivered: BTreeMap<u64, CmdRecord>,
}

impl Reactor {
    /// Creates a reactor whose submission queue has `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reactor needs at least one slot");
        Reactor { capacity, next_seq: 0, in_flight: Vec::new(), delivered: BTreeMap::new() }
    }

    /// Commands submitted and not yet delivered to the host.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Completions delivered to the host and not yet claimed.
    pub fn unclaimed(&self) -> usize {
        self.delivered.len()
    }

    /// The in-flight command holding the slot the next submission needs
    /// — the one `capacity` sequences older — if any. By the invariant
    /// on `in_flight`, only the oldest in-flight command can be it.
    fn blocking(&self) -> Option<&CmdRecord> {
        let (seq, rec) = self.in_flight.first()?;
        (seq + self.capacity as u64 == self.next_seq).then_some(rec)
    }

    /// `true` when the submission queue can accept another command.
    pub fn can_submit(&self) -> bool {
        self.blocking().is_none()
    }

    /// Completion instant of the in-flight command holding the slot the
    /// next submission needs — the earliest instant a full queue can
    /// accept new work (`None` when the queue is not full).
    pub fn blocking_ready_at(&self) -> Option<SimTime> {
        self.blocking().map(|rec| rec.ready_at)
    }

    /// Records a submitted command, returning its sequence.
    ///
    /// # Errors
    ///
    /// Returns the rejected record when its slot is still held — the
    /// caller must stall (queue-full backpressure) and poll until
    /// [`Reactor::can_submit`] holds.
    pub fn submit(&mut self, rec: CmdRecord) -> Result<u64, Box<CmdRecord>> {
        if !self.can_submit() {
            return Err(Box::new(rec));
        }
        let seq = self.next_seq;
        self.in_flight.push((seq, rec));
        self.next_seq += 1;
        Ok(seq)
    }

    /// Every command not yet claimed: in flight (in submission order),
    /// then delivered and waiting for its sync (by command id).
    pub fn unsynced(&self) -> impl Iterator<Item = &CmdRecord> {
        self.in_flight.iter().map(|(_, rec)| rec).chain(self.delivered.values())
    }

    /// The unclaimed record of `cmd_id`, in flight or delivered.
    pub fn record(&self, cmd_id: u64) -> Option<&CmdRecord> {
        self.unsynced().find(|rec| rec.cmd_id == cmd_id)
    }

    /// Earliest time a command occupying `region` and touching
    /// `reads`/`writes` may start, given the current host time `now`:
    /// after every unclaimed command it conflicts with. Independent
    /// commands on disjoint regions overlap freely — this per-region
    /// doorbell is what lets *separate* runtime calls (not just elements
    /// of one batched call) run concurrently.
    pub fn earliest_start(
        &self,
        region: GridRegion,
        reads: &[(u64, u64)],
        writes: &[(u64, u64)],
        now: SimTime,
    ) -> SimTime {
        self.unsynced()
            .filter(|c| c.conflicts(&region, reads, writes))
            .fold(now, |t, c| t.max(c.ready_at))
    }

    /// Sum of region tiles of the commands *running* at `when` — already
    /// started, not yet done. Commands merely queued behind their
    /// region's chain do not occupy tiles yet.
    pub fn tiles_busy_at(&self, when: SimTime) -> u64 {
        self.unsynced()
            .filter(|c| c.ready_at > when && c.ready_at - c.busy <= when)
            .map(|c| c.region.tiles() as u64)
            .sum()
    }

    /// One batched host sweep at `now`: every in-flight command whose
    /// doorbell is visible by then (`ready_at <= now`) is delivered,
    /// freeing its slot, whatever its place in submission order —
    /// commands on different DMA channels or disjoint regions retire
    /// out of order. Returns the number of completions delivered.
    pub fn poll(&mut self, now: SimTime) -> usize {
        let mut count = 0;
        for (_, rec) in self.in_flight.extract_if(.., |(_, rec)| rec.ready_at <= now) {
            let cmd_id = rec.cmd_id;
            let prev = self.delivered.insert(cmd_id, rec);
            debug_assert!(prev.is_none(), "doorbell for cmd {cmd_id} delivered twice");
            count += 1;
        }
        count
    }

    /// Claims a delivered completion, handing back its record — exactly
    /// once per command, after its doorbell was swept by some
    /// [`Reactor::poll`].
    pub fn claim(&mut self, cmd_id: u64) -> Option<CmdRecord> {
        self.delivered.remove(&cmd_id)
    }

    /// `true` while `cmd_id`'s doorbell is delivered but unclaimed.
    pub fn is_delivered(&self, cmd_id: u64) -> bool {
        self.delivered.contains_key(&cmd_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cmd_id: u64, ready_ns: f64) -> CmdRecord {
        CmdRecord {
            cmd_id,
            ready_at: SimTime::from_ns(ready_ns),
            busy: SimTime::from_ns(1.0),
            region: GridRegion::full((1, 1)),
            reads: Vec::new(),
            writes: Vec::new(),
            owner: None,
            scratch: None,
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn reactor_rejects_zero_capacity() {
        let _ = Reactor::new(0);
    }

    #[test]
    fn reactor_delivers_each_doorbell_exactly_once() {
        let mut r = Reactor::new(4);
        for i in 0..3 {
            r.submit(rec(i, 10.0 * (i + 1) as f64)).unwrap();
        }
        assert_eq!(r.poll(SimTime::from_ns(5.0)), 0, "nothing due yet");
        assert_eq!(r.poll(SimTime::from_ns(25.0)), 2);
        assert!(r.claim(0).is_some() && r.claim(1).is_some());
        assert!(r.claim(0).is_none(), "claim is once-only");
        assert_eq!(r.poll(SimTime::from_ns(25.0)), 0, "no doorbell re-delivered");
        assert_eq!(r.poll(SimTime::from_ns(30.0)), 1);
        assert!(r.claim(2).is_some());
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn reactor_backpressure_reports_blocking_instant() {
        let mut r = Reactor::new(2);
        r.submit(rec(7, 100.0)).unwrap();
        r.submit(rec(8, 50.0)).unwrap();
        assert!(!r.can_submit());
        // Slot for the next submission is held by cmd 7 (seq 0), not
        // by the earlier-finishing cmd 8.
        assert_eq!(r.blocking_ready_at(), Some(SimTime::from_ns(100.0)));
        assert_eq!(r.submit(rec(9, 1.0)).unwrap_err().cmd_id, 9);
        r.poll(SimTime::from_ns(100.0));
        assert!(r.can_submit());
        assert_eq!(r.blocking_ready_at(), None);
        r.submit(rec(9, 120.0)).unwrap();
    }

    #[test]
    fn reactor_out_of_order_retirement_frees_slots() {
        let mut r = Reactor::new(3);
        r.submit(rec(0, 30.0)).unwrap();
        r.submit(rec(1, 10.0)).unwrap();
        r.submit(rec(2, 20.0)).unwrap();
        // Commands 1 and 2 retire before 0 (disjoint regions / other
        // DMA channels): delivered while 0 is still in flight.
        assert_eq!(r.poll(SimTime::from_ns(25.0)), 2);
        assert!(r.is_delivered(1) && r.is_delivered(2) && !r.is_delivered(0));
        assert!(r.claim(1).is_some() && r.claim(2).is_some());
        // Only one command is in flight, yet the queue is full for the
        // *next* submit: seq 3 needs the slot the laggard seq 0 holds.
        assert!(!r.can_submit());
        assert_eq!(r.submit(rec(3, 40.0)).unwrap_err().cmd_id, 3);
        assert_eq!(r.blocking_ready_at(), Some(SimTime::from_ns(30.0)));
        assert_eq!(r.poll(SimTime::from_ns(30.0)), 1);
        assert!(r.claim(0).is_some());
        r.submit(rec(3, 40.0)).unwrap();
        r.submit(rec(4, 40.0)).unwrap();
        assert_eq!(r.poll(SimTime::from_ns(40.0)), 2);
        assert!(r.claim(3).is_some() && r.claim(4).is_some());
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn disjoint_regions_and_ranges_do_not_conflict() {
        let mut r = Reactor::new(4);
        let left = GridRegion { origin: (0, 0), shape: (1, 1) };
        let right = GridRegion { origin: (0, 1), shape: (1, 1) };
        let reads = vec![(0, 64)];
        let writes = vec![(64, 64)];
        r.submit(CmdRecord { region: left, reads, writes, ..rec(0, 10.0) }).unwrap();
        let now = SimTime::ZERO;
        let busy = SimTime::from_ns(10.0);
        assert_eq!(r.earliest_start(right, &[(0, 64)], &[(128, 64)], now), now, "shared reads");
        assert_eq!(r.earliest_start(left, &[], &[], now), busy, "shared tiles");
        assert_eq!(r.earliest_start(right, &[(64, 4)], &[], now), busy, "reads its write");
        assert_eq!(r.earliest_start(right, &[], &[(0, 4)], now), busy, "writes its read");
        assert_eq!(r.earliest_start(right, &[], &[(96, 4)], now), busy, "writes its write");
        assert_eq!(r.earliest_start(right, &[], &[(64, 0)], now), now, "empty range");
    }
}
