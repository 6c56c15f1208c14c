//! Host-side completion reactor: ring-buffer command/completion queues.
//!
//! The paper's driver exposes one status register per context. Waiting
//! on it once per future means a host draining N futures pays N
//! separate status-read loops, even when independent commands overlapped
//! on disjoint tiles and retired together. Real
//! offload stacks (NVMe, io_uring, most NIC drivers) instead pair a
//! fixed-capacity **submission ring** with a **completion ring** of
//! doorbell records the device writes to shared memory as commands
//! retire. The host then learns about *every* finished command with a
//! single read of the completion-queue head — one batched status read
//! services all in-flight commands, and a future synced after its
//! doorbell already arrived costs nothing at all.
//!
//! This module is the device-visible half of that design: plain data
//! structures advanced explicitly by the driver at simulated instants
//! (`device_progress(now)` plays the device's doorbell writes, `poll`
//! plays one host sweep of the completion queue). The driver decides
//! what each sweep costs; see `driver.rs` for the accounting.
//!
//! The reactor is also the runtime's one in-flight command table: every
//! record carries the tile region and physical ranges its command
//! touches, the tenant that submitted it and the runtime scratch it
//! holds, so the per-region doorbell ([`Reactor::earliest_start`]) and
//! every context's observation points query the same records the rings
//! hold. A walk over the records ([`Reactor::unsynced`]) covers only
//! live ones, never the ring's idle capacity.

use cim_accel::GridRegion;
use cim_machine::units::SimTime;
use std::collections::BTreeMap;

use crate::api::DevPtr;
use crate::serve::TenantId;

/// Fixed-capacity ring buffer addressed by monotonically increasing
/// sequence numbers, the storage of both reactor queues.
///
/// Slot `seq % capacity` holds the entry pushed with sequence `seq`. A
/// push fails when the slot it needs is still occupied — authentic ring
/// semantics: even with fewer than `capacity` live entries, a new
/// submission can be refused because one *old* entry still pins the
/// slot the ring has wrapped back to.
///
/// Entries free in two ways: [`RingBuffer::pop`] drains in FIFO order
/// (completion-queue style), [`RingBuffer::take`] frees a specific
/// sequence mid-ring (submission-queue style — slots live from submit
/// until the completion is delivered, in any order). Both advance
/// `head` past the freed prefix, so it always names the oldest live
/// entry (or `tail` when the ring is empty).
#[derive(Debug, Clone, PartialEq)]
pub struct RingBuffer<T> {
    slots: Vec<Option<(u64, T)>>,
    /// Oldest live sequence, or `tail` when nothing is live.
    head: u64,
    /// Next sequence to allocate.
    tail: u64,
    live: usize,
}

impl<T> RingBuffer<T> {
    /// Creates an empty ring with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer needs at least one slot");
        RingBuffer { slots: (0..capacity).map(|_| None).collect(), head: 0, tail: 0, live: 0 }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Live entries currently held.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// `true` when the next push would fail: the slot sequence
    /// `next_seq` maps to is still occupied.
    pub fn is_full(&self) -> bool {
        // Raw occupancy, not `slot()`: the pinning entry is an *older*
        // sequence that maps to the same slot.
        self.slots[self.index(self.tail)].is_some()
    }

    /// The sequence number the next successful push will get.
    pub fn next_seq(&self) -> u64 {
        self.tail
    }

    /// Pushes an entry, returning its sequence number, or gives the
    /// entry back when its slot is still occupied.
    ///
    /// # Errors
    ///
    /// Returns `Err(v)` — the rejected entry — when the ring is full.
    pub fn push(&mut self, v: T) -> Result<u64, T> {
        if self.is_full() {
            return Err(v);
        }
        let seq = self.tail;
        let ix = self.index(seq);
        self.slots[ix] = Some((seq, v));
        self.tail += 1;
        self.live += 1;
        Ok(seq)
    }

    /// Removes and returns the oldest live entry with its sequence, in
    /// FIFO order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let seq = self.head;
        let v = self.take(seq)?;
        Some((seq, v))
    }

    /// Frees the entry at `seq` mid-ring, returning it if it was live.
    /// Freeing the oldest entry advances `head` to the next live one;
    /// each sequence is skipped once, so the cost is amortized
    /// constant.
    pub fn take(&mut self, seq: u64) -> Option<T> {
        self.slot(seq)?;
        let ix = self.index(seq);
        let (_, v) = self.slots[ix].take().expect("checked occupied");
        self.live -= 1;
        while self.head < self.tail && self.slot(self.head).is_none() {
            self.head += 1;
        }
        Some(v)
    }

    /// Borrows the live entry at `seq`.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.slot(seq).map(|(_, v)| v)
    }

    /// Mutably borrows the live entry at `seq`.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let ix = self.index(seq);
        match self.slots[ix].as_mut() {
            Some((s, v)) if *s == seq => Some(v),
            _ => None,
        }
    }

    /// Iterates the live entries in sequence order. The walk starts at
    /// the oldest live entry (`head`), so it spans only the live
    /// window, not the ring's capacity.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.head..self.tail).filter_map(|seq| self.slot(seq).map(|(s, v)| (*s, v)))
    }

    fn index(&self, seq: u64) -> usize {
        (seq % self.slots.len() as u64) as usize
    }

    fn slot(&self, seq: u64) -> Option<&(u64, T)> {
        self.slots[self.index(seq)].as_ref().filter(|(s, _)| *s == seq)
    }
}

/// Submission-ring record for one in-flight command: everything the
/// device model needs to write the doorbell when the command retires,
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

/// Doorbell record the device model posts to the completion queue when
/// a command retires. It names the command; its timing stays in the
/// [`CmdRecord`] the submission ring holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Submission-ring sequence this completion frees.
    pub sq_seq: u64,
    /// Logical command id.
    pub cmd_id: u64,
}

#[derive(Debug, Clone)]
struct SqEntry {
    rec: CmdRecord,
    /// Doorbell already posted to the completion queue (the slot stays
    /// pinned until the host drains the doorbell and claims it).
    posted: bool,
}

/// The reactor: one submission ring of in-flight commands, one
/// completion ring of doorbells, and the delivered-but-unclaimed
/// completions. All host cost accounting lives in the driver — this
/// type only tracks *what* happened and *when*.
#[derive(Debug, Clone)]
pub struct Reactor {
    sq: RingBuffer<SqEntry>,
    cq: RingBuffer<Completion>,
    /// Records swept off the CQ whose futures have not synced yet, by
    /// command id. They keep constraining new submissions until claimed:
    /// a sweep may deliver a doorbell a fraction of a cycle before the
    /// host clock reaches its `ready_at`.
    delivered: BTreeMap<u64, CmdRecord>,
    cq_deferrals: u64,
    completions_posted: u64,
}

impl Reactor {
    /// Creates a reactor whose submission and completion rings both
    /// hold `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Reactor::with_capacities(capacity, capacity)
    }

    /// Creates a reactor with distinct ring capacities — the
    /// fault-injection tests use a deliberately undersized completion
    /// ring to force doorbell deferrals.
    pub fn with_capacities(sq_capacity: usize, cq_capacity: usize) -> Self {
        Reactor {
            sq: RingBuffer::new(sq_capacity),
            cq: RingBuffer::new(cq_capacity),
            delivered: BTreeMap::new(),
            cq_deferrals: 0,
            completions_posted: 0,
        }
    }

    /// Submission-ring capacity.
    pub fn capacity(&self) -> usize {
        self.sq.capacity()
    }

    /// Commands submitted and not yet delivered to the host.
    pub fn in_flight(&self) -> usize {
        self.sq.len()
    }

    /// Completions delivered to the host and not yet claimed.
    pub fn unclaimed(&self) -> usize {
        self.delivered.len()
    }

    /// Times a doorbell post was deferred because the completion ring
    /// was full (the device retries on the next progress sweep).
    pub fn cq_deferrals(&self) -> u64 {
        self.cq_deferrals
    }

    /// Doorbells posted to the completion ring so far.
    pub fn completions_posted(&self) -> u64 {
        self.completions_posted
    }

    /// `true` when the submission ring can accept another command.
    pub fn can_submit(&self) -> bool {
        !self.sq.is_full()
    }

    /// Completion instant of the in-flight command pinning the slot the
    /// next submission needs — the earliest instant a full ring can
    /// accept new work (`None` when the ring is not full).
    pub fn blocking_ready_at(&self) -> Option<SimTime> {
        if self.can_submit() {
            return None;
        }
        let blocking_seq = self.sq.next_seq() - self.sq.capacity() as u64;
        self.sq.get(blocking_seq).map(|e| e.rec.ready_at)
    }

    /// Records a submitted command in the submission ring.
    ///
    /// # Errors
    ///
    /// Returns the rejected record when the ring is full — the caller
    /// must stall (queue-full backpressure) and poll until
    /// [`Reactor::can_submit`] holds.
    pub fn submit(&mut self, rec: CmdRecord) -> Result<u64, Box<CmdRecord>> {
        self.sq.push(SqEntry { rec, posted: false }).map_err(|e| Box::new(e.rec))
    }

    /// Every command not yet claimed: in flight in the submission ring
    /// (in submission order), then delivered and waiting for its sync
    /// (by command id).
    pub fn unsynced(&self) -> impl Iterator<Item = &CmdRecord> {
        self.sq.iter().map(|(_, e)| &e.rec).chain(self.delivered.values())
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

    /// Plays the device model forward to `now`: every in-flight command
    /// whose completion instant has passed posts its doorbell to the
    /// completion ring, in retirement order (`ready_at`, then command
    /// id — commands on different DMA channels or disjoint regions
    /// retire out of submission order). Posts that find the completion
    /// ring full are deferred, counted, and retried on the next sweep.
    /// Returns the number of doorbells posted.
    pub fn device_progress(&mut self, now: SimTime) -> usize {
        let mut due: Vec<(SimTime, u64, u64)> = self
            .sq
            .iter()
            .filter(|(_, e)| !e.posted && e.rec.ready_at <= now)
            .map(|(seq, e)| (e.rec.ready_at, e.rec.cmd_id, seq))
            .collect();
        due.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("sim times are finite").then(a.1.cmp(&b.1))
        });
        let mut posted = 0;
        for (i, &(_, cmd_id, sq_seq)) in due.iter().enumerate() {
            if self.cq.is_full() {
                self.cq_deferrals += (due.len() - i) as u64;
                break;
            }
            self.cq.push(Completion { sq_seq, cmd_id }).expect("checked not full");
            self.sq.get_mut(sq_seq).expect("due entry is live").posted = true;
            self.completions_posted += 1;
            posted += 1;
        }
        posted
    }

    /// One batched host poll at `now`: sweeps device progress and
    /// drains the completion ring until quiescent, freeing each drained
    /// command's submission slot and marking it delivered. Draining can
    /// unblock deferred doorbells, so the sweep loops until a pass
    /// neither posts nor drains. Returns the number of completions
    /// delivered to the host.
    pub fn poll(&mut self, now: SimTime) -> usize {
        let mut total = 0;
        loop {
            let posted = self.device_progress(now);
            let mut drained = 0;
            while let Some((_, c)) = self.cq.pop() {
                let freed = self.sq.take(c.sq_seq).expect("completion frees a live slot");
                let prev = self.delivered.insert(c.cmd_id, freed.rec);
                debug_assert!(prev.is_none(), "doorbell for cmd {} delivered twice", c.cmd_id);
                drained += 1;
            }
            total += drained;
            if posted == 0 && drained == 0 {
                return total;
            }
        }
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

    #[test]
    fn ring_push_pop_fifo_with_wraparound() {
        let mut r = RingBuffer::new(3);
        for round in 0u64..4 {
            for i in 0..3 {
                assert_eq!(r.push(round * 10 + i), Ok(round * 3 + i));
            }
            assert!(r.is_full());
            assert_eq!(r.push(99), Err(99), "full ring rejects and returns the entry");
            for i in 0..3 {
                assert_eq!(r.pop(), Some((round * 3 + i, round * 10 + i)));
            }
            assert!(r.is_empty());
            assert_eq!(r.pop(), None);
        }
    }

    #[test]
    fn ring_take_frees_mid_ring_and_pop_skips_hole() {
        let mut r = RingBuffer::new(4);
        for i in 0..4u64 {
            r.push(i).unwrap();
        }
        assert_eq!(r.take(1), Some(1));
        assert_eq!(r.take(1), None, "double take fails");
        assert_eq!(r.len(), 3);
        // Seq 1's slot is free, but seq 0 still pins slot 0: seq 4 maps
        // to slot 0 and must be refused — ring, not free-list.
        assert!(r.is_full());
        assert_eq!(r.push(4), Err(4));
        assert_eq!(r.pop(), Some((0, 0)));
        // Now slot 0 is free: push lands at seq 4, and pop skips the
        // hole take() left at seq 1.
        assert_eq!(r.push(4), Ok(4));
        assert_eq!(r.pop(), Some((2, 2)));
        assert_eq!(r.pop(), Some((3, 3)));
        assert_eq!(r.pop(), Some((4, 4)));
        assert!(r.is_empty());
    }

    #[test]
    fn ring_get_rejects_stale_sequences() {
        let mut r = RingBuffer::new(2);
        r.push("a").unwrap();
        r.push("b").unwrap();
        assert_eq!(r.get(0), Some(&"a"));
        r.pop().unwrap();
        r.push("c").unwrap(); // seq 2, reuses slot 0
        assert_eq!(r.get(0), None, "slot reused: old seq no longer resolves");
        assert_eq!(r.get(2), Some(&"c"));
        assert_eq!(r.iter().map(|(s, _)| s).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn ring_capacity_one_alternates() {
        let mut r = RingBuffer::new(1);
        for i in 0..5u64 {
            assert_eq!(r.push(i), Ok(i));
            assert!(r.is_full());
            assert_eq!(r.push(99), Err(99));
            assert_eq!(r.pop(), Some((i, i)));
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn ring_rejects_zero_capacity() {
        let _ = RingBuffer::<u8>::new(0);
    }

    #[test]
    fn ring_iter_after_many_take_only_laps() {
        // Submission-ring usage: slots free with `take`, never `pop`,
        // while `tail` laps the ring many times.
        let mut r = RingBuffer::new(4);
        let mut live = std::collections::BTreeSet::new();
        for seq in 0u64..400 {
            while r.is_full() {
                let oldest = *live.first().expect("a full ring holds entries");
                assert_eq!(r.take(oldest), Some(oldest));
                live.remove(&oldest);
            }
            assert_eq!(r.push(seq), Ok(seq));
            live.insert(seq);
            // Leave holes: free every third entry out of order.
            if seq % 3 == 1 {
                assert_eq!(r.take(seq - 1), live.take(&(seq - 1)));
            }
            let got: Vec<(u64, u64)> = r.iter().map(|(s, v)| (s, *v)).collect();
            let want: Vec<(u64, u64)> = live.iter().map(|&s| (s, s)).collect();
            assert_eq!(got, want, "after seq {seq}");
            // The walk starts at the oldest live entry, not at a slot
            // freed long ago.
            assert_eq!(r.head, live.first().copied().unwrap_or(r.tail), "after seq {seq}");
        }
        assert_eq!(r.len(), live.len());
    }

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
        // Slot for the next submission is pinned by cmd 7 (seq 0), not
        // by the earlier-finishing cmd 8.
        assert_eq!(r.blocking_ready_at(), Some(SimTime::from_ns(100.0)));
        assert_eq!(r.submit(rec(9, 1.0)).unwrap_err().cmd_id, 9);
        r.poll(SimTime::from_ns(100.0));
        assert!(r.can_submit());
        assert_eq!(r.blocking_ready_at(), None);
        r.submit(rec(9, 120.0)).unwrap();
    }

    #[test]
    fn reactor_defers_doorbells_on_full_completion_ring() {
        // SQ holds 4 in-flight commands, CQ only 2 doorbells: the
        // device defers the rest and retries after the host drains.
        let mut r = Reactor::with_capacities(4, 2);
        for i in 0..4 {
            r.submit(rec(i, 10.0)).unwrap();
        }
        // device_progress alone (no host drain): 2 posted, 2 deferred.
        assert_eq!(r.device_progress(SimTime::from_ns(10.0)), 2);
        assert_eq!(r.cq_deferrals(), 2);
        // A host poll drains, letting the retry land the rest: no
        // doorbell is lost.
        assert_eq!(r.poll(SimTime::from_ns(10.0)), 4);
        assert_eq!(r.in_flight(), 0);
        assert!((0..4).all(|i| r.claim(i).is_some()));
    }

    #[test]
    fn reactor_out_of_order_retirement_frees_slots() {
        let mut r = Reactor::new(3);
        r.submit(rec(0, 30.0)).unwrap();
        r.submit(rec(1, 10.0)).unwrap();
        r.submit(rec(2, 20.0)).unwrap();
        // Commands 1 and 2 retire before 0 (disjoint regions / other
        // DMA channels): delivered in ready_at order.
        assert_eq!(r.poll(SimTime::from_ns(25.0)), 2);
        assert!(r.is_delivered(1) && r.is_delivered(2) && !r.is_delivered(0));
        assert!(r.claim(1).is_some() && r.claim(2).is_some());
        // Only one entry is live, yet the ring is full for the *next*
        // push: seq 3 maps to the slot the laggard seq 0 still pins.
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
