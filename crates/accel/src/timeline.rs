//! Event timeline of an offloaded kernel (Fig. 2 (d)).
//!
//! The figure shows the host preparing data and writing configuration
//! registers, the trigger, DMA buffer fills overlapped with compute and
//! accumulation, the result store, and the final "result ready" status
//! update. [`Timeline`] records those events with start/end times so the
//! `timeline` example can render the same picture.

use cim_machine::units::SimTime;
use std::fmt;

/// What happened during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Host wrote the configuration and armed the command register.
    Trigger,
    /// DMA filled an input buffer from shared memory.
    FillBuffer,
    /// Crossbar rows were programmed (stationary operand install).
    WriteCrossbar,
    /// Analog GEMV on the crossbar.
    Compute,
    /// Digital accumulation / weighted sum.
    Accumulate,
    /// Result written back to shared memory.
    StoreResult,
    /// Status register flipped to done.
    ResultReady,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::Trigger => "trigger",
            EventKind::FillBuffer => "fill-buffer",
            EventKind::WriteCrossbar => "write-crossbar",
            EventKind::Compute => "compute",
            EventKind::Accumulate => "accumulate",
            EventKind::StoreResult => "store-result",
            EventKind::ResultReady => "result-ready",
        };
        f.write_str(s)
    }
}

/// One timeline interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event class.
    pub kind: EventKind,
    /// Physical tile `(k_lane, m_lane)` the event occupied, if the event
    /// is tile-specific (installs and computes are; trigger/status flips
    /// are not).
    pub tile: Option<(usize, usize)>,
    /// Logical command the event belongs to. Every armed command gets a
    /// fresh id; the elements of a batched GEMM each get their own, so a
    /// concurrent batch can be untangled per command in the rendering.
    pub cmd: Option<u64>,
    /// Start time (relative to machine epoch).
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
    /// Free-form detail (e.g. `"install A tile m0=0 k0=8"`).
    pub label: String,
}

/// Bounded recorder of accelerator events.
#[derive(Debug, Clone)]
pub struct Timeline {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl Timeline {
    /// Creates a timeline retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Timeline { events: Vec::new(), capacity, dropped: 0 }
    }

    /// Records an event not pinned to a tile (dropped silently past
    /// capacity, counted).
    pub fn push(
        &mut self,
        kind: EventKind,
        start: SimTime,
        end: SimTime,
        label: impl Into<String>,
    ) {
        self.push_on(kind, None, None, start, end, || label.into());
    }

    /// Records an event occupying the physical tile `tile` on behalf of
    /// logical command `cmd` — the per-tile, per-command occupancy view
    /// of a sharded or batched run. The label is built only for an event
    /// the timeline keeps: past capacity the event is counted as
    /// dropped and `label` never runs.
    pub fn push_on(
        &mut self,
        kind: EventKind,
        tile: Option<(usize, usize)>,
        cmd: Option<u64>,
        start: SimTime,
        end: SimTime,
        label: impl FnOnce() -> String,
    ) {
        if self.events.len() < self.capacity {
            self.events.push(Event { kind, tile, cmd, start, end, label: label() });
        } else {
            self.dropped += 1;
        }
    }

    /// Recorded events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events dropped due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears all events.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Busy time per physical tile: the summed durations of the recorded
    /// tile-pinned events, sorted by tile coordinate. A balanced sharded
    /// run shows near-equal occupancy across the grid.
    pub fn tile_occupancy(&self) -> Vec<((usize, usize), SimTime)> {
        let mut acc: Vec<((usize, usize), SimTime)> = Vec::new();
        for e in &self.events {
            let Some(tile) = e.tile else { continue };
            match acc.iter_mut().find(|(t, _)| *t == tile) {
                Some((_, busy)) => *busy += e.end - e.start,
                None => acc.push((tile, e.end - e.start)),
            }
        }
        acc.sort_by_key(|(t, _)| *t);
        acc
    }

    /// Renders an ASCII table of the recorded events.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>7} {:>5} {:>14} {:>14} {:>12}  {}\n",
            "event", "tile", "cmd", "start", "end", "duration", "detail"
        ));
        for e in &self.events {
            let tile = e.tile.map_or_else(|| "-".to_string(), |(a, b)| format!("({a},{b})"));
            let cmd = e.cmd.map_or_else(|| "-".to_string(), |c| format!("#{c}"));
            out.push_str(&format!(
                "{:<16} {:>7} {:>5} {:>14} {:>14} {:>12}  {}\n",
                e.kind.to_string(),
                tile,
                cmd,
                format!("{}", e.start),
                format!("{}", e.end),
                format!("{}", e.end - e.start),
                e.label
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("... {} further events elided\n", self.dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_render() {
        let mut t = Timeline::new(8);
        t.push(
            EventKind::Trigger,
            SimTime::ZERO,
            SimTime::from_ns(50.0),
            "write context registers",
        );
        t.push(EventKind::Compute, SimTime::from_us(1.0), SimTime::from_us(2.0), "gemv 0");
        assert_eq!(t.events().len(), 2);
        let r = t.render();
        assert!(r.contains("trigger"));
        assert!(r.contains("compute"));
        assert!(r.contains("gemv 0"));
    }

    #[test]
    fn capacity_bound_counts_drops() {
        let mut t = Timeline::new(1);
        t.push(EventKind::Compute, SimTime::ZERO, SimTime::ZERO, "a");
        t.push(EventKind::Compute, SimTime::ZERO, SimTime::ZERO, "b");
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.dropped(), 1);
        assert!(t.render().contains("elided"));
        t.clear();
        assert_eq!(t.events().len(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn kinds_have_display_names() {
        assert_eq!(EventKind::WriteCrossbar.to_string(), "write-crossbar");
        assert_eq!(EventKind::ResultReady.to_string(), "result-ready");
    }

    #[test]
    fn tile_occupancy_sums_per_tile() {
        let mut t = Timeline::new(8);
        let us = SimTime::from_us;
        t.push(EventKind::Trigger, SimTime::ZERO, us(1.0), "untiled");
        t.push_on(EventKind::Compute, Some((0, 0)), Some(0), us(1.0), us(3.0), || "a".into());
        t.push_on(EventKind::Compute, Some((0, 1)), Some(1), us(1.0), us(2.0), || "b".into());
        t.push_on(EventKind::WriteCrossbar, Some((0, 0)), Some(0), us(3.0), us(4.0), || "c".into());
        let occ = t.tile_occupancy();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0].0, (0, 0));
        assert!((occ[0].1.as_us() - 3.0).abs() < 1e-9);
        assert!((occ[1].1.as_us() - 1.0).abs() < 1e-9);
        assert!(t.render().contains("(0,1)"));
    }

    #[test]
    fn events_carry_command_ids() {
        let mut t = Timeline::new(4);
        t.push_on(EventKind::Compute, Some((0, 0)), Some(7), SimTime::ZERO, SimTime::ZERO, || {
            "x".into()
        });
        t.push(EventKind::Trigger, SimTime::ZERO, SimTime::ZERO, "y");
        assert_eq!(t.events()[0].cmd, Some(7));
        assert_eq!(t.events()[1].cmd, None);
        assert!(t.render().contains("#7"));
    }

    #[test]
    fn zero_capacity_never_builds_a_label() {
        let mut t = Timeline::new(0);
        t.push_on(EventKind::Compute, Some((0, 0)), Some(1), SimTime::ZERO, SimTime::ZERO, || {
            panic!("a dropped event must not format its label")
        });
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 1);
    }
}
