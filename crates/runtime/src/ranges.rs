//! The one overlap predicate for physical byte ranges `(base, len)`.
//!
//! Both doorbells — the reactor's per-command conflict check and the
//! observation points' check of the records they must claim
//! (`CmdRecord::touches`) — and the residency table key off the same
//! half-open overlap test, defined once here so the rules (notably:
//! empty ranges touch no bytes) cannot diverge.

/// Whether half-open ranges `[p1, p1+l1)` and `[p2, p2+l2)` share a
/// byte. Empty ranges overlap nothing — without the guards, a
/// zero-length range at an interior point would count as overlap. A
/// range whose end passes `u64::MAX` reaches the end of the address
/// space.
pub(crate) fn overlaps((p1, l1): (u64, u64), (p2, l2): (u64, u64)) -> bool {
    l1 > 0 && l2 > 0 && p1 < p2.saturating_add(l2) && p2 < p1.saturating_add(l1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_geometry() {
        assert!(overlaps((0, 8), (4, 8)));
        assert!(overlaps((4, 8), (0, 8)));
        assert!(!overlaps((0, 8), (8, 8)), "adjacent ranges are disjoint");
        assert!(overlaps((0, 8), (7, 1)));
        assert!(overlaps((8, u64::MAX), (4, 8)), "an end past u64::MAX saturates");
        assert!(overlaps((4, 8), (8, u64::MAX)));
        assert!(!overlaps((16, u64::MAX), (4, 8)));
    }

    #[test]
    fn empty_ranges_overlap_nothing() {
        assert!(!overlaps((4, 0), (0, 8)), "zero length at an interior point");
        assert!(!overlaps((0, 8), (4, 0)));
        assert!(!overlaps((0, 0), (0, 0)));
    }
}
