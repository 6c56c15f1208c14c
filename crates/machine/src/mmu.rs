//! Page-granular virtual-to-physical translation.
//!
//! The CIM driver must hand *physical* addresses to the accelerator
//! (Section II-E: "the driver translates the virtual address used by the
//! host processor to a physical address as the accelerator can work only
//! with physical addresses"). User allocations get demand-allocated frames;
//! CMA buffers are mapped physically contiguous so a single base address
//! suffices for DMA.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Page size used for translation (matches Linux 4 KiB pages).
pub const PAGE_BYTES: u64 = 4096;

/// Error translating a virtual address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateError {
    /// The faulting virtual address.
    pub va: u64,
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unmapped virtual address {:#x}", self.va)
    }
}

impl std::error::Error for TranslateError {}

/// Multiplicative (Fibonacci) hash of a virtual page number. The page
/// table is looked up after every miss of the one-entry TLB, and with
/// SipHash the lookup cost more than the rest of a translation. Keys are
/// page numbers the simulator allocates itself, never outside input, so
/// SipHash's collision resistance buys nothing here. Multiplying by an
/// odd constant is a bijection on the low bits the table indexes with,
/// so consecutive pages land in distinct buckets.
#[derive(Default)]
struct VpnHasher(u64);

impl Hasher for VpnHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(*b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Single-address-space page table with bump-pointer frame allocation.
#[derive(Debug)]
pub struct Mmu {
    table: HashMap<u64, u64, BuildHasherDefault<VpnHasher>>, // vpn -> pfn
    next_frame: u64,
    frame_limit: u64,
    // One-entry TLB: the interpreter's inner loops walk arrays
    // sequentially, so caching the last (vpn, pfn) pair skips the hash
    // lookup on almost every access. `u64::MAX` marks it empty; map only
    // ever adds pages, so only `unmap` must invalidate.
    tlb: Cell<(u64, u64)>,
}

impl Mmu {
    /// Creates an MMU allocating frames in `[frame_base, frame_limit)`
    /// physical bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or unaligned to pages.
    pub fn new(frame_base: u64, frame_limit: u64) -> Self {
        assert!(frame_base < frame_limit, "empty frame pool");
        assert_eq!(frame_base % PAGE_BYTES, 0, "frame base must be page aligned");
        assert_eq!(frame_limit % PAGE_BYTES, 0, "frame limit must be page aligned");
        Mmu {
            table: HashMap::default(),
            next_frame: frame_base / PAGE_BYTES,
            frame_limit,
            tlb: Cell::new((u64::MAX, 0)),
        }
    }

    /// Maps `[va, va+len)` to fresh physical frames (not necessarily
    /// contiguous), demand-allocation style.
    ///
    /// # Panics
    ///
    /// Panics if the physical frame pool is exhausted or a page is already
    /// mapped.
    pub fn map_anonymous(&mut self, va: u64, len: u64) {
        let first = va / PAGE_BYTES;
        let last = (va + len.max(1) - 1) / PAGE_BYTES;
        for vpn in first..=last {
            assert!(!self.table.contains_key(&vpn), "page {vpn:#x} already mapped");
            assert!(
                self.next_frame * PAGE_BYTES < self.frame_limit,
                "physical frame pool exhausted"
            );
            self.table.insert(vpn, self.next_frame);
            self.next_frame += 1;
        }
    }

    /// Maps `[va, va+len)` linearly onto the physically contiguous range
    /// starting at `pa` (used for CMA buffers).
    ///
    /// # Panics
    ///
    /// Panics if `va` and `pa` have different page offsets or a page is
    /// already mapped.
    pub fn map_contiguous(&mut self, va: u64, pa: u64, len: u64) {
        assert_eq!(va % PAGE_BYTES, pa % PAGE_BYTES, "va/pa offsets must agree");
        let pages = (va % PAGE_BYTES + len).div_ceil(PAGE_BYTES);
        for i in 0..pages {
            let vpn = va / PAGE_BYTES + i;
            assert!(!self.table.contains_key(&vpn), "page {vpn:#x} already mapped");
            self.table.insert(vpn, pa / PAGE_BYTES + i);
        }
    }

    /// Removes the mapping for `[va, va+len)`.
    pub fn unmap(&mut self, va: u64, len: u64) {
        let first = va / PAGE_BYTES;
        let last = (va + len.max(1) - 1) / PAGE_BYTES;
        for vpn in first..=last {
            self.table.remove(&vpn);
        }
        self.tlb.set((u64::MAX, 0));
    }

    /// Translates a virtual address to a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError`] if the page is unmapped.
    pub fn translate(&self, va: u64) -> Result<u64, TranslateError> {
        let vpn = va / PAGE_BYTES;
        let (hit_vpn, hit_pfn) = self.tlb.get();
        if hit_vpn == vpn {
            return Ok(hit_pfn * PAGE_BYTES + va % PAGE_BYTES);
        }
        match self.table.get(&vpn) {
            Some(pfn) => {
                self.tlb.set((vpn, *pfn));
                Ok(pfn * PAGE_BYTES + va % PAGE_BYTES)
            }
            None => Err(TranslateError { va }),
        }
    }

    /// Returns whether `[va, va+len)` is mapped physically contiguously.
    pub fn is_contiguous(&self, va: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let Ok(base) = self.translate(va) else { return false };
        let mut off = PAGE_BYTES - va % PAGE_BYTES;
        while off < len {
            match self.translate(va + off) {
                Ok(pa) if pa == base + off => off += PAGE_BYTES,
                _ => return false,
            }
        }
        true
    }

    /// Returns whether every page of `[va, va+len)` is mapped. A range
    /// whose end passes `u64::MAX` is not.
    pub fn is_mapped(&self, va: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let Some(end) = va.checked_add(len) else { return false };
        (va / PAGE_BYTES..=(end - 1) / PAGE_BYTES).all(|vpn| self.table.contains_key(&vpn))
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymous_mapping_translates_within_page() {
        let mut m = Mmu::new(0x10_0000, 0x20_0000);
        m.map_anonymous(0x4000_0000, 8192);
        let pa = m.translate(0x4000_0123).expect("mapped");
        assert_eq!(pa % PAGE_BYTES, 0x123);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn unmapped_address_errors() {
        let m = Mmu::new(0x10_0000, 0x20_0000);
        let err = m.translate(0x1234).unwrap_err();
        assert_eq!(err.va, 0x1234);
        assert!(format!("{err}").contains("unmapped"));
    }

    #[test]
    fn contiguous_mapping_is_linear() {
        let mut m = Mmu::new(0x10_0000, 0x20_0000);
        m.map_contiguous(0x5000_0000, 0x8000_0000, 3 * PAGE_BYTES);
        assert_eq!(m.translate(0x5000_0000).unwrap(), 0x8000_0000);
        assert_eq!(m.translate(0x5000_0000 + 2 * PAGE_BYTES + 7).unwrap(), 0x8000_2007);
        assert!(m.is_contiguous(0x5000_0000, 3 * PAGE_BYTES));
    }

    #[test]
    fn anonymous_pages_are_generally_not_contiguous_with_gaps() {
        let mut m = Mmu::new(0x10_0000, 0x20_0000);
        m.map_anonymous(0x1000, PAGE_BYTES);
        m.map_anonymous(0x9000, PAGE_BYTES); // consumes next frame
        m.map_anonymous(0x2000, PAGE_BYTES); // third frame: 0x1000..0x3000 not linear
        assert!(!m.is_contiguous(0x1000, 2 * PAGE_BYTES));
    }

    #[test]
    fn unmap_removes_translation() {
        let mut m = Mmu::new(0x10_0000, 0x20_0000);
        m.map_anonymous(0x7000, PAGE_BYTES);
        assert!(m.translate(0x7000).is_ok());
        m.unmap(0x7000, PAGE_BYTES);
        assert!(m.translate(0x7000).is_err());
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut m = Mmu::new(0x10_0000, 0x20_0000);
        m.map_anonymous(0x7000, PAGE_BYTES);
        m.map_anonymous(0x7000, PAGE_BYTES);
    }
}
