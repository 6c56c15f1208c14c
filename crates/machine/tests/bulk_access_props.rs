//! Differential properties for the bulk memory-system fast path.
//!
//! Each layer has one bulk walk — [`Hierarchy::access_block`] for the
//! caches, `Machine::host_{load,store}_f32_run` for translation, caches,
//! memory and stall charging together — and each promises results
//! identical to the scalar loop it replaces: same `CacheStats`, same
//! recency order and victim choices (observable as the resident-line sets
//! after any interleaving), same stall cycles, same memory contents. Each
//! property drives a bulk instance and a scalar-only reference through a
//! random interleaving of accesses and flushes decoded from sampled words,
//! and asserts bit-for-bit equality after every operation.

use cim_machine::cache::{CacheConfig, Hierarchy, MemLatency};
use cim_machine::mmu::PAGE_BYTES;
use cim_machine::{Machine, MachineConfig};
use proptest::prelude::*;

/// Splits one sampled word into small fields (field order fixed so cases
/// reproduce from the reported inputs).
struct Fields(u64);

impl Fields {
    fn take(&mut self, bits: u32) -> u64 {
        let v = self.0 & ((1 << bits) - 1);
        self.0 >>= bits;
        v
    }
}

fn small_hierarchy() -> Hierarchy {
    Hierarchy::new(
        CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 2 },
        CacheConfig { size_bytes: 4096, line_bytes: 64, ways: 4 },
        MemLatency { l1_hit_cycles: 0, l2_hit_cycles: 10, dram_ns: 100.0 },
        1.0e9,
    )
}

/// Byte stride decoded from 6 bits: −124..=128 in steps of 4, plus odd
/// strides for the unaligned paths.
fn decode_stride(f: &mut Fields) -> i64 {
    let raw = f.take(6) as i64 - 31; // -31..=32
    if raw == 0 {
        0
    } else {
        raw * 4 + (raw % 3) // mostly word multiples, some odd
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// `Hierarchy::access_block` vs the scalar `access` loop under random
    /// interleavings of accesses, blocks, range flushes and whole flushes:
    /// stall cycles, worst level reached, both levels' stats and resident
    /// sets.
    #[test]
    fn hierarchy_blocks_match_scalar_interleaved(words in collection::vec(0u64..u64::MAX, 4..32)) {
        let mut bulk = small_hierarchy();
        let mut scalar = small_hierarchy();
        for w in words {
            let mut f = Fields(w);
            match f.take(2) {
                0 => {
                    let addr = f.take(14);
                    let bytes = 1 << f.take(2); // 1, 2, 4, 8
                    let write = f.take(1) == 1;
                    let a = bulk.access(addr, bytes, write);
                    let b = scalar.access(addr, bytes, write);
                    prop_assert_eq!(a.stall_cycles, b.stall_cycles);
                    prop_assert_eq!(a.level, b.level);
                }
                1 => {
                    if f.take(2) == 0 {
                        prop_assert_eq!(bulk.flush_all(), scalar.flush_all());
                    } else {
                        let start = f.take(11);
                        let len = f.take(18);
                        prop_assert_eq!(
                            bulk.flush_range(start, len),
                            scalar.flush_range(start, len)
                        );
                    }
                }
                _ => {
                    let count = f.take(8) + 1;
                    let elem = 1u64 << f.take(2); // 1, 2, 4, 8: odd strides force the scalar path
                    let stride = decode_stride(&mut f);
                    let write = f.take(1) == 1;
                    let span = count as i64 * stride.abs();
                    let start = f.take(12) + span.max(0) as u64;
                    let out = bulk.access_block(start, elem, count, stride, write);
                    let mut stall = 0u64;
                    let mut addr = start;
                    let mut worst = None;
                    for _ in 0..count {
                        let o = scalar.access(addr, elem, write);
                        stall += o.stall_cycles;
                        worst = Some(match (worst, o.level) {
                            (None, l) => l,
                            (Some(w), l) if (l as u8) > (w as u8) => l,
                            (Some(w), _) => w,
                        });
                        addr = addr.wrapping_add(stride as u64);
                    }
                    prop_assert_eq!(out.stall_cycles, stall);
                    prop_assert_eq!(out.level, worst.expect("count >= 1"));
                }
            }
            prop_assert_eq!(bulk.l1d.stats(), scalar.l1d.stats());
            prop_assert_eq!(bulk.l2.stats(), scalar.l2.stats());
            prop_assert_eq!(bulk.l1d.dirty_lines(), scalar.l1d.dirty_lines());
            prop_assert_eq!(bulk.l2.dirty_lines(), scalar.l2.dirty_lines());
            prop_assert_eq!(bulk.l1d.resident_lines(), scalar.l1d.resident_lines());
            prop_assert_eq!(bulk.l2.resident_lines(), scalar.l2.resident_lines());
        }
    }

    /// Machine-level run accessors (translate + cache + memory + stall
    /// charging) vs per-element `host_load_f32`/`host_store_f32`, with
    /// flushes interleaved, over a heap buffer, a CMA buffer (physically
    /// contiguous across its pages) and a buffer whose pages sit on
    /// every other frame, from word-aligned and misaligned starts;
    /// memory contents compared byte for byte.
    #[test]
    fn machine_runs_match_scalar_interleaved(words in collection::vec(0u64..u64::MAX, 4..24)) {
        const ELEMS: u64 = 4096; // 16 KiB buffers spanning four pages
        const SCATTERED: u64 = 0x4000_0000;
        const SPARE: u64 = 0x5000_0000;
        let mut bulk = Machine::new(MachineConfig::test_small());
        let mut scalar = Machine::new(MachineConfig::test_small());
        let mut bufs = Vec::new();
        for m in [&mut bulk, &mut scalar] {
            let heap = m.alloc_host(4 * ELEMS);
            let cma = m.alloc_cma(4 * ELEMS).expect("cma").0;
            // A spare page mapped after each page of `SCATTERED` takes
            // the next frame, so no two of its pages are adjacent.
            for p in 0..4 * ELEMS / PAGE_BYTES {
                m.mmu.map_anonymous(SCATTERED + p * PAGE_BYTES, PAGE_BYTES);
                m.mmu.map_anonymous(SPARE + p * PAGE_BYTES, PAGE_BYTES);
            }
            bufs.push([heap, cma, SCATTERED]);
        }
        assert_eq!(bufs[0], bufs[1]);
        let bufs = bufs[0];
        for w in words {
            let mut f = Fields(w);
            let va = bufs[f.take(2) as usize % bufs.len()];
            match f.take(2) {
                0 => {
                    let idx = f.take(12) % ELEMS;
                    let write = f.take(1) == 1;
                    if write {
                        let v = f.take(16) as f32 - 1000.0;
                        bulk.host_store_f32(va + 4 * idx, v);
                        scalar.host_store_f32(va + 4 * idx, v);
                    } else {
                        prop_assert_eq!(
                            bulk.host_load_f32(va + 4 * idx).to_bits(),
                            scalar.host_load_f32(va + 4 * idx).to_bits()
                        );
                    }
                }
                1 => {
                    // Flush a physical range covering part of the buffer.
                    let pa = bulk.mmu.translate(va).expect("mapped");
                    let start = pa + f.take(13);
                    let len = f.take(14);
                    prop_assert_eq!(
                        bulk.hier.flush_range(start, len),
                        scalar.hier.flush_range(start, len)
                    );
                }
                _ => {
                    // Strided run within the buffer: pick stride (in
                    // elements), a misalignment of 0..=3 bytes, then a
                    // base that keeps the whole run in range for the
                    // sampled count.
                    let stride_e = f.take(3) as i64 - 3; // -3..=4
                    let mis = if f.take(1) == 1 { 1 + f.take(2) % 3 } else { 0 };
                    let count = (f.take(8) + 1).min(if stride_e == 0 {
                        256
                    } else {
                        (ELEMS - 1) / stride_e.unsigned_abs()
                    }).max(1);
                    let span_e = (count as i64 - 1) * stride_e;
                    let base_min = (-span_e).max(0) as u64;
                    let base_max = (ELEMS as i64 - 2 - span_e.max(0)) as u64;
                    let base = base_min + f.take(12) % (base_max - base_min + 1);
                    let start = va + 4 * base + mis;
                    let stride = 4 * stride_e;
                    if f.take(1) == 1 {
                        let seed = f.take(8) as f32;
                        let data: Vec<f32> =
                            (0..count).map(|i| seed + i as f32 * 0.25).collect();
                        bulk.host_store_f32_run(start, stride, &data);
                        for (i, v) in data.iter().enumerate() {
                            scalar.host_store_f32(
                                start.wrapping_add((i as i64 * stride) as u64),
                                *v,
                            );
                        }
                    } else {
                        let mut got = vec![0f32; count as usize];
                        bulk.host_load_f32_run(start, stride, &mut got);
                        for (i, slot) in got.iter().enumerate() {
                            let want = scalar
                                .host_load_f32(start.wrapping_add((i as i64 * stride) as u64));
                            prop_assert_eq!(slot.to_bits(), want.to_bits());
                        }
                    }
                }
            }
            prop_assert_eq!(bulk.core.stall_cycles(), scalar.core.stall_cycles());
            prop_assert_eq!(bulk.hier.l1d.stats(), scalar.hier.l1d.stats());
            prop_assert_eq!(bulk.hier.l2.stats(), scalar.hier.l2.stats());
            prop_assert_eq!(bulk.hier.l1d.resident_lines(), scalar.hier.l1d.resident_lines());
            prop_assert_eq!(bulk.hier.l2.resident_lines(), scalar.hier.l2.resident_lines());
            prop_assert_eq!(bulk.mem.stats(), scalar.mem.stats());
        }
        // Final functional state: every buffer matches byte for byte.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for va in bufs {
            let mut a = vec![0f32; ELEMS as usize];
            let mut b = vec![0f32; ELEMS as usize];
            bulk.peek_f32_slice(va, &mut a);
            scalar.peek_f32_slice(va, &mut b);
            prop_assert_eq!(bits(&a), bits(&b));
        }
    }
}
