//! DMA engine of the accelerator.
//!
//! "A CIM tile, a micro-engine, and a DMA unit for load and store
//! operations make a standalone accelerator" (Section II-C). The DMA moves
//! bursts between shared main memory and the tile buffers using
//! *uncacheable* accesses, which — after the driver's flush — keeps the
//! shared region coherent without hardware snooping (Section II-E).

use cim_machine::mem::PhysMem;
use cim_machine::units::SimTime;
use cim_machine::Machine;

/// Accumulated DMA statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DmaStats {
    /// Bytes read from memory.
    pub bytes_in: u64,
    /// Bytes written to memory.
    pub bytes_out: u64,
    /// Time spent on the bus.
    pub busy: SimTime,
}

/// The load/store engine.
///
/// Every transfer moves its payload through the run pair
/// [`PhysMem::read_f32_run`] / [`PhysMem::write_f32_run`], one frame
/// burst at a time. Memory sees the same bytes as with one
/// 4-byte uncacheable access per element, and each call charges the bus
/// its bursts in a fixed order, so the memory, bus and DMA counters match
/// an element-at-a-time engine exactly.
#[derive(Debug, Clone, Default)]
pub struct DmaEngine {
    stats: DmaStats,
    /// Row-major staging for [`DmaEngine::read_f32s_transposed`], reused
    /// across gathers.
    staging: Vec<f32>,
}

impl DmaEngine {
    /// Creates an idle DMA engine.
    pub fn new() -> Self {
        DmaEngine::default()
    }

    /// Statistics so far.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// Resets statistics.
    pub fn reset(&mut self) {
        self.stats = DmaStats::default();
    }

    /// Charges one burst of `bytes` moving into (`into_accel`) or out of
    /// the accelerator.
    fn burst(&mut self, mach: &mut Machine, bytes: u64, into_accel: bool) -> SimTime {
        let t = mach.bus.dma_burst(bytes, into_accel);
        if into_accel {
            self.stats.bytes_in += bytes;
        } else {
            self.stats.bytes_out += bytes;
        }
        self.stats.busy += t;
        t
    }

    /// Reads `out.len() * 4` bytes of `f32`s from physical address `pa`.
    /// Returns the burst time.
    pub fn read_f32s(&mut self, mach: &mut Machine, pa: u64, out: &mut [f32]) -> SimTime {
        mach.mem.read_f32_run(pa, 4, out);
        self.burst(mach, (out.len() * 4) as u64, true)
    }

    /// Charges the burst of a strided read of `count` f32s (a matrix
    /// column) whose data [`read_block`] already moved. One burst per
    /// element group is pessimistic, so the read is modelled as a single
    /// burst of the gathered payload plus one setup. Returns the burst
    /// time.
    pub(crate) fn charge_read(&mut self, mach: &mut Machine, count: usize) -> SimTime {
        self.burst(mach, (count * 4) as u64, true)
    }

    /// Gathers the `rows x cols` block at `pa` (row stride `ld` elements)
    /// *transposed*, `out[c * rows + r] = block[r][c]`: what `cols`
    /// strided column reads deliver.
    /// Memory is read row by row in contiguous runs (one run when the
    /// rows abut) and transposed in host memory; the bus is charged
    /// those column reads' bursts, one of `rows * 4` bytes per column in
    /// column order. Returns the summed burst time.
    pub fn read_f32s_transposed(
        &mut self,
        mach: &mut Machine,
        pa: u64,
        rows: usize,
        cols: usize,
        ld: usize,
        out: &mut [f32],
    ) -> SimTime {
        let n = rows * cols;
        assert!(out.len() >= n, "output buffer too small");
        if self.staging.len() < n {
            self.staging.resize(n, 0.0);
        }
        let staging = &mut self.staging[..n];
        read_block(&mut mach.mem, pa, rows, cols, ld, staging);
        transpose(staging, rows, cols, &mut out[..n]);
        let mut t = SimTime::ZERO;
        for _ in 0..cols {
            t += self.burst(mach, (rows * 4) as u64, true);
        }
        t
    }

    /// Writes `data` as little-endian `f32`s to physical address `pa`.
    pub fn write_f32s(&mut self, mach: &mut Machine, pa: u64, data: &[f32]) -> SimTime {
        mach.mem.write_f32_run(pa, 4, data);
        self.burst(mach, (data.len() * 4) as u64, false)
    }

    /// Reads `count` little-endian `u64`s (batch descriptors).
    pub fn read_u64s(&mut self, mach: &mut Machine, pa: u64, count: usize) -> (Vec<u64>, SimTime) {
        let bytes = (count * 8) as u64;
        let mut raw = vec![0u8; count * 8];
        mach.mem.read(pa, &mut raw);
        let vals = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect();
        (vals, self.burst(mach, bytes, true))
    }
}

/// Reads the `rows x cols` block at `pa` (row stride `ld` elements)
/// row-major into `out[..rows * cols]`, charging no burst: one contiguous
/// run when the rows abut, one strided run for a single column, else one
/// contiguous run per row.
pub(crate) fn read_block(
    mem: &mut PhysMem,
    pa: u64,
    rows: usize,
    cols: usize,
    ld: usize,
    out: &mut [f32],
) {
    let out = &mut out[..rows * cols];
    if ld == cols {
        mem.read_f32_run(pa, 4, out);
    } else if cols == 1 {
        mem.read_f32_run(pa, 4 * ld as i64, out);
    } else {
        for (r, row) in out.chunks_exact_mut(cols).enumerate() {
            mem.read_f32_run(pa + (4 * r * ld) as u64, 4, row);
        }
    }
}

/// Writes `data` row-major as the `rows x cols` block at `pa` (row stride
/// `ld` elements), charging no burst; the store-side dual of
/// [`read_block`].
pub(crate) fn write_block(
    mem: &mut PhysMem,
    pa: u64,
    rows: usize,
    cols: usize,
    ld: usize,
    data: &[f32],
) {
    let data = &data[..rows * cols];
    if ld == cols {
        mem.write_f32_run(pa, 4, data);
    } else if cols == 1 {
        mem.write_f32_run(pa, 4 * ld as i64, data);
    } else {
        for (r, row) in data.chunks_exact(cols).enumerate() {
            mem.write_f32_run(pa + (4 * r * ld) as u64, 4, row);
        }
    }
}

/// `dst[c * rows + r] = src[r * cols + c]`: 4x4 register tiles, walked
/// in 32x32 cache blocks so that the power-of-two strides of full
/// crossbar blocks do not thrash a few cache sets, then the ragged edges
/// element by element.
fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    const BLOCK: usize = 32;
    let (r4, c4) = (rows / 4 * 4, cols / 4 * 4);
    for rb in (0..r4).step_by(BLOCK) {
        for cb in (0..c4).step_by(BLOCK) {
            for r0 in (rb..(rb + BLOCK).min(r4)).step_by(4) {
                for c0 in (cb..(cb + BLOCK).min(c4)).step_by(4) {
                    let mut t = [[0f32; 4]; 4];
                    for (i, ti) in t.iter_mut().enumerate() {
                        ti.copy_from_slice(&src[(r0 + i) * cols + c0..][..4]);
                    }
                    for j in 0..4 {
                        dst[(c0 + j) * rows + r0..][..4]
                            .copy_from_slice(&[t[0][j], t[1][j], t[2][j], t[3][j]]);
                    }
                }
            }
        }
    }
    for r in 0..rows {
        let c_start = if r < r4 { c4 } else { 0 };
        for c in c_start..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_machine::mem::FRAME_BYTES;
    use cim_machine::MachineConfig;
    use proptest::prelude::*;

    fn setup() -> (Machine, DmaEngine, u64) {
        let mut m = Machine::new(MachineConfig::test_small());
        let (_va, pa) = m.alloc_cma(4096).expect("cma");
        (m, DmaEngine::new(), pa)
    }

    #[test]
    fn f32_roundtrip_through_memory() {
        let (mut m, mut dma, pa) = setup();
        let data = [1.0f32, -2.5, 3.25, 0.0];
        let t_w = dma.write_f32s(&mut m, pa, &data);
        let mut out = [0f32; 4];
        let t_r = dma.read_f32s(&mut m, pa, &mut out);
        assert_eq!(out, data);
        assert!(t_w.as_ns() > 0.0 && t_r.as_ns() > 0.0);
        assert_eq!(dma.stats().bytes_in, 16);
        assert_eq!(dma.stats().bytes_out, 16);
    }

    #[test]
    fn strided_read_gathers_column() {
        let (mut m, mut dma, pa) = setup();
        // 4x4 row-major matrix; gather column 1, one burst.
        let mat: Vec<f32> = (0..16).map(|i| i as f32).collect();
        dma.write_f32s(&mut m, pa, &mat);
        let mut col = [0f32; 4];
        read_block(&mut m.mem, pa + 4, 4, 1, 4, &mut col);
        dma.charge_read(&mut m, 4);
        assert_eq!(col, [1.0, 5.0, 9.0, 13.0]);
        assert_eq!(dma.stats().bytes_in, 16);
    }

    #[test]
    fn u64_descriptor_read() {
        let (mut m, mut dma, pa) = setup();
        let descr = [0x1111u64, 0x2222, 0x3333];
        let mut raw = Vec::new();
        for d in &descr {
            raw.extend_from_slice(&d.to_le_bytes());
        }
        m.mem.write(pa, &raw);
        let (vals, _) = dma.read_u64s(&mut m, pa, 3);
        assert_eq!(vals, descr);
    }

    /// Per-element reference for the bulk paths: one 4-byte uncacheable
    /// access per element and one bus burst per column, as the engine
    /// moved operands before the bulk paths existed.
    #[derive(Default)]
    struct Reference {
        stats: DmaStats,
    }

    impl Reference {
        fn burst(&mut self, m: &mut Machine, bytes: u64, into_accel: bool) -> SimTime {
            let t = m.bus.dma_burst(bytes, into_accel);
            if into_accel {
                self.stats.bytes_in += bytes;
            } else {
                self.stats.bytes_out += bytes;
            }
            self.stats.busy += t;
            t
        }

        /// `out.len()` elements spaced `stride` apart, one burst.
        fn read_column(
            &mut self,
            m: &mut Machine,
            pa: u64,
            stride: usize,
            out: &mut [f32],
        ) -> SimTime {
            for (i, slot) in out.iter_mut().enumerate() {
                let mut b = [0u8; 4];
                m.mem.read(pa + (4 * i * stride) as u64, &mut b);
                *slot = f32::from_le_bytes(b);
            }
            self.burst(m, (out.len() * 4) as u64, true)
        }

        /// `data` stored contiguously, one burst.
        fn write(&mut self, m: &mut Machine, pa: u64, data: &[f32]) {
            self.write_block(m, pa, data.len(), data.len(), data);
            self.burst(m, (data.len() * 4) as u64, false);
        }

        /// `data` stored row-major as a `cols`-wide block with row stride
        /// `ld`, no burst.
        fn write_block(&mut self, m: &mut Machine, pa: u64, cols: usize, ld: usize, data: &[f32]) {
            for (i, v) in data.iter().enumerate() {
                let at = pa + (4 * ((i / cols) * ld + i % cols)) as u64;
                m.mem.write(at, &v.to_le_bytes());
            }
        }
    }

    /// Start of the eight frames the property test works in.
    const REGION: u64 = 0x10_0000;

    /// A machine whose region frames `i` with `filled[i]` hold data from
    /// `pool`; the other frames were never written.
    fn filled_machine(filled: &[bool], pool: &[f32]) -> Machine {
        let mut m = Machine::new(MachineConfig::test_small());
        let words = FRAME_BYTES / 4;
        for (f, _) in filled.iter().enumerate().filter(|(_, on)| **on) {
            let data: Vec<f32> = (0..words).map(|i| pool[(f * 31 + i) % pool.len()]).collect();
            m.mem.write_f32_run(REGION + (f * FRAME_BYTES) as u64, 4, &data);
        }
        m.mem.reset_stats();
        m
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Each bulk path moves the same bits as the per-element
        /// reference and leaves identical memory, bus and DMA counters
        /// (burst times compared by bits), the engine's block reads and
        /// writes with their per-column charges included, for
        /// `rows x cols` blocks with leading dimension `ld >= cols` whose
        /// base sits `back` bytes before a frame boundary: 4-aligned or
        /// not, straddling frames, over frames that were never written.
        #[test]
        fn bulk_paths_match_per_element_reference(
            rows in 1usize..25,
            cols in 1usize..25,
            ld_pad in 0usize..9,
            frame in 1u64..4,
            back in 0u64..160,
            filled in collection::vec(bool::ANY, 8..9),
            pool in collection::vec(-1.0e3f32..1.0e3, 97..98),
        ) {
            let ld = cols + ld_pad;
            let base = REGION + frame * FRAME_BYTES as u64 - back;
            let mut bulk = filled_machine(&filled, &pool);
            let mut per_elem = filled_machine(&filled, &pool);
            let (mut dma, mut reference) = (DmaEngine::new(), Reference::default());
            let n = rows * cols;

            // The op(A) gather: the block transposed, one burst per column.
            let (mut got, mut want) = (vec![0f32; n], vec![0f32; n]);
            let t = dma.read_f32s_transposed(&mut bulk, base, rows, cols, ld, &mut got);
            let mut t_ref = SimTime::ZERO;
            for c in 0..cols {
                let col = &mut want[c * rows..(c + 1) * rows];
                t_ref += reference.read_column(&mut per_elem, base + 4 * c as u64, ld, col);
            }
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(t.as_ns().to_bits(), t_ref.as_ns().to_bits());

            // Column reads (stride `ld`, and the unit-stride contiguous
            // run) and a contiguous read.
            for stride in [ld, 1] {
                let (mut got, mut want) = (vec![0f32; rows], vec![0f32; rows]);
                read_block(&mut bulk.mem, base, rows, 1, stride, &mut got);
                dma.charge_read(&mut bulk, rows);
                reference.read_column(&mut per_elem, base, stride, &mut want);
                prop_assert_eq!(bits(&got), bits(&want));
            }
            let (mut got, mut want) = (vec![0f32; n], vec![0f32; n]);
            dma.read_f32s(&mut bulk, base, &mut got);
            reference.read_column(&mut per_elem, base, 1, &mut want);
            prop_assert_eq!(bits(&got), bits(&want));

            // A contiguous write.
            let data: Vec<f32> = (0..n).map(|i| pool[i % pool.len()]).collect();
            dma.write_f32s(&mut bulk, base, &data);
            reference.write(&mut per_elem, base, &data);

            // The engine's panel path: the block read row-major with one
            // charged read per column, then written back with no burst.
            let (mut got, mut col) = (vec![0f32; n], vec![0f32; rows]);
            read_block(&mut bulk.mem, base, rows, cols, ld, &mut got);
            let mut want = vec![0f32; n];
            for c in 0..cols {
                let t = dma.charge_read(&mut bulk, rows);
                let t_ref = reference.read_column(&mut per_elem, base + 4 * c as u64, ld, &mut col);
                prop_assert_eq!(t.as_ns().to_bits(), t_ref.as_ns().to_bits());
                for (r, v) in col.iter().enumerate() {
                    want[r * cols + c] = *v;
                }
            }
            prop_assert_eq!(bits(&got), bits(&want));
            let data: Vec<f32> = (0..n).map(|i| pool[(3 * i + 1) % pool.len()]).collect();
            write_block(&mut bulk.mem, base, rows, cols, ld, &data);
            reference.write_block(&mut per_elem, base, cols, ld, &data);

            prop_assert_eq!(bulk.mem.stats(), per_elem.mem.stats());
            prop_assert_eq!(bulk.bus.stats(), per_elem.bus.stats());
            let (s, r) = (dma.stats(), reference.stats);
            prop_assert_eq!((s.bytes_in, s.bytes_out), (r.bytes_in, r.bytes_out));
            prop_assert_eq!(s.busy.as_ns().to_bits(), r.busy.as_ns().to_bits());
            prop_assert_eq!(bulk.mem.resident_frames(), per_elem.mem.resident_frames());
            let span = filled.len() * FRAME_BYTES;
            let (mut got, mut want) = (vec![0u8; span], vec![0u8; span]);
            bulk.mem.read(REGION, &mut got);
            per_elem.mem.read(REGION, &mut want);
            prop_assert!(got == want, "memory contents differ");
        }
    }

    #[test]
    fn busy_time_accumulates() {
        let (mut m, mut dma, pa) = setup();
        dma.write_f32s(&mut m, pa, &[0.0; 64]);
        dma.read_f32s(&mut m, pa, &mut [0f32; 64]);
        assert!(dma.stats().busy.as_ns() > 0.0);
        dma.reset();
        assert_eq!(dma.stats(), DmaStats::default());
    }
}
