//! Sparse physical memory backing store.
//!
//! Physical memory is modelled as a sparse array of 4 KiB frames that are
//! materialized on first write, so a 2 GiB address space costs nothing
//! until written: the frame table has two levels, one slot per 2 MiB
//! whose table of 512 frames is built on the first write into that
//! stretch. All functional data in the simulation (host arrays, CMA
//! shared buffers, accelerator DMA traffic) lives here — there is a single
//! source of truth for values, exactly like the unified DRAM of the
//! emulated platform in Fig. 2 (a) of the paper.

use std::fmt;

use crate::cache::{burst_len, run_addr};

/// Size of one backing frame in bytes.
pub const FRAME_BYTES: usize = 4096;

/// Frames per second-level table: 2 MiB of memory.
const CHUNK_FRAMES: usize = 512;

type Frame = [u8; FRAME_BYTES];

/// The frames of one 2 MiB stretch, each `None` until written.
type Chunk = [Option<Box<Frame>>; CHUNK_FRAMES];

/// Byte-addressable sparse physical memory.
pub struct PhysMem {
    /// One [`Chunk`] per 2 MiB, `None` until written.
    chunks: Vec<Option<Box<Chunk>>>,
    size: u64,
    stats: MemStats,
}

/// Traffic counters for physical memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes read from DRAM (cacheable refills + uncacheable reads).
    pub bytes_read: u64,
    /// Bytes written to DRAM (write-backs + uncacheable writes).
    pub bytes_written: u64,
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("size", &self.size)
            .field("resident_frames", &self.resident_frames())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PhysMem {
    /// Creates a physical memory of `size` bytes (rounded up to a frame).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: u64) -> Self {
        assert!(size > 0, "physical memory must be non-empty");
        let chunks = size.div_ceil((CHUNK_FRAMES * FRAME_BYTES) as u64) as usize;
        PhysMem { chunks: (0..chunks).map(|_| None).collect(), size, stats: MemStats::default() }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Traffic counters accumulated so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Resets the traffic counters.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// The frame holding `addr`, or `None` while it reads as zeros.
    fn frame(&self, addr: u64) -> Option<&Frame> {
        let idx = (addr / FRAME_BYTES as u64) as usize;
        self.chunks[idx / CHUNK_FRAMES].as_ref()?[idx % CHUNK_FRAMES].as_deref()
    }

    fn frame_mut(&mut self, addr: u64) -> &mut Frame {
        assert!(
            addr < self.size.next_multiple_of(FRAME_BYTES as u64),
            "physical address {addr:#x} out of range ({:#x})",
            self.size
        );
        let idx = (addr / FRAME_BYTES as u64) as usize;
        let chunk = self.chunks[idx / CHUNK_FRAMES]
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        chunk[idx % CHUNK_FRAMES].get_or_insert_with(|| Box::new([0u8; FRAME_BYTES]))
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) {
        assert!(addr + buf.len() as u64 <= self.size, "read past end of memory");
        self.stats.bytes_read += buf.len() as u64;
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let in_frame = (a % FRAME_BYTES as u64) as usize;
            let n = (FRAME_BYTES - in_frame).min(buf.len() - off);
            match self.frame(a) {
                Some(frame) => buf[off..off + n].copy_from_slice(&frame[in_frame..in_frame + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn write(&mut self, addr: u64, buf: &[u8]) {
        assert!(addr + buf.len() as u64 <= self.size, "write past end of memory");
        self.stats.bytes_written += buf.len() as u64;
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let in_frame = (a % FRAME_BYTES as u64) as usize;
            let n = (FRAME_BYTES - in_frame).min(buf.len() - off);
            let frame = self.frame_mut(a);
            frame[in_frame..in_frame + n].copy_from_slice(&buf[off..off + n]);
            off += n;
        }
    }

    /// Reads a little-endian `f32` at `addr`.
    pub fn read_f32(&mut self, addr: u64) -> f32 {
        // Scalar loads are the interpreter's hottest memory call; skip the
        // general range loop when the value sits inside one frame.
        let in_frame = (addr % FRAME_BYTES as u64) as usize;
        if in_frame + 4 <= FRAME_BYTES {
            assert!(addr + 4 <= self.size, "read past end of memory");
            self.stats.bytes_read += 4;
            return match self.frame(addr) {
                Some(frame) => {
                    f32::from_le_bytes(frame[in_frame..in_frame + 4].try_into().expect("4 bytes"))
                }
                None => 0.0,
            };
        }
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        f32::from_le_bytes(b)
    }

    /// Writes a little-endian `f32` at `addr`.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        let in_frame = (addr % FRAME_BYTES as u64) as usize;
        if in_frame + 4 <= FRAME_BYTES {
            assert!(addr + 4 <= self.size, "write past end of memory");
            self.stats.bytes_written += 4;
            let frame = self.frame_mut(addr);
            frame[in_frame..in_frame + 4].copy_from_slice(&v.to_le_bytes());
            return;
        }
        self.write(addr, &v.to_le_bytes());
    }

    /// Reads the `f32`s at `addr`, `addr + stride`, … into `out`; a
    /// contiguous slice is `stride == 4`. A word-aligned run with a
    /// word-multiple stride moves one frame burst at a time — one bounds
    /// check, stats update and frame lookup per burst; any other run is
    /// the [`PhysMem::read_f32`] loop, as its words may straddle frames.
    pub fn read_f32_run(&mut self, addr: u64, stride: i64, out: &mut [f32]) {
        if !addr.is_multiple_of(4) || stride % 4 != 0 {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self.read_f32(run_addr(addr, stride, i));
            }
            return;
        }
        let mut done = 0;
        while done < out.len() {
            let a = run_addr(addr, stride, done);
            let k = self.frame_burst(a, stride, out.len() - done);
            self.stats.bytes_read += 4 * k as u64;
            let burst = &mut out[done..done + k];
            match self.frame(a) {
                Some(frame) => {
                    decode_burst(frame, (a % FRAME_BYTES as u64) as usize, stride, burst)
                }
                None => burst.fill(0.0),
            }
            done += k;
        }
    }

    /// Writes `data` to `addr`, `addr + stride`, … in order; the
    /// store-side dual of [`PhysMem::read_f32_run`].
    pub fn write_f32_run(&mut self, addr: u64, stride: i64, data: &[f32]) {
        if !addr.is_multiple_of(4) || stride % 4 != 0 {
            for (i, v) in data.iter().enumerate() {
                self.write_f32(run_addr(addr, stride, i), *v);
            }
            return;
        }
        let mut done = 0;
        while done < data.len() {
            let a = run_addr(addr, stride, done);
            let k = self.frame_burst(a, stride, data.len() - done);
            self.stats.bytes_written += 4 * k as u64;
            let off = (a % FRAME_BYTES as u64) as usize;
            encode_burst(self.frame_mut(a), off, stride, &data[done..done + k]);
            done += k;
        }
    }

    /// Number of leading words of the word-aligned run `addr, addr +
    /// stride, …` (at most `remaining`) that share `addr`'s frame.
    ///
    /// # Panics
    ///
    /// Panics if one of those words lies past the end of memory.
    fn frame_burst(&self, addr: u64, stride: i64, remaining: usize) -> usize {
        let k = burst_len(addr, FRAME_BYTES as u64, stride, remaining as u64) as usize;
        let hi = addr.max(run_addr(addr, stride, k - 1));
        assert!(hi.saturating_add(4) <= self.size, "run past end of memory");
        k
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Number of frames currently materialized (for tests / diagnostics).
    pub fn resident_frames(&self) -> usize {
        self.chunks.iter().flatten().map(|c| c.iter().flatten().count()).sum()
    }
}

/// Decodes the words at byte offsets `off, off + stride, …` of `frame`
/// into `out`. A contiguous burst (`stride == 4`) decodes its bytes as
/// one slice, without a bounds check per word.
fn decode_burst(frame: &Frame, off: usize, stride: i64, out: &mut [f32]) {
    if stride == 4 {
        let words = frame[off..off + 4 * out.len()].chunks_exact(4);
        for (slot, w) in out.iter_mut().zip(words) {
            *slot = f32::from_le_bytes(w.try_into().expect("4 bytes"));
        }
        return;
    }
    let mut at = off as i64;
    for slot in out {
        let o = at as usize;
        *slot = f32::from_le_bytes(frame[o..o + 4].try_into().expect("4 bytes"));
        at += stride;
    }
}

/// Encodes `data` at byte offsets `off, off + stride, …` of `frame`; the
/// store-side dual of [`decode_burst`].
fn encode_burst(frame: &mut Frame, off: usize, stride: i64, data: &[f32]) {
    if stride == 4 {
        let words = frame[off..off + 4 * data.len()].chunks_exact_mut(4);
        for (w, v) in words.zip(data) {
            w.copy_from_slice(&v.to_le_bytes());
        }
        return;
    }
    let mut at = off as i64;
    for v in data {
        let o = at as usize;
        frame[o..o + 4].copy_from_slice(&v.to_le_bytes());
        at += stride;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_before_first_write() {
        let mut m = PhysMem::new(1 << 20);
        let mut buf = [0xAAu8; 16];
        m.read(0x1234, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut m = PhysMem::new(1 << 20);
        m.write(0x100, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(0x100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.resident_frames(), 1);
    }

    #[test]
    fn frame_straddling_access() {
        // Across a frame boundary, and across a 2 MiB frame-table chunk.
        for addr in [FRAME_BYTES as u64 - 2, (2 << 20) - 2] {
            let mut m = PhysMem::new(4 << 20);
            m.write(addr, &[9, 8, 7, 6]);
            let mut buf = [0u8; 4];
            m.read(addr, &mut buf);
            assert_eq!(buf, [9, 8, 7, 6], "{addr:#x}");
            assert_eq!(m.resident_frames(), 2, "{addr:#x}");
        }
    }

    #[test]
    fn f32_and_u64_helpers() {
        let mut m = PhysMem::new(1 << 20);
        m.write_f32(64, 3.5);
        assert_eq!(m.read_f32(64), 3.5);
        m.write_u64(128, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u64(128), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn f32_slice_helpers() {
        let mut m = PhysMem::new(1 << 20);
        let data = [1.0f32, -2.0, 0.5, 1e9];
        m.write_f32_run(4096, 4, &data);
        let mut out = [0f32; 4];
        m.read_f32_run(4096, 4, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn f32_slice_across_frames_and_unaligned() {
        let mut m = PhysMem::new(1 << 20);
        let data: Vec<f32> = (0..2048).map(|i| i as f32 * 0.5 - 7.0).collect();
        // Straddles two frame boundaries; word aligned but not frame aligned.
        m.write_f32_run(FRAME_BYTES as u64 - 36, 4, &data);
        let mut out = vec![0f32; 2048];
        m.read_f32_run(FRAME_BYTES as u64 - 36, 4, &mut out);
        assert_eq!(out, data);
        // Unaligned base takes the byte-wise path and still round-trips.
        m.write_f32_run(13, 4, &data[..8]);
        let mut out = vec![0f32; 8];
        m.read_f32_run(13, 4, &mut out);
        assert_eq!(out, &data[..8]);
    }

    #[test]
    fn strided_f32_matches_scalar_loop() {
        // In-frame bursts (forward, backward, stride 0), runs that cross
        // frames either way and misaligned runs take the same values and
        // stats as the per-word loop.
        let data: Vec<f32> = (0..16).map(|i| i as f32 * 1.5 - 4.0).collect();
        let frame = FRAME_BYTES as u64;
        for (addr, stride) in [
            (64u64, 4i64),
            (64, 512),
            (frame - 4, -256),
            (128, 0),
            (frame - 64, 16),
            (8190, 4),
            (64, 1028),
            (4 * frame - 4, -1024),
            (100, 6),
        ] {
            let (mut bulk, mut scalar) = (PhysMem::new(4 * frame), PhysMem::new(4 * frame));
            let mut got = vec![0f32; data.len()];
            bulk.write_f32_run(addr, stride, &data);
            bulk.read_f32_run(addr, stride, &mut got);
            let mut want = vec![0f32; data.len()];
            for (i, v) in data.iter().enumerate() {
                scalar.write_f32(addr.wrapping_add((i as i64 * stride) as u64), *v);
            }
            for (i, slot) in want.iter_mut().enumerate() {
                *slot = scalar.read_f32(addr.wrapping_add((i as i64 * stride) as u64));
            }
            assert_eq!(got, want, "{addr} {stride}");
            assert_eq!(bulk.stats(), scalar.stats(), "{addr} {stride}");
        }
        // An untouched frame reads as zeros.
        let mut m = PhysMem::new(2 * frame);
        let mut out = [1f32; 4];
        m.read_f32_run(frame, 8, &mut out);
        assert_eq!(out, [0.0; 4]);
    }

    #[test]
    fn traffic_is_counted() {
        let mut m = PhysMem::new(1 << 20);
        m.write(0, &[0u8; 64]);
        let mut buf = [0u8; 32];
        m.read(0, &mut buf);
        assert_eq!(m.stats().bytes_written, 64);
        assert_eq!(m.stats().bytes_read, 32);
        m.reset_stats();
        assert_eq!(m.stats(), MemStats::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut m = PhysMem::new(FRAME_BYTES as u64);
        m.frame_mut(FRAME_BYTES as u64 * 2);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn read_past_end_panics() {
        let mut m = PhysMem::new(16);
        let mut buf = [0u8; 32];
        m.read(0, &mut buf);
    }
}
