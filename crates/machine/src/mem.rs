//! Sparse physical memory backing store.
//!
//! Physical memory is modelled as a sparse array of 4 KiB frames that are
//! materialized on first touch, so a 2 GiB address space costs nothing
//! until written. All functional data in the simulation (host arrays, CMA
//! shared buffers, accelerator DMA traffic) lives here — there is a single
//! source of truth for values, exactly like the unified DRAM of the
//! emulated platform in Fig. 2 (a) of the paper.

use std::fmt;

/// Size of one backing frame in bytes.
pub const FRAME_BYTES: usize = 4096;

/// Byte-addressable sparse physical memory.
pub struct PhysMem {
    frames: Vec<Option<Box<[u8; FRAME_BYTES]>>>,
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
        let resident = self.frames.iter().filter(|f| f.is_some()).count();
        f.debug_struct("PhysMem")
            .field("size", &self.size)
            .field("resident_frames", &resident)
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
        let frames = size.div_ceil(FRAME_BYTES as u64) as usize;
        PhysMem { frames: (0..frames).map(|_| None).collect(), size, stats: MemStats::default() }
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

    fn frame_mut(&mut self, addr: u64) -> &mut [u8; FRAME_BYTES] {
        let idx = (addr / FRAME_BYTES as u64) as usize;
        assert!(
            idx < self.frames.len(),
            "physical address {addr:#x} out of range ({:#x})",
            self.size
        );
        self.frames[idx].get_or_insert_with(|| Box::new([0u8; FRAME_BYTES]))
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
            let idx = (a / FRAME_BYTES as u64) as usize;
            match &self.frames[idx] {
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
            let idx = (addr / FRAME_BYTES as u64) as usize;
            return match &self.frames[idx] {
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

    /// Frame index and in-frame offset of `addr` when the `n ≥ 1` words
    /// `addr, addr + stride, …` all lie inside that one frame (and inside
    /// memory), as the per-page bursts of a strided host run do.
    fn frame_span(&self, addr: u64, stride: i64, n: usize) -> Option<(usize, usize)> {
        let last = addr.wrapping_add((stride * (n as i64 - 1)) as u64);
        let (lo, hi) = (addr.min(last), addr.max(last));
        let frame = lo / FRAME_BYTES as u64;
        let inside = hi / FRAME_BYTES as u64 == frame
            && hi % FRAME_BYTES as u64 + 4 <= FRAME_BYTES as u64
            && hi + 4 <= self.size;
        inside.then_some((frame as usize, (addr % FRAME_BYTES as u64) as usize))
    }

    /// Reads the `f32`s at `addr`, `addr + stride`, … into `out`. When they
    /// share one frame (a page burst of a strided run), the bounds check,
    /// stats update and frame lookup happen once for the whole burst;
    /// otherwise this is the [`PhysMem::read_f32`] loop.
    pub fn read_f32_strided(&mut self, addr: u64, stride: i64, out: &mut [f32]) {
        if out.is_empty() {
            return;
        }
        let Some((idx, start)) = self.frame_span(addr, stride, out.len()) else {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self.read_f32(addr.wrapping_add((i as i64 * stride) as u64));
            }
            return;
        };
        self.stats.bytes_read += 4 * out.len() as u64;
        let Some(frame) = &self.frames[idx] else {
            out.fill(0.0);
            return;
        };
        let mut off = start as i64;
        for slot in out {
            let o = off as usize;
            *slot = f32::from_le_bytes(frame[o..o + 4].try_into().expect("4 bytes"));
            off += stride;
        }
    }

    /// Writes `data` to `addr`, `addr + stride`, … in order; the
    /// store-side dual of [`PhysMem::read_f32_strided`].
    pub fn write_f32_strided(&mut self, addr: u64, stride: i64, data: &[f32]) {
        if data.is_empty() {
            return;
        }
        let Some((_, start)) = self.frame_span(addr, stride, data.len()) else {
            for (i, v) in data.iter().enumerate() {
                self.write_f32(addr.wrapping_add((i as i64 * stride) as u64), *v);
            }
            return;
        };
        self.stats.bytes_written += 4 * data.len() as u64;
        let frame = self.frame_mut(addr);
        let mut off = start as i64;
        for v in data {
            let o = off as usize;
            frame[o..o + 4].copy_from_slice(&v.to_le_bytes());
            off += stride;
        }
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

    /// Reads a contiguous run of `f32`s starting at `addr`.
    ///
    /// Word-aligned runs are copied frame by frame — one bounds check,
    /// stats update and frame lookup per 4 KiB instead of per element.
    pub fn read_f32_slice(&mut self, addr: u64, out: &mut [f32]) {
        if !addr.is_multiple_of(4) {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self.read_f32(addr + 4 * i as u64);
            }
            return;
        }
        assert!(addr + 4 * out.len() as u64 <= self.size, "read past end of memory");
        self.stats.bytes_read += 4 * out.len() as u64;
        let mut off = 0usize;
        while off < out.len() {
            let a = addr + 4 * off as u64;
            let in_frame = (a % FRAME_BYTES as u64) as usize;
            let n = ((FRAME_BYTES - in_frame) / 4).min(out.len() - off);
            let idx = (a / FRAME_BYTES as u64) as usize;
            match &self.frames[idx] {
                Some(frame) => {
                    for (j, slot) in out[off..off + n].iter_mut().enumerate() {
                        let s = in_frame + 4 * j;
                        *slot = f32::from_le_bytes(frame[s..s + 4].try_into().expect("4 bytes"));
                    }
                }
                None => out[off..off + n].fill(0.0),
            }
            off += n;
        }
    }

    /// Writes a contiguous run of `f32`s starting at `addr`.
    ///
    /// Word-aligned runs are copied frame by frame, as in
    /// [`PhysMem::read_f32_slice`].
    pub fn write_f32_slice(&mut self, addr: u64, data: &[f32]) {
        if !addr.is_multiple_of(4) {
            for (i, v) in data.iter().enumerate() {
                self.write_f32(addr + 4 * i as u64, *v);
            }
            return;
        }
        assert!(addr + 4 * data.len() as u64 <= self.size, "write past end of memory");
        self.stats.bytes_written += 4 * data.len() as u64;
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + 4 * off as u64;
            let in_frame = (a % FRAME_BYTES as u64) as usize;
            let n = ((FRAME_BYTES - in_frame) / 4).min(data.len() - off);
            let frame = self.frame_mut(a);
            for (j, v) in data[off..off + n].iter().enumerate() {
                let s = in_frame + 4 * j;
                frame[s..s + 4].copy_from_slice(&v.to_le_bytes());
            }
            off += n;
        }
    }

    /// Number of frames currently materialized (for tests / diagnostics).
    pub fn resident_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.is_some()).count()
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
        let mut m = PhysMem::new(1 << 20);
        let addr = FRAME_BYTES as u64 - 2;
        m.write(addr, &[9, 8, 7, 6]);
        let mut buf = [0u8; 4];
        m.read(addr, &mut buf);
        assert_eq!(buf, [9, 8, 7, 6]);
        assert_eq!(m.resident_frames(), 2);
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
        m.write_f32_slice(4096, &data);
        let mut out = [0f32; 4];
        m.read_f32_slice(4096, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn f32_slice_across_frames_and_unaligned() {
        let mut m = PhysMem::new(1 << 20);
        let data: Vec<f32> = (0..2048).map(|i| i as f32 * 0.5 - 7.0).collect();
        // Straddles two frame boundaries; word aligned but not frame aligned.
        m.write_f32_slice(FRAME_BYTES as u64 - 36, &data);
        let mut out = vec![0f32; 2048];
        m.read_f32_slice(FRAME_BYTES as u64 - 36, &mut out);
        assert_eq!(out, data);
        // Unaligned base takes the byte-wise path and still round-trips.
        m.write_f32_slice(13, &data[..8]);
        let mut out = vec![0f32; 8];
        m.read_f32_slice(13, &mut out);
        assert_eq!(out, &data[..8]);
    }

    #[test]
    fn strided_f32_matches_scalar_loop() {
        // In-frame bursts (forward, backward, stride 0) and runs that
        // leave the frame or memory take the same values and stats as the
        // per-word loop.
        let data: Vec<f32> = (0..16).map(|i| i as f32 * 1.5 - 4.0).collect();
        let frame = FRAME_BYTES as u64;
        for (addr, stride) in
            [(64u64, 4i64), (64, 512), (frame - 4, -256), (128, 0), (frame - 64, 16), (8190, 4)]
        {
            let (mut bulk, mut scalar) = (PhysMem::new(4 * frame), PhysMem::new(4 * frame));
            let mut got = vec![0f32; data.len()];
            bulk.write_f32_strided(addr, stride, &data);
            bulk.read_f32_strided(addr, stride, &mut got);
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
        m.read_f32_strided(frame, 8, &mut out);
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
