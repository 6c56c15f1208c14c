//! # cim-machine — simulated host platform for the TDO-CIM reproduction
//!
//! This crate models the von Neumann half of the system in Fig. 2 (a) of
//! *TDO-CIM* (DATE 2020): a dual-core Arm-A7-class host with private L1
//! data caches and a shared L2, LPDDR3 main memory, a system bus carrying
//! PMIO and DMA traffic, an MMU and a CMA carve-out for physically
//! contiguous shared buffers.
//!
//! The paper profiles hosts in Gem5 and prices them at 128 pJ/instruction;
//! this crate substitutes an instruction-cost model with a real cache
//! simulator, which preserves the quantities the evaluation depends on
//! (dynamic instruction count, stall time, flush cost, DMA time).
//!
//! ```
//! use cim_machine::{Machine, MachineConfig};
//! use cim_machine::cpu::InstClass;
//!
//! let mut m = Machine::new(MachineConfig::test_small());
//! let va = m.alloc_host(1024);
//! m.host_store_f32(va, 42.0);
//! m.core.retire(InstClass::Store, 1);
//! assert_eq!(m.host_load_f32(va), 42.0);
//! ```

pub mod bus;
pub mod cache;
pub mod cma;
pub mod config;
pub mod cpu;
pub mod mem;
pub mod mmu;
pub mod units;

pub use bus::SystemBus;
pub use cache::Hierarchy;
pub use cma::CmaAllocator;
pub use config::MachineConfig;
pub use cpu::Core;
pub use mem::PhysMem;
pub use mmu::Mmu;
pub use units::{Energy, SimTime};

use cache::{burst_len, run_addr};
use mmu::PAGE_BYTES;
use std::ops::Range;

/// Base of the host heap in virtual address space.
const HOST_HEAP_BASE: u64 = 0x1000_0000;
/// Base of the virtual window onto the CMA region.
const CMA_VA_BASE: u64 = 0xC000_0000;

/// The simulated host platform: CPU core, caches, memory, MMU, bus, CMA.
///
/// All functional data lives in [`PhysMem`]; host-side accessors perform
/// translation, cache simulation (stall accounting) and the actual byte
/// transfer in one call. The CIM accelerator accesses the same memory via
/// uncacheable DMA (see `cim-accel`), so host caches must be flushed before
/// an offload — exactly the coherence protocol of Section II-E.
#[derive(Debug)]
pub struct Machine {
    /// Platform configuration.
    pub cfg: MachineConfig,
    /// Physical memory.
    pub mem: PhysMem,
    /// L1/L2 data hierarchy.
    pub hier: Hierarchy,
    /// The core executing the application (kernels are single-threaded).
    pub core: Core,
    /// Virtual-to-physical translation.
    pub mmu: Mmu,
    /// Allocator for the physically contiguous shared region.
    pub cma: CmaAllocator,
    /// Shared interconnect.
    pub bus: SystemBus,
    heap_next: u64,
    cma_va_next: u64,
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let mem = PhysMem::new(cfg.phys_mem_bytes);
        let hier = Hierarchy::new(cfg.l1d, cfg.l2, cfg.mem_latency, cfg.freq_hz);
        let core = Core::new(cfg.freq_hz, cfg.pj_per_inst, cfg.pipeline);
        // Frames for anonymous pages come from below the CMA carve-out.
        let mmu = Mmu::new(0x0010_0000, cfg.cma_base);
        let cma = CmaAllocator::new(cfg.cma_base, cfg.cma_bytes, 64);
        let bus = SystemBus::new(cfg.bus);
        Machine {
            cfg,
            mem,
            hier,
            core,
            mmu,
            cma,
            bus,
            heap_next: HOST_HEAP_BASE,
            cma_va_next: CMA_VA_BASE,
        }
    }

    /// Allocates `bytes` of zeroed host heap (page-granular, demand-mapped)
    /// and returns its virtual address.
    pub fn alloc_host(&mut self, bytes: u64) -> u64 {
        let va = self.heap_next;
        let len = bytes.max(1).next_multiple_of(PAGE_BYTES);
        self.mmu.map_anonymous(va, len);
        self.heap_next += len + PAGE_BYTES; // guard page
        va
    }

    /// Allocates a physically contiguous CMA buffer, maps it into the
    /// virtual address space and returns `(va, pa)`.
    ///
    /// # Errors
    ///
    /// Returns [`cma::CmaError::OutOfMemory`] when the carve-out is full.
    pub fn alloc_cma(&mut self, bytes: u64) -> Result<(u64, u64), cma::CmaError> {
        let pa = self.cma.alloc(bytes)?;
        let len = self.cma.allocation_len(pa).expect("just allocated");
        // The virtual window mirrors the physical page offset so that one
        // linear mapping covers the buffer.
        let va = self.cma_va_next + pa % PAGE_BYTES;
        self.mmu.map_contiguous(va, pa, len);
        self.cma_va_next += (pa % PAGE_BYTES + len).next_multiple_of(PAGE_BYTES) + PAGE_BYTES;
        Ok((va, pa))
    }

    /// Frees a CMA buffer previously returned by [`Machine::alloc_cma`].
    ///
    /// # Errors
    ///
    /// Returns [`cma::CmaError::InvalidFree`] for unknown addresses.
    pub fn free_cma(&mut self, va: u64, pa: u64) -> Result<(), cma::CmaError> {
        let len = self.cma.allocation_len(pa).ok_or(cma::CmaError::InvalidFree { addr: pa })?;
        self.cma.free(pa)?;
        self.mmu.unmap(va, len);
        Ok(())
    }

    fn translate(&self, va: u64) -> u64 {
        self.mmu.translate(va).expect("host access to unmapped page")
    }

    /// Cached host load of an `f32`; charges stall cycles to the core.
    pub fn host_load_f32(&mut self, va: u64) -> f32 {
        let pa = self.translate(va);
        let out = self.hier.access(pa, 4, false);
        self.core.stall(out.stall_cycles);
        self.mem.read_f32(pa)
    }

    /// Cached host store of an `f32`; charges stall cycles to the core.
    pub fn host_store_f32(&mut self, va: u64, v: f32) {
        let pa = self.translate(va);
        let out = self.hier.access(pa, 4, true);
        self.core.stall(out.stall_cycles);
        self.mem.write_f32(pa, v);
    }

    /// Cached host load of the `f32` run `va, va + stride, …` into `out`
    /// (a contiguous slice is `stride == 4`): one translate per page
    /// burst, one tag lookup per distinct cache line, and the aggregate
    /// stall charged to the core once, with totals identical to calling
    /// [`Machine::host_load_f32`] per element.
    pub fn host_load_f32_run(&mut self, va: u64, stride: i64, out: &mut [f32]) {
        let mut stall = 0;
        for (pa, words) in PageBursts::new(&self.mmu, va, stride, out.len()) {
            stall += self.hier.access_block(pa, 4, words.len() as u64, stride, false).stall_cycles;
            self.mem.read_f32_run(pa, stride, &mut out[words]);
        }
        self.core.stall(stall);
    }

    /// Cached host store of an `f32` run; the store-side dual of
    /// [`Machine::host_load_f32_run`].
    pub fn host_store_f32_run(&mut self, va: u64, stride: i64, data: &[f32]) {
        let mut stall = 0;
        for (pa, words) in PageBursts::new(&self.mmu, va, stride, data.len()) {
            stall += self.hier.access_block(pa, 4, words.len() as u64, stride, true).stall_cycles;
            self.mem.write_f32_run(pa, stride, &data[words]);
        }
        self.core.stall(stall);
    }

    /// Cached host copy of `count` `f32` words from `src` to `dst`,
    /// chunked through a bounded buffer. Equivalent to the per-word
    /// load/store loop for non-overlapping ranges; overlapping or
    /// misaligned ranges take that loop verbatim, which keeps its
    /// forward-propagation semantics and its cache-access order.
    pub fn host_copy_f32(&mut self, src: u64, dst: u64, count: u64) {
        let overlap = src < dst + 4 * count && dst < src + 4 * count;
        if overlap || !src.is_multiple_of(4) || !dst.is_multiple_of(4) {
            for i in 0..count {
                let v = self.host_load_f32(src + 4 * i);
                self.host_store_f32(dst + 4 * i, v);
            }
            return;
        }
        let mut buf = [0f32; 1024];
        let mut done = 0u64;
        while done < count {
            let k = buf.len().min((count - done) as usize);
            self.host_load_f32_run(src + 4 * done, 4, &mut buf[..k]);
            self.host_store_f32_run(dst + 4 * done, 4, &buf[..k]);
            done += k as u64;
        }
    }

    /// Writes initial data into an array without charging the core
    /// (test-bench initialization, "outside the ROI"): the page-burst
    /// walk of [`Machine::host_store_f32_run`] without the caches.
    pub fn poke_f32_slice(&mut self, va: u64, data: &[f32]) {
        for (pa, words) in PageBursts::new(&self.mmu, va, 4, data.len()) {
            self.mem.write_f32_run(pa, 4, &data[words]);
        }
    }

    /// Reads data from an array without charging the core.
    pub fn peek_f32_slice(&mut self, va: u64, out: &mut [f32]) {
        for (pa, words) in PageBursts::new(&self.mmu, va, 4, out.len()) {
            self.mem.read_f32_run(pa, 4, &mut out[words]);
        }
    }

    /// Models the host performing `duration` of useful, independent
    /// compute — "continue with other tasks" (Section II-E) — while an
    /// offloaded command is in flight. The in-order core retires one
    /// ALU instruction per cycle for the span, so the work is visible in
    /// the instruction mix (and priced at pJ/inst) but, unlike
    /// [`cpu::Core::spin_wait`], none of it is wasted polling. Returns
    /// the number of instructions retired.
    pub fn advance_host(&mut self, duration: SimTime) -> u64 {
        let insts = duration.to_cycles(self.cfg.freq_hz);
        self.core.retire(cpu::InstClass::IntAlu, insts);
        insts
    }

    /// Current wall-clock time on the host core.
    pub fn now(&self) -> SimTime {
        self.core.elapsed()
    }

    /// Host energy so far.
    pub fn host_energy(&self) -> Energy {
        self.core.energy()
    }
}

/// The page bursts of the `f32` run `va, va + stride, …` of `len` words:
/// maximal stretches of consecutive words whose first bytes lie on one
/// virtual page, each translated once and yielded as `(pa, word range)`.
/// A page maps onto one frame, so a burst is physically the same strided
/// run, with each word at the address [`Machine::host_load_f32`] would
/// translate it to. A word of a misaligned run may straddle the page's
/// end; the cache and memory walks take such runs word by word.
struct PageBursts<'a> {
    mmu: &'a Mmu,
    va: u64,
    stride: i64,
    done: usize,
    len: usize,
}

impl<'a> PageBursts<'a> {
    fn new(mmu: &'a Mmu, va: u64, stride: i64, len: usize) -> Self {
        PageBursts { mmu, va, stride, done: 0, len }
    }
}

impl Iterator for PageBursts<'_> {
    type Item = (u64, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done == self.len {
            return None;
        }
        let at = run_addr(self.va, self.stride, self.done);
        let k = burst_len(at, PAGE_BYTES, self.stride, (self.len - self.done) as u64) as usize;
        let pa = self.mmu.translate(at).expect("host access to unmapped page");
        let words = self.done..self.done + k;
        self.done += k;
        Some((pa, words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::InstClass;

    #[test]
    fn host_heap_allocations_are_disjoint() {
        let mut m = Machine::new(MachineConfig::test_small());
        let a = m.alloc_host(8192);
        let b = m.alloc_host(100);
        assert!(b >= a + 8192);
        m.host_store_f32(a, 1.0);
        m.host_store_f32(b, 2.0);
        assert_eq!(m.host_load_f32(a), 1.0);
        assert_eq!(m.host_load_f32(b), 2.0);
    }

    #[test]
    fn cma_buffers_are_physically_contiguous() {
        let mut m = Machine::new(MachineConfig::test_small());
        let (va, pa) = m.alloc_cma(3 * PAGE_BYTES).expect("cma");
        assert!(m.mmu.is_contiguous(va, 3 * PAGE_BYTES));
        assert_eq!(m.mmu.translate(va).unwrap(), pa);
        m.free_cma(va, pa).expect("free");
        assert!(m.mmu.translate(va).is_err());
    }

    #[test]
    fn host_access_charges_stalls() {
        let mut m = Machine::new(MachineConfig::test_small());
        let va = m.alloc_host(64);
        m.host_load_f32(va); // cold miss -> stall
        assert!(m.core.stall_cycles() > 0);
        let before = m.core.stall_cycles();
        m.host_load_f32(va); // hit
        assert_eq!(m.core.stall_cycles(), before);
    }

    #[test]
    fn device_sees_host_data_after_flush() {
        let mut m = Machine::new(MachineConfig::test_small());
        let (va, pa) = m.alloc_cma(64).expect("cma");
        m.host_store_f32(va, 7.0);
        // Without a flush the cache holds the dirty line; our PhysMem is
        // write-through functionally, but the protocol still flushes:
        let (_, dirty) = m.hier.flush_range(pa, 64);
        assert_eq!(dirty, 1);
        let mut buf = [0u8; 4];
        m.mem.read(pa, &mut buf);
        assert_eq!(f32::from_le_bytes(buf), 7.0);
    }

    #[test]
    fn poke_peek_do_not_charge_core() {
        let mut m = Machine::new(MachineConfig::test_small());
        let va = m.alloc_host(1024);
        let insts_before = m.core.instructions();
        let cycles_before = m.core.cycles();
        m.poke_f32_slice(va, &[1.0, 2.0, 3.0]);
        let mut out = [0f32; 3];
        m.peek_f32_slice(va, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert_eq!(m.core.instructions(), insts_before);
        assert_eq!(m.core.cycles(), cycles_before);
    }

    #[test]
    fn run_accessors_match_scalar_loops() {
        // Bulk load/store runs must charge the same stalls, mutate the
        // caches identically and move the same bytes as the scalar loop.
        for stride in [4i64, 8, 64, -4] {
            let mut bulk = Machine::new(MachineConfig::test_small());
            let mut scalar = Machine::new(MachineConfig::test_small());
            let n = 700usize;
            let span = 4 * n as u64 * stride.unsigned_abs();
            let (vb, vs) = (bulk.alloc_host(span), scalar.alloc_host(span));
            assert_eq!(vb, vs);
            let start = if stride < 0 { vb + span - 4 } else { vb };
            let data: Vec<f32> = (0..n).map(|i| i as f32 - 3.25).collect();
            bulk.host_store_f32_run(start, stride, &data);
            for (i, v) in data.iter().enumerate() {
                scalar.host_store_f32(start.wrapping_add((i as i64 * stride) as u64), *v);
            }
            let mut got = vec![0f32; n];
            bulk.host_load_f32_run(start, stride, &mut got);
            let mut want = vec![0f32; n];
            for (i, slot) in want.iter_mut().enumerate() {
                *slot = scalar.host_load_f32(start.wrapping_add((i as i64 * stride) as u64));
            }
            assert_eq!(got, want, "stride {stride}");
            assert_eq!(got, data, "stride {stride}");
            assert_eq!(bulk.core.stall_cycles(), scalar.core.stall_cycles(), "stride {stride}");
            assert_eq!(bulk.hier.l1d.stats(), scalar.hier.l1d.stats(), "stride {stride}");
            assert_eq!(bulk.hier.l2.stats(), scalar.hier.l2.stats(), "stride {stride}");
        }
    }

    #[test]
    fn host_copy_matches_scalar_loop_values() {
        let mut m = Machine::new(MachineConfig::test_small());
        let src = m.alloc_host(8192);
        let dst = m.alloc_host(8192);
        let data: Vec<f32> = (0..2048).map(|i| (i * 3) as f32).collect();
        m.poke_f32_slice(src, &data);
        m.host_copy_f32(src, dst, 2048);
        let mut out = vec![0f32; 2048];
        m.peek_f32_slice(dst, &mut out);
        assert_eq!(out, data);
        assert!(m.core.stall_cycles() > 0, "copy is a cached host access");
        // Overlapping copy keeps the forward word-loop semantics.
        m.host_copy_f32(dst, dst + 4, 3);
        let mut o = [0f32; 4];
        m.peek_f32_slice(dst, &mut o);
        assert_eq!(o, [data[0], data[0], data[0], data[0]]);
    }

    #[test]
    fn advance_host_retires_useful_work() {
        let mut m = Machine::new(MachineConfig::test_small());
        let insts = m.advance_host(SimTime::from_us(1.0));
        assert_eq!(insts, m.cfg.freq_hz as u64 / 1_000_000);
        assert_eq!(m.core.instructions(), insts);
        assert_eq!(m.core.spin_instructions(), 0, "overlap work is not spinning");
        assert!((m.now().as_us() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn energy_and_time_track_core() {
        let mut m = Machine::new(MachineConfig::test_small());
        m.core.retire(InstClass::IntAlu, 1200);
        assert!((m.now().as_us() - 1.0).abs() < 1e-9);
        assert!((m.host_energy().as_pj() - 1200.0 * 128.0).abs() < 1e-6);
    }
}
