//! # cim-accel — the standalone CIM accelerator
//!
//! "A CIM tile, a micro-engine, and a DMA unit for load and store
//! operations make a standalone accelerator. The core is the CIM tile
//! which computes a standard matrix-vector multiplication (GEMV) of
//! complexity O(N^2) in O(1) constant time. The matrix-matrix computation
//! (GEMM) can be implemented as a series of matrix-vector operations"
//! (Section II-C of the TDO-CIM paper).
//!
//! The accelerator generalizes the paper's single tile to a
//! [`AccelConfig::grid`]-shaped array of tiles built from a pluggable
//! resistive device model ([`cim_pcm::DeviceKind`]). GEMMs larger than
//! one crossbar are *sharded*: the micro-engine spreads the block grid of
//! `op(A)` across physical tiles that install and compute in parallel,
//! accumulating partial columns digitally instead of serializing crossbar
//! views ([`shard`]). A `(1, 1)` grid reproduces the paper's accelerator
//! exactly.
//!
//! The accelerator is driven exactly like the hardware: the host writes
//! dimensions, addresses and scales into memory-mapped [`regs`] and arms
//! the command register; [`CimAccelerator::execute`] then plays the role
//! of the micro-engine, moving real bytes through the machine's shared
//! memory over DMA and accounting energy/latency per Table I.
//!
//! ```
//! use cim_accel::{AccelConfig, CimAccelerator};
//! use cim_accel::regs::{Command, Reg, Status};
//! use cim_machine::{Machine, MachineConfig};
//!
//! let mut mach = Machine::new(MachineConfig::test_small());
//! let mut acc = CimAccelerator::new(AccelConfig::test_small(), mach.cfg.bus);
//! // y = A*x with A = I(2): installs A, streams x, writes y.
//! let (_, a) = mach.alloc_cma(64).unwrap();
//! let (_, x) = mach.alloc_cma(64).unwrap();
//! let (_, y) = mach.alloc_cma(64).unwrap();
//! mach.mem.write_f32_slice(a, &[1.0, 0.0, 0.0, 1.0]);
//! mach.mem.write_f32_slice(x, &[3.0, 4.0]);
//! for (r, v) in [(Reg::M, 2u64), (Reg::N, 1), (Reg::K, 2), (Reg::Lda, 2),
//!                (Reg::Ldb, 1), (Reg::Ldc, 1), (Reg::AddrA, a), (Reg::AddrB, x),
//!                (Reg::AddrC, y)] {
//!     acc.pmio_write(r, v);
//! }
//! acc.pmio_write(Reg::Alpha, 1.0f32.to_bits() as u64);
//! acc.pmio_write(Reg::Beta, 0.0f32.to_bits() as u64);
//! acc.pmio_write(Reg::Command, Command::Gemv as u64);
//! acc.execute(&mut mach);
//! assert_eq!(acc.regs().status(), Status::Done);
//! assert_eq!(mach.mem.read_f32(y), 3.0);
//! ```

pub mod buffers;
pub mod config;
pub mod dma;
pub mod engine;
pub mod estimate;
pub mod regs;
pub mod shard;
pub mod stats;
pub mod tile;
pub mod timeline;

pub use cim_pcm::{DeviceKind, DeviceModel};
pub use config::{AccelConfig, MAX_DMA_CHANNELS};
pub use engine::{operand_bytes, ConvParams, EngineError, GemmParams};
pub use estimate::OpEstimate;
pub use shard::{partition_grid, GridRegion};
pub use stats::AccelStats;
pub use tile::{CimTile, TileKey, TileWear};
pub use timeline::{EventKind, Timeline};

use cim_machine::bus::BusConfig;
use cim_machine::units::SimTime;
use cim_machine::Machine;

use buffers::DeviceBuffers;
use dma::DmaEngine;
use regs::{Command, ContextRegisters, Reg, Status};
use timeline::EventKind as Ev;

/// The standalone CIM accelerator of Fig. 2 (b), generalized to a grid
/// of tiles.
#[derive(Debug)]
pub struct CimAccelerator {
    pub(crate) cfg: AccelConfig,
    pub(crate) bus_cfg: BusConfig,
    /// Physical tiles in row-major `(k_lane, m_lane)` order.
    pub(crate) tiles: Vec<CimTile>,
    pub(crate) buffers: DeviceBuffers,
    pub(crate) dma: DmaEngine,
    pub(crate) regs: ContextRegisters,
    pub(crate) timeline: Timeline,
    pub(crate) stats: AccelStats,
    /// Cumulative install-gather DMA time per per-tile channel
    /// (`cfg.dma_channels` entries).
    pub(crate) channel_busy: Vec<SimTime>,
    pub(crate) generation: u64,
    /// Next logical command id (monotonic across the device's lifetime).
    pub(crate) cmd_seq: u64,
    /// First command id of the most recently executed command.
    last_cmd: u64,
    last_error: Option<EngineError>,
}

impl CimAccelerator {
    /// Creates an idle accelerator attached to a bus with `bus_cfg` timing.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AccelConfig::validate`].
    pub fn new(cfg: AccelConfig, bus_cfg: BusConfig) -> Self {
        cfg.validate();
        CimAccelerator {
            tiles: (0..cfg.tile_count()).map(|_| CimTile::new(&cfg)).collect(),
            buffers: DeviceBuffers::new(cfg.buffer_bytes),
            dma: DmaEngine::new(),
            regs: ContextRegisters::new(),
            timeline: Timeline::new(cfg.timeline_capacity),
            stats: AccelStats::default(),
            channel_busy: vec![SimTime::ZERO; cfg.dma_channels],
            generation: 0,
            cmd_seq: 0,
            last_cmd: 0,
            last_error: None,
            cfg,
            bus_cfg,
        }
    }

    /// Static configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// The physical tiles, row-major by `(k_lane, m_lane)`.
    pub fn tiles(&self) -> &[CimTile] {
        &self.tiles
    }

    /// Flat index of the tile at grid lane `(k_lane, m_lane)`.
    pub(crate) fn tile_index(&self, lane: (usize, usize)) -> usize {
        lane.0 * self.cfg.grid.1 + lane.1
    }

    /// Per-tile wear, in grid order — shows how sharding spreads cell
    /// programs across the array (the endurance dimension of Eq. 1).
    pub fn tile_wear(&self) -> Vec<TileWear> {
        let gm = self.cfg.grid.1;
        self.tiles
            .iter()
            .enumerate()
            .map(|(i, t)| TileWear {
                tile: (i / gm, i % gm),
                cell_writes: t.cell_writes(),
                max_cell_writes: t.max_cell_writes(),
            })
            .collect()
    }

    /// Total cell writes absorbed so far by the tiles of `region` — the
    /// region-granular view of [`CimAccelerator::tile_wear`] that the
    /// serving scheduler's wear budgets and wear-aware lease placement
    /// read. Region lanes outside the grid are ignored (a region from a
    /// foreign grid shape contributes only its in-bounds tiles).
    pub fn region_cell_writes(&self, region: &GridRegion) -> u64 {
        let (gk, gm) = self.cfg.grid;
        let (k0, m0) = region.origin;
        let (sk, sm) = region.shape;
        let mut total = 0;
        for k in k0..(k0 + sk).min(gk) {
            for m in m0..(m0 + sm).min(gm) {
                total += self.tiles[k * gm + m].cell_writes();
            }
        }
        total
    }

    /// Host-visible PMIO register write (bus timing is charged by the
    /// driver, which owns the host side of the transaction).
    pub fn pmio_write(&mut self, r: Reg, v: u64) {
        self.regs.write(r, v);
    }

    /// Host-visible PMIO register read.
    pub fn pmio_read(&self, r: Reg) -> u64 {
        self.regs.read(r)
    }

    /// The context register file (for drivers/tests).
    pub fn regs(&self) -> &ContextRegisters {
        &self.regs
    }

    /// Invalidates operand residency: the host rewrote shared memory, so
    /// any installed tile may be stale. Called by the driver on
    /// host-to-device transfers.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
        for tile in &mut self.tiles {
            tile.invalidate();
        }
    }

    /// Current buffer-content generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Range-precise residency invalidation: drops installed operands
    /// whose source bytes overlap `[pa, pa+len)` (conservatively, via
    /// [`TileKey::pa_span`]). Used by the zero-copy sync path so
    /// refreshing one buffer does not evict an unrelated resident
    /// operand.
    pub fn invalidate_range(&mut self, pa: u64, len: u64) {
        for tile in &mut self.tiles {
            if let Some(key) = tile.resident() {
                let (s, l) = key.pa_span();
                let base_inside = key.base_pa >= pa && key.base_pa < pa + len;
                let span_overlaps = s < pa + len && pa < s + l;
                if base_inside || span_overlaps {
                    tile.invalidate();
                }
            }
        }
    }

    /// Records that `tiles` physical tiles were concurrently busy at some
    /// instant — the driver's view when separate in-flight commands
    /// overlap on disjoint regions, which the engine cannot see from
    /// inside any single command.
    pub fn note_tiles_active(&mut self, tiles: u64) {
        self.stats.max_tiles_active = self.stats.max_tiles_active.max(tiles);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &AccelStats {
        &self.stats
    }

    /// Resets statistics (not residency or the timeline).
    pub fn reset_stats(&mut self) {
        self.stats = AccelStats::default();
        self.channel_busy = vec![SimTime::ZERO; self.cfg.dma_channels];
        self.buffers.reset();
        self.dma.reset();
    }

    /// Cumulative install-gather DMA time queued on each per-tile DMA
    /// channel (one entry per configured channel). With the default
    /// single channel this equals the serial install bus occupancy; the
    /// driver mirrors it into `DriverStats` on every batched poll.
    pub fn dma_channel_busy(&self) -> &[SimTime] {
        &self.channel_busy
    }

    /// Recorded event timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Clears the event timeline.
    pub fn clear_timeline(&mut self) {
        self.timeline.clear();
    }

    /// Error from the last failed command, if any.
    pub fn last_error(&self) -> Option<&EngineError> {
        self.last_error.as_ref()
    }

    fn decode_gemm(&self) -> GemmParams {
        let r = &self.regs;
        GemmParams {
            m: r.read_usize(Reg::M),
            n: r.read_usize(Reg::N),
            k: r.read_usize(Reg::K),
            alpha: r.read_f32(Reg::Alpha),
            beta: r.read_f32(Reg::Beta),
            a: r.read(Reg::AddrA),
            lda: r.read_usize(Reg::Lda),
            trans_a: r.read(Reg::TransA) != 0,
            b: r.read(Reg::AddrB),
            ldb: r.read_usize(Reg::Ldb),
            trans_b: r.read(Reg::TransB) != 0,
            c: r.read(Reg::AddrC),
            ldc: r.read_usize(Reg::Ldc),
        }
    }

    fn decode_conv(&self) -> ConvParams {
        let r = &self.regs;
        ConvParams {
            img: r.read(Reg::AddrA),
            h: r.read_usize(Reg::ImgH),
            w: r.read_usize(Reg::ImgW),
            filt: r.read(Reg::AddrB),
            fh: r.read_usize(Reg::FiltH),
            fw: r.read_usize(Reg::FiltW),
            out: r.read(Reg::AddrC),
        }
    }

    /// Runs the armed command to completion, returning the busy duration.
    /// On success the status register reads [`Status::Done`]; malformed
    /// commands leave [`Status::Error`] and record [`Self::last_error`].
    ///
    /// The duration is *accelerator* time; the driver decides how the host
    /// waits for it (spin or poll), which is where the host-side energy of
    /// Fig. 6 comes from.
    pub fn execute(&mut self, mach: &mut Machine) -> SimTime {
        let t0 = mach.now();
        self.execute_at(mach, t0)
    }

    /// As [`Self::execute`], but places the command's timeline events
    /// starting at `t0` rather than the host's current clock — the entry
    /// point of an async driver whose dispatch queue may hold the command
    /// until earlier in-flight work on the same tiles retires.
    pub fn execute_at(&mut self, mach: &mut Machine, t0: SimTime) -> SimTime {
        let cmd = match Command::decode(self.regs.read(Reg::Command)) {
            Some(c) => c,
            None => {
                self.last_error = Some(EngineError::Unsupported("unknown command opcode".into()));
                self.regs.set_status(Status::Error);
                return SimTime::ZERO;
            }
        };
        if cmd == Command::Nop {
            self.regs.set_status(Status::Idle);
            return SimTime::ZERO;
        }
        self.last_cmd = self.cmd_seq;
        self.regs.set_status(Status::Busy);
        self.timeline.push_on(
            Ev::Trigger,
            None,
            Some(self.last_cmd),
            t0,
            t0,
            format!("{cmd:?} armed"),
        );
        let region = GridRegion::decode(self.regs.read(Reg::Region), self.cfg.grid);
        let result = match cmd {
            Command::Gemm => {
                let p = self.decode_gemm();
                self.run_gemm(mach, &p, region, t0)
            }
            Command::Gemv => {
                let p = GemmParams { n: 1, ldb: 1, ldc: 1, ..self.decode_gemm() };
                self.run_gemm(mach, &p, region, t0)
            }
            Command::GemmBatched => {
                let template = self.decode_gemm();
                let count = self.regs.read_usize(Reg::BatchCount);
                let table = self.regs.read(Reg::AddrBatch);
                self.run_gemm_batched(mach, &template, table, count, t0)
            }
            Command::Conv2d => {
                let p = self.decode_conv();
                self.run_conv2d(mach, &p, t0)
            }
            Command::Nop => unreachable!("handled above"),
        };
        match result {
            Ok(dur) => {
                self.stats.busy += dur;
                self.regs.set_status(Status::Done);
                self.timeline.push_on(
                    Ev::ResultReady,
                    None,
                    Some(self.last_cmd),
                    t0 + dur,
                    t0 + dur,
                    "status := done",
                );
                self.last_error = None;
                dur
            }
            Err(e) => {
                self.last_error = Some(e);
                self.regs.set_status(Status::Error);
                SimTime::ZERO
            }
        }
    }

    /// First logical command id assigned to the most recently executed
    /// command (batched elements count up from it). Identifies the
    /// command in timeline events and driver completion handles.
    pub fn last_cmd(&self) -> u64 {
        self.last_cmd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_machine::MachineConfig;

    fn setup() -> (Machine, CimAccelerator) {
        let mach = Machine::new(MachineConfig::test_small());
        let acc = CimAccelerator::new(AccelConfig::test_small(), mach.cfg.bus);
        (mach, acc)
    }

    fn alloc_mat(mach: &mut Machine, data: &[f32]) -> u64 {
        let (_va, pa) = mach.alloc_cma((data.len() * 4) as u64).expect("cma");
        mach.mem.write_f32_slice(pa, data);
        pa
    }

    fn arm_gemm(acc: &mut CimAccelerator, m: usize, n: usize, k: usize, a: u64, b: u64, c: u64) {
        acc.pmio_write(Reg::M, m as u64);
        acc.pmio_write(Reg::N, n as u64);
        acc.pmio_write(Reg::K, k as u64);
        acc.pmio_write(Reg::Lda, k as u64);
        acc.pmio_write(Reg::Ldb, n as u64);
        acc.pmio_write(Reg::Ldc, n as u64);
        acc.pmio_write(Reg::AddrA, a);
        acc.pmio_write(Reg::AddrB, b);
        acc.pmio_write(Reg::AddrC, c);
        acc.pmio_write(Reg::Alpha, 1.0f32.to_bits() as u64);
        acc.pmio_write(Reg::Beta, 0.0f32.to_bits() as u64);
        acc.pmio_write(Reg::TransA, 0);
        acc.pmio_write(Reg::TransB, 0);
        acc.pmio_write(Reg::Command, Command::Gemm as u64);
    }

    fn read_mat(mach: &mut Machine, pa: u64, len: usize) -> Vec<f32> {
        let mut out = vec![0f32; len];
        mach.mem.read_f32_slice(pa, &mut out);
        out
    }

    #[test]
    fn small_gemm_is_correct() {
        let (mut mach, mut acc) = setup();
        // 2x3 * 3x2 = 2x2.
        let a = alloc_mat(&mut mach, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = alloc_mat(&mut mach, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = alloc_mat(&mut mach, &[0.0; 4]);
        arm_gemm(&mut acc, 2, 2, 3, a, b, c);
        let dur = acc.execute(&mut mach);
        assert_eq!(acc.regs().status(), Status::Done);
        assert!(dur.as_ns() > 0.0);
        assert_eq!(read_mat(&mut mach, c, 4), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_beta_accumulates() {
        let (mut mach, mut acc) = setup();
        let a = alloc_mat(&mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let b = alloc_mat(&mut mach, &[2.0, 0.0, 0.0, 2.0]);
        let c = alloc_mat(&mut mach, &[10.0, 10.0, 10.0, 10.0]);
        arm_gemm(&mut acc, 2, 2, 2, a, b, c);
        acc.pmio_write(Reg::Alpha, 1.5f32.to_bits() as u64);
        acc.pmio_write(Reg::Beta, 0.5f32.to_bits() as u64);
        acc.execute(&mut mach);
        // C = 1.5*(2*I) + 0.5*10 = 3*I + 5.
        assert_eq!(read_mat(&mut mach, c, 4), vec![8.0, 5.0, 5.0, 8.0]);
    }

    #[test]
    fn tiled_gemm_larger_than_crossbar() {
        let (mut mach, mut acc) = setup(); // 8x8 crossbar
        let n = 12usize;
        let av: Vec<f32> = (0..n * n).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
        let bv: Vec<f32> = (0..n * n).map(|i| ((i * 3) % 7) as f32 - 3.0).collect();
        let a = alloc_mat(&mut mach, &av);
        let b = alloc_mat(&mut mach, &bv);
        let c = alloc_mat(&mut mach, &vec![0.0; n * n]);
        arm_gemm(&mut acc, n, n, n, a, b, c);
        acc.execute(&mut mach);
        assert_eq!(acc.regs().status(), Status::Done);
        let got = read_mat(&mut mach, c, n * n);
        for i in 0..n {
            for j in 0..n {
                let mut acc_v = 0.0f32;
                for kk in 0..n {
                    acc_v += av[i * n + kk] * bv[kk * n + j];
                }
                assert!((got[i * n + j] - acc_v).abs() < 1e-3, "C[{i}][{j}]");
            }
        }
        // 2x2 tiles of A, each installed once: rows = (8+4) + (8+4).
        assert_eq!(acc.stats().rows_programmed, 24);
    }

    #[test]
    fn transposed_a_gemv() {
        let (mut mach, mut acc) = setup();
        // y = A^T x, A = [[1,2],[3,4]] => A^T x with x=[1,1] is [4,6].
        let a = alloc_mat(&mut mach, &[1.0, 2.0, 3.0, 4.0]);
        let x = alloc_mat(&mut mach, &[1.0, 1.0]);
        let y = alloc_mat(&mut mach, &[0.0, 0.0]);
        acc.pmio_write(Reg::M, 2);
        acc.pmio_write(Reg::K, 2);
        acc.pmio_write(Reg::Lda, 2);
        acc.pmio_write(Reg::AddrA, a);
        acc.pmio_write(Reg::AddrB, x);
        acc.pmio_write(Reg::AddrC, y);
        acc.pmio_write(Reg::Alpha, 1.0f32.to_bits() as u64);
        acc.pmio_write(Reg::Beta, 0.0f32.to_bits() as u64);
        acc.pmio_write(Reg::TransA, 1);
        acc.pmio_write(Reg::Command, Command::Gemv as u64);
        acc.execute(&mut mach);
        assert_eq!(read_mat(&mut mach, y, 2), vec![4.0, 6.0]);
    }

    #[test]
    fn batched_gemm_shares_installed_a() {
        let (mut mach, mut acc) = setup();
        let a = alloc_mat(&mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let b1 = alloc_mat(&mut mach, &[1.0, 2.0, 3.0, 4.0]);
        let b2 = alloc_mat(&mut mach, &[5.0, 6.0, 7.0, 8.0]);
        let c1 = alloc_mat(&mut mach, &[0.0; 4]);
        let c2 = alloc_mat(&mut mach, &[0.0; 4]);
        // Descriptor table: (a, b1, c1), (a, b2, c2).
        let mut raw = Vec::new();
        for v in [a, b1, c1, a, b2, c2] {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        let (_va, table) = mach.alloc_cma(raw.len() as u64).expect("cma");
        mach.uncached_write(table, &raw);
        arm_gemm(&mut acc, 2, 2, 2, a, b1, c1);
        acc.pmio_write(Reg::BatchCount, 2);
        acc.pmio_write(Reg::AddrBatch, table);
        acc.pmio_write(Reg::Command, Command::GemmBatched as u64);
        acc.execute(&mut mach);
        assert_eq!(acc.regs().status(), Status::Done);
        assert_eq!(read_mat(&mut mach, c1, 4), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(read_mat(&mut mach, c2, 4), vec![5.0, 6.0, 7.0, 8.0]);
        // A installed once: 2 rows, not 4 — the Listing-2 endurance win.
        assert_eq!(acc.stats().rows_programmed, 2);
        assert_eq!(acc.stats().cell_writes, 4);
    }

    /// Runs a batch of `count` independent GEMMs (distinct operands) on
    /// `cfg`, returning the concatenated `C` results and the stats.
    fn run_batch_with(cfg: AccelConfig, n: usize, count: usize) -> (Vec<f32>, AccelStats, SimTime) {
        let mut mach = Machine::new(MachineConfig::test_small());
        let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
        let mut descr = Vec::new();
        let mut c_pas = Vec::new();
        for i in 0..count {
            let av: Vec<f32> = (0..n * n).map(|j| ((i * 31 + j * 7) % 11) as f32 - 5.0).collect();
            let bv: Vec<f32> = (0..n * n).map(|j| ((i * 17 + j * 3) % 13) as f32 - 6.0).collect();
            let a = alloc_mat(&mut mach, &av);
            let b = alloc_mat(&mut mach, &bv);
            let c = alloc_mat(&mut mach, &vec![0.0; n * n]);
            descr.extend_from_slice(&[a, b, c]);
            c_pas.push(c);
        }
        let mut raw = Vec::new();
        for v in &descr {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        let (_va, table) = mach.alloc_cma(raw.len() as u64).expect("cma");
        mach.uncached_write(table, &raw);
        arm_gemm(&mut acc, n, n, n, descr[0], descr[1], descr[2]);
        acc.pmio_write(Reg::BatchCount, count as u64);
        acc.pmio_write(Reg::AddrBatch, table);
        acc.pmio_write(Reg::Command, Command::GemmBatched as u64);
        let dur = acc.execute(&mut mach);
        assert_eq!(acc.regs().status(), Status::Done, "{:?}", acc.last_error());
        let mut out = Vec::new();
        for c in c_pas {
            out.extend(read_mat(&mut mach, c, n * n));
        }
        (out, *acc.stats(), dur)
    }

    #[test]
    fn batched_partitions_grid_and_beats_serial() {
        // Four independent 8x8 GEMMs on 8x8 tiles: a 2x2 grid runs them
        // on four disjoint one-tile regions concurrently.
        let (serial_c, serial_stats, serial_dur) = run_batch_with(AccelConfig::test_small(), 8, 4);
        let (sharded_c, sharded_stats, sharded_dur) =
            run_batch_with(AccelConfig::test_small().with_grid(2, 2), 8, 4);
        assert_eq!(sharded_c, serial_c, "partitioned batch diverged");
        assert_eq!(sharded_stats.cell_writes, serial_stats.cell_writes);
        assert_eq!(sharded_stats.macs, serial_stats.macs);
        assert_eq!(serial_stats.max_tiles_active, 1);
        assert_eq!(sharded_stats.max_tiles_active, 4, "all regions active in one round");
        assert!(
            sharded_dur.as_ns() < 0.5 * serial_dur.as_ns(),
            "batch {sharded_dur} not faster than serial {serial_dur}"
        );
    }

    #[test]
    fn batched_run_matches_estimate_on_partitioned_grid() {
        for (count, grid) in [(4usize, (2usize, 2usize)), (3, (2, 2)), (5, (4, 1))] {
            let cfg = AccelConfig::test_small().with_grid(grid.0, grid.1);
            let (_, stats, dur) = run_batch_with(cfg, 8, count);
            let est = estimate::estimate_gemm_batched(
                &cfg,
                &Machine::new(MachineConfig::test_small()).cfg.bus,
                8,
                8,
                8,
                true,
                count,
                false,
            );
            assert_eq!(stats.gemv_count, est.gemvs, "count={count} grid={grid:?}");
            assert_eq!(stats.cell_writes, est.cell_writes);
            assert_eq!(stats.rows_programmed, est.rows_programmed);
            assert_eq!(stats.macs, est.macs);
            assert_eq!(stats.max_tiles_active, est.parallel_tiles);
            assert!(
                (dur.as_ns() - est.time.as_ns()).abs() < 1e-6,
                "count={count} grid={grid:?}: time {dur} vs {}",
                est.time
            );
            let measured = stats.total_energy();
            assert!(
                (measured.as_pj() - est.energy.as_pj()).abs() / est.energy.as_pj() < 1e-9,
                "energy {measured} vs {}",
                est.energy
            );
        }
    }

    #[test]
    fn dependent_batch_serializes() {
        // Two batch elements writing the same C must not be modeled as
        // concurrent: the schedule falls back to the serial chain.
        let mut mach = Machine::new(MachineConfig::test_small());
        let cfg = AccelConfig::test_small().with_grid(2, 2);
        let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
        let a = alloc_mat(&mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let b = alloc_mat(&mut mach, &[1.0, 2.0, 3.0, 4.0]);
        let c = alloc_mat(&mut mach, &[0.0; 4]);
        let mut raw = Vec::new();
        for v in [a, b, c, a, c, c] {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        let (_va, table) = mach.alloc_cma(raw.len() as u64).expect("cma");
        mach.uncached_write(table, &raw);
        arm_gemm(&mut acc, 2, 2, 2, a, b, c);
        acc.pmio_write(Reg::Beta, 0.0f32.to_bits() as u64);
        acc.pmio_write(Reg::BatchCount, 2);
        acc.pmio_write(Reg::AddrBatch, table);
        acc.pmio_write(Reg::Command, Command::GemmBatched as u64);
        acc.execute(&mut mach);
        assert_eq!(acc.regs().status(), Status::Done);
        // Element 2 consumed element 1's output: C := I * C.
        assert_eq!(read_mat(&mut mach, c, 4), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(acc.stats().max_tiles_active, 1, "dependent batch stays serial");
    }

    #[test]
    fn conv2d_matches_reference() {
        // A 3x3 filter needs at least 3*fw word lines: use a 32x32 tile.
        let mut mach = Machine::new(MachineConfig::test_small());
        let cfg = AccelConfig { rows: 32, cols: 32, ..AccelConfig::test_small() };
        let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
        let (h, w) = (6usize, 6usize);
        let img: Vec<f32> = (0..h * w).map(|i| (i % 5) as f32 - 2.0).collect();
        let filt = [1.0f32, 0.0, -1.0, 2.0, 0.5, -2.0, 1.0, -1.0, 0.0];
        let ipa = alloc_mat(&mut mach, &img);
        let fpa = alloc_mat(&mut mach, &filt);
        let (oh, ow) = (h - 2, w - 2);
        let opa = alloc_mat(&mut mach, &vec![0.0; oh * ow]);
        acc.pmio_write(Reg::AddrA, ipa);
        acc.pmio_write(Reg::AddrB, fpa);
        acc.pmio_write(Reg::AddrC, opa);
        acc.pmio_write(Reg::ImgH, h as u64);
        acc.pmio_write(Reg::ImgW, w as u64);
        acc.pmio_write(Reg::FiltH, 3);
        acc.pmio_write(Reg::FiltW, 3);
        acc.pmio_write(Reg::Command, Command::Conv2d as u64);
        acc.execute(&mut mach);
        assert_eq!(acc.regs().status(), Status::Done, "{:?}", acc.last_error());
        let got = read_mat(&mut mach, opa, oh * ow);
        for oi in 0..oh {
            for oj in 0..ow {
                let mut acc_v = 0.0f32;
                for fr in 0..3 {
                    for fc in 0..3 {
                        acc_v += filt[fr * 3 + fc] * img[(oi + fr) * w + oj + fc];
                    }
                }
                assert!((got[oi * ow + oj] - acc_v).abs() < 1e-3, "out[{oi}][{oj}]");
            }
        }
    }

    #[test]
    fn trans_b_is_rejected() {
        let (mut mach, mut acc) = setup();
        let a = alloc_mat(&mut mach, &[0.0; 4]);
        arm_gemm(&mut acc, 2, 2, 2, a, a, a);
        acc.pmio_write(Reg::TransB, 1);
        let dur = acc.execute(&mut mach);
        assert_eq!(acc.regs().status(), Status::Error);
        assert_eq!(dur, SimTime::ZERO);
        assert!(matches!(acc.last_error(), Some(EngineError::Unsupported(_))));
    }

    /// Executes the armed command, expecting it to be refused as
    /// [`EngineError::BadDims`] with no work done.
    fn assert_bad_dims(acc: &mut CimAccelerator, mach: &mut Machine) {
        let dur = acc.execute(mach);
        assert_eq!(acc.regs().status(), Status::Error);
        assert_eq!(dur, SimTime::ZERO);
        assert!(
            matches!(acc.last_error(), Some(EngineError::BadDims(_))),
            "{:?}",
            acc.last_error()
        );
        assert_eq!(acc.stats().gemv_count, 0);
        assert_eq!(acc.stats().cell_writes, 0);
    }

    /// Writes a batch descriptor table of `(a, b, c)` address triples
    /// into fresh CMA memory, returning its physical address.
    fn batch_table(mach: &mut Machine, descr: &[u64]) -> u64 {
        let raw: Vec<u8> = descr.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (_va, table) = mach.alloc_cma(raw.len() as u64).expect("cma");
        mach.uncached_write(table, &raw);
        table
    }

    #[test]
    fn huge_batch_count_is_rejected() {
        // 2^62 descriptors overflowed the table size computation.
        let (mut mach, mut acc) = setup();
        let a = alloc_mat(&mut mach, &[1.0, 0.0, 0.0, 1.0]);
        arm_gemm(&mut acc, 2, 2, 2, a, a, a);
        acc.pmio_write(Reg::BatchCount, 1 << 62);
        acc.pmio_write(Reg::AddrBatch, a);
        acc.pmio_write(Reg::Command, Command::GemmBatched as u64);
        assert_bad_dims(&mut acc, &mut mach);
        assert_eq!(acc.dma.stats().bytes_in, 0, "the table was never read");
    }

    #[test]
    fn batched_template_past_memory_is_rejected() {
        // M = LDA = 2^40 overflowed the operand ranges and planned 2^32
        // waves before any element was checked.
        let (mut mach, mut acc) = setup();
        let a = alloc_mat(&mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let table = batch_table(&mut mach, &[a, a, a]);
        arm_gemm(&mut acc, 2, 2, 2, a, a, a);
        acc.pmio_write(Reg::M, 1 << 40);
        acc.pmio_write(Reg::Lda, 1 << 40);
        acc.pmio_write(Reg::BatchCount, 1);
        acc.pmio_write(Reg::AddrBatch, table);
        acc.pmio_write(Reg::Command, Command::GemmBatched as u64);
        assert_bad_dims(&mut acc, &mut mach);
    }

    #[test]
    fn batched_one_row_with_huge_lda_runs() {
        // One row of A reads only its first k elements, however large
        // lda is; the batch's overlap ranges (rows * lda * 4) must not
        // overflow on such a valid command.
        let (mut mach, mut acc) = setup();
        let a = alloc_mat(&mut mach, &[2.0, 3.0]);
        let b = alloc_mat(&mut mach, &[1.0, 1.0]);
        let c = alloc_mat(&mut mach, &[0.0]);
        let table = batch_table(&mut mach, &[a, b, c]);
        arm_gemm(&mut acc, 1, 1, 2, a, b, c);
        acc.pmio_write(Reg::Lda, 1 << 62);
        acc.pmio_write(Reg::BatchCount, 1);
        acc.pmio_write(Reg::AddrBatch, table);
        acc.pmio_write(Reg::Command, Command::GemmBatched as u64);
        acc.execute(&mut mach);
        assert_eq!(acc.regs().status(), Status::Done, "{:?}", acc.last_error());
        assert_eq!(read_mat(&mut mach, c, 1), vec![5.0]);
    }

    #[test]
    fn batch_element_past_memory_stops_the_whole_batch() {
        let (mut mach, mut acc) = setup();
        let a = alloc_mat(&mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let b = alloc_mat(&mut mach, &[1.0, 2.0, 3.0, 4.0]);
        let c = alloc_mat(&mut mach, &[0.0; 4]);
        // Element 1 writes its C across the end of memory.
        let end = mach.mem.size() - 8;
        let table = batch_table(&mut mach, &[a, b, c, a, b, end]);
        arm_gemm(&mut acc, 2, 2, 2, a, b, c);
        acc.pmio_write(Reg::BatchCount, 2);
        acc.pmio_write(Reg::AddrBatch, table);
        acc.pmio_write(Reg::Command, Command::GemmBatched as u64);
        assert_bad_dims(&mut acc, &mut mach);
        assert_eq!(read_mat(&mut mach, c, 4), vec![0.0; 4], "element 0 never ran");
    }

    #[test]
    fn gemm_past_end_of_memory_is_rejected() {
        // M = LDA = 2^20 addresses 4 TiB of A on a 64 MiB machine; the
        // gather used to read past the end of memory.
        let (mut mach, mut acc) = setup();
        let a = alloc_mat(&mut mach, &[1.0, 0.0, 0.0, 1.0]);
        arm_gemm(&mut acc, 2, 2, 2, a, a, a);
        acc.pmio_write(Reg::M, 1 << 20);
        acc.pmio_write(Reg::Lda, 1 << 20);
        assert_bad_dims(&mut acc, &mut mach);
        // The same bound holds for GEMV's vectors and conv's operands.
        arm_gemm(&mut acc, 2, 1, 2, a, mach.mem.size() - 4, a);
        acc.pmio_write(Reg::Command, Command::Gemv as u64);
        assert_bad_dims(&mut acc, &mut mach);
        acc.pmio_write(Reg::AddrA, a);
        acc.pmio_write(Reg::AddrB, a);
        acc.pmio_write(Reg::AddrC, mach.mem.size() - 4);
        acc.pmio_write(Reg::ImgH, 4);
        acc.pmio_write(Reg::ImgW, 4);
        acc.pmio_write(Reg::FiltH, 2);
        acc.pmio_write(Reg::FiltW, 2);
        acc.pmio_write(Reg::Command, Command::Conv2d as u64);
        assert_bad_dims(&mut acc, &mut mach);
    }

    #[test]
    fn generation_bump_invalidates_residency() {
        let (mut mach, mut acc) = setup();
        let a = alloc_mat(&mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let b = alloc_mat(&mut mach, &[1.0, 1.0, 1.0, 1.0]);
        let c = alloc_mat(&mut mach, &[0.0; 4]);
        arm_gemm(&mut acc, 2, 2, 2, a, b, c);
        acc.execute(&mut mach);
        let w1 = acc.stats().cell_writes;
        // Same GEMM again: resident, no new writes.
        arm_gemm(&mut acc, 2, 2, 2, a, b, c);
        acc.execute(&mut mach);
        assert_eq!(acc.stats().cell_writes, w1);
        // Host rewrites shared memory -> must reinstall.
        acc.bump_generation();
        arm_gemm(&mut acc, 2, 2, 2, a, b, c);
        acc.execute(&mut mach);
        assert_eq!(acc.stats().cell_writes, 2 * w1);
    }

    #[test]
    fn functional_run_matches_estimate() {
        let (mut mach, mut acc) = setup();
        let n = 8usize;
        let av: Vec<f32> = (0..n * n).map(|i| i as f32 * 0.1).collect();
        let a = alloc_mat(&mut mach, &av);
        let b = alloc_mat(&mut mach, &av);
        let c = alloc_mat(&mut mach, &vec![0.0; n * n]);
        arm_gemm(&mut acc, n, n, n, a, b, c);
        let dur = acc.execute(&mut mach);
        let est = estimate::estimate_gemm(acc.config(), &mach.cfg.bus, n, n, n, true, false);
        assert_eq!(acc.stats().gemv_count, est.gemvs);
        assert_eq!(acc.stats().cell_writes, est.cell_writes);
        assert_eq!(acc.stats().rows_programmed, est.rows_programmed);
        assert_eq!(acc.stats().macs, est.macs);
        assert!((dur.as_ns() - est.time.as_ns()).abs() < 1e-6, "time {dur} vs {}", est.time);
        let measured = acc.stats().total_energy();
        assert!(
            (measured.as_pj() - est.energy.as_pj()).abs() / est.energy.as_pj() < 1e-9,
            "energy {measured} vs {}",
            est.energy
        );
    }

    #[test]
    fn conv_run_matches_estimate() {
        let (mut mach, mut acc) = setup();
        let (h, w) = (10usize, 10usize);
        let img: Vec<f32> = (0..h * w).map(|i| i as f32 * 0.01).collect();
        let filt = [0.5f32, -0.5, 0.25, 0.75];
        let ipa = alloc_mat(&mut mach, &img);
        let fpa = alloc_mat(&mut mach, &filt);
        let (oh, ow) = (h - 1, w - 1);
        let opa = alloc_mat(&mut mach, &vec![0.0; oh * ow]);
        acc.pmio_write(Reg::AddrA, ipa);
        acc.pmio_write(Reg::AddrB, fpa);
        acc.pmio_write(Reg::AddrC, opa);
        acc.pmio_write(Reg::ImgH, h as u64);
        acc.pmio_write(Reg::ImgW, w as u64);
        acc.pmio_write(Reg::FiltH, 2);
        acc.pmio_write(Reg::FiltW, 2);
        acc.pmio_write(Reg::Command, Command::Conv2d as u64);
        let dur = acc.execute(&mut mach);
        assert_eq!(acc.regs().status(), Status::Done, "{:?}", acc.last_error());
        let est = estimate::estimate_conv2d(acc.config(), &mach.cfg.bus, h, w, 2, 2);
        assert_eq!(acc.stats().gemv_count, est.gemvs);
        assert_eq!(acc.stats().cell_writes, est.cell_writes);
        assert_eq!(acc.stats().macs, est.macs);
        assert!((dur.as_ns() - est.time.as_ns()).abs() < 1e-6, "time {dur} vs {}", est.time);
    }

    /// Runs one GEMM under `cfg` on a fresh machine, returning `C`.
    fn run_gemm_with(cfg: AccelConfig, n: usize, av: &[f32], bv: &[f32]) -> (Vec<f32>, AccelStats) {
        let mut mach = Machine::new(MachineConfig::test_small());
        let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
        let a = alloc_mat(&mut mach, av);
        let b = alloc_mat(&mut mach, bv);
        let c = alloc_mat(&mut mach, &vec![0.0; n * n]);
        arm_gemm(&mut acc, n, n, n, a, b, c);
        acc.execute(&mut mach);
        assert_eq!(acc.regs().status(), Status::Done, "{:?}", acc.last_error());
        (read_mat(&mut mach, c, n * n), *acc.stats())
    }

    #[test]
    fn sharded_gemm_bit_identical_to_single_tile() {
        // 20x20 GEMM on 8x8 tiles: a 3x3 block grid over several shapes.
        let n = 20usize;
        let av: Vec<f32> = (0..n * n).map(|i| ((i * 7) % 23) as f32 * 0.37 - 4.0).collect();
        let bv: Vec<f32> = (0..n * n).map(|i| ((i * 13) % 19) as f32 * 0.21 - 2.0).collect();
        let (reference, ref_stats) = run_gemm_with(AccelConfig::test_small(), n, &av, &bv);
        for grid in [(2, 1), (1, 2), (2, 2), (3, 3), (4, 2)] {
            let cfg = AccelConfig::test_small().with_grid(grid.0, grid.1);
            let (got, stats) = run_gemm_with(cfg, n, &av, &bv);
            assert_eq!(got, reference, "grid {grid:?} diverged");
            // Work is invariant; only the schedule changes.
            assert_eq!(stats.cell_writes, ref_stats.cell_writes);
            assert_eq!(stats.macs, ref_stats.macs);
            assert!(stats.busy <= ref_stats.busy, "sharding must not slow down");
        }
    }

    #[test]
    fn sharded_run_matches_estimate() {
        let mut mach = Machine::new(MachineConfig::test_small());
        let cfg = AccelConfig::test_small().with_grid(2, 2);
        let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
        let n = 20usize;
        let av: Vec<f32> = (0..n * n).map(|i| (i % 9) as f32 * 0.5 - 2.0).collect();
        let a = alloc_mat(&mut mach, &av);
        let b = alloc_mat(&mut mach, &av);
        let c = alloc_mat(&mut mach, &vec![0.0; n * n]);
        arm_gemm(&mut acc, n, n, n, a, b, c);
        let dur = acc.execute(&mut mach);
        let est = estimate::estimate_gemm(acc.config(), &mach.cfg.bus, n, n, n, true, false);
        assert_eq!(acc.stats().gemv_count, est.gemvs);
        assert_eq!(acc.stats().cell_writes, est.cell_writes);
        assert_eq!(acc.stats().rows_programmed, est.rows_programmed);
        assert_eq!(acc.stats().macs, est.macs);
        assert_eq!(acc.stats().max_tiles_active, est.parallel_tiles);
        assert_eq!(acc.stats().max_tiles_active, 4);
        assert!((dur.as_ns() - est.time.as_ns()).abs() < 1e-6, "time {dur} vs {}", est.time);
        let measured = acc.stats().total_energy();
        assert!(
            (measured.as_pj() - est.energy.as_pj()).abs() / est.energy.as_pj() < 1e-9,
            "energy {measured} vs {}",
            est.energy
        );
    }

    #[test]
    fn sharding_spreads_wear_across_tiles() {
        // A 16x16 operand is a 2x2 block grid on 8x8 tiles. One tile eats
        // all four installs; a 2x2 grid takes one install each.
        let n = 16usize;
        let av: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32).collect();
        let run = |cfg: AccelConfig| {
            let mut mach = Machine::new(MachineConfig::test_small());
            let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
            let a = alloc_mat(&mut mach, &av);
            let b = alloc_mat(&mut mach, &av);
            let c = alloc_mat(&mut mach, &vec![0.0; n * n]);
            arm_gemm(&mut acc, n, n, n, a, b, c);
            acc.execute(&mut mach);
            assert_eq!(acc.regs().status(), Status::Done);
            acc.tile_wear()
        };
        let single = run(AccelConfig::test_small());
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].max_cell_writes, 4, "one tile reprogrammed per block");
        let sharded = run(AccelConfig::test_small().with_grid(2, 2));
        assert_eq!(sharded.len(), 4);
        let total: u64 = sharded.iter().map(|w| w.cell_writes).sum();
        assert_eq!(total, single[0].cell_writes, "same write volume overall");
        for w in &sharded {
            assert_eq!(w.cell_writes, 64, "tile {:?} takes exactly its block", w.tile);
            assert_eq!(w.max_cell_writes, 1, "no cell reprogrammed");
        }
    }

    #[test]
    fn sharded_timeline_shows_parallel_occupancy() {
        let mut mach = Machine::new(MachineConfig::test_small());
        let cfg = AccelConfig::test_small().with_grid(2, 2);
        let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
        let n = 16usize;
        let av: Vec<f32> = (0..n * n).map(|i| (i % 3) as f32).collect();
        let a = alloc_mat(&mut mach, &av);
        let b = alloc_mat(&mut mach, &av);
        let c = alloc_mat(&mut mach, &vec![0.0; n * n]);
        arm_gemm(&mut acc, n, n, n, a, b, c);
        acc.execute(&mut mach);
        let occ = acc.timeline().tile_occupancy();
        assert_eq!(occ.len(), 4, "all four tiles appear in the timeline");
        assert!(occ.iter().all(|(_, busy)| busy.as_ns() > 0.0));
    }

    #[test]
    fn timeline_records_trigger_and_done() {
        let (mut mach, mut acc) = setup();
        let a = alloc_mat(&mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let b = alloc_mat(&mut mach, &[1.0, 2.0, 3.0, 4.0]);
        let c = alloc_mat(&mut mach, &[0.0; 4]);
        arm_gemm(&mut acc, 2, 2, 2, a, b, c);
        acc.execute(&mut mach);
        let kinds: Vec<_> = acc.timeline().events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Trigger));
        assert!(kinds.contains(&EventKind::WriteCrossbar));
        assert!(kinds.contains(&EventKind::Compute));
        assert!(kinds.contains(&EventKind::ResultReady));
    }
}
