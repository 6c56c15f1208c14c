//! User-space CIM runtime API.
//!
//! "The user-space CIM API is responsible for encoding CIM runtime library
//! calls into context register parameters. Furthermore, with the help of
//! the CIM driver, it implements the support for allocating and releasing
//! the physically-contiguous pages in shared memory via the contiguous
//! memory allocator (CMA) APIs" (Section II-E).
//!
//! The call surface mirrors Listing 1 of the paper — `polly_cimInit`,
//! `polly_cimMalloc`, `polly_cimBlasSGemm`, `polly_cimBlasGemmBatched`,
//! `polly_cimDevToHost` — with Rust naming (`cim_init`, `cim_malloc`,
//! `cim_blas_sgemm`, ...). It is what either an application programmer or
//! the Loop Tactics optimizer calls, "similar to what cuBLAS or MKL offers
//! for Nvidia GPU and Intel CPU, respectively" (Section III).

use cim_accel::regs::{Command, Reg};
use cim_accel::{operand_bytes, partition_grid, AccelConfig, CimAccelerator, GridRegion};
use cim_machine::cpu::InstClass;
use cim_machine::units::SimTime;
use cim_machine::Machine;
use std::cell::{Ref, RefCell};
use std::rc::Rc;

use crate::driver::{CimDriver, DispatchMode, DriverConfig};
use crate::error::CimError;
use crate::reactor::CmdRecord;
use crate::residency::ResidencyTable;
use crate::serve::{GridScheduler, TenantId};
use crate::stats::RuntimeStats;

/// A live device allocation in the shared CMA region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevPtr {
    /// Host virtual address of the buffer.
    pub va: u64,
    /// Physical address handed to the accelerator.
    pub pa: u64,
    /// Length in bytes.
    pub len: u64,
}

impl DevPtr {
    /// The buffer's exclusive virtual and physical end addresses, or
    /// `None` when either passes `u64::MAX`.
    fn ends(&self) -> Option<(u64, u64)> {
        Some((self.va.checked_add(self.len)?, self.pa.checked_add(self.len)?))
    }
}

/// Transpose selector for BLAS-style entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transpose {
    /// Use the operand as stored.
    #[default]
    No,
    /// Use the transposed operand.
    Yes,
}

impl Transpose {
    fn as_reg(self) -> u64 {
        match self {
            Transpose::No => 0,
            Transpose::Yes => 1,
        }
    }

    /// Stored `(rows, cols)` of an operand whose `op()` is `rows x cols`.
    fn stored(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            Transpose::No => (rows, cols),
            Transpose::Yes => (cols, rows),
        }
    }
}

/// A stored operand extent the runtime checks against its buffer:
/// `(rows, cols, ld)` of a row-major matrix, `ld` in elements.
type Extent = (usize, usize, usize);

/// The buffers of one operand role of an offload — `A`, `B` or `C` of a
/// GEMM, the image, filter or output of a convolution: one buffer, or
/// one per element of a batch.
struct Operands<'a> {
    /// Role name, for error messages.
    name: &'static str,
    /// The buffers, in flush order.
    ptrs: &'a [DevPtr],
    /// Whether error messages name each buffer by its batch index
    /// (`A[3]`).
    indexed: bool,
    /// The stored extent every buffer must hold; `None` leaves the
    /// buffers unchecked, for operands only the engine can reject.
    extent: Option<Extent>,
    /// Whether the command writes these buffers.
    written: bool,
}

impl<'a> Operands<'a> {
    /// A role held by one buffer.
    fn one(name: &'static str, ptr: &'a DevPtr, extent: Option<Extent>, written: bool) -> Self {
        Operands { name, ptrs: std::slice::from_ref(ptr), indexed: false, extent, written }
    }

    /// A role held by one buffer per batch element.
    fn list(name: &'static str, ptrs: &'a [DevPtr], extent: Option<Extent>, written: bool) -> Self {
        Operands { name, ptrs, indexed: true, extent, written }
    }

    /// The physical byte ranges of the buffers.
    fn ranges(&self) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.ptrs.iter().map(|p| (p.pa, p.len))
    }

    /// Requires buffer `i` to hold the role's stored extent: a row-major
    /// `rows x cols` matrix with leading dimension `ld` (in elements).
    /// The accelerator reads and writes that many bytes from the
    /// buffer's start, so a shorter buffer would let it touch memory the
    /// call does not own.
    fn check_extent(&self, i: usize) -> Result<(), CimError> {
        let Some((rows, cols, ld)) = self.extent else { return Ok(()) };
        let len = self.ptrs[i].len;
        if operand_bytes(rows, cols, ld).is_some_and(|bytes| bytes <= len) {
            return Ok(());
        }
        let name = self.name;
        let index = if self.indexed { format!("[{i}]") } else { String::new() };
        Err(CimError::InvalidArg(format!(
            "operand {name}{index} ({rows}x{cols}, ld {ld}) does not fit its {len}-byte buffer"
        )))
    }
}

/// One offloaded operation, as a BLAS entry point describes it to
/// [`CimContext::offload`].
struct Offload<'a> {
    /// The operand roles, in flush order. Each holds the same number of
    /// buffers: one, or one per batch element.
    operands: [Operands<'a>; 3],
    /// `(m, k)` of the stationary `op(A)`, the first operand, when the
    /// runtime places it on a tile region; `None` runs the command on
    /// the full grid.
    stationary: Option<(usize, usize)>,
    /// Whether the command reads its operands' addresses from a
    /// descriptor table: one 8-byte address per operand of each element,
    /// in role order, which the host writes into a scratch CMA buffer.
    table: bool,
    /// The command's registers in arming order; [`Reg::AddrBatch`] (with
    /// a table), [`Reg::Region`] and [`Reg::Command`] follow them.
    regs: &'a [(Reg, u64)],
    /// The command the registers arm.
    command: Command,
    /// The entry point's call counter.
    calls: fn(&mut RuntimeStats) -> &mut u64,
}

/// The hardware a context (or N tenant contexts) submits against: one
/// accelerator, one kernel driver — the reactor's submission slots and
/// in-flight table — and, when the device is fronted by
/// [`crate::serve::CimServer`], the serving scheduler that
/// space/time-multiplexes the tile grid.
///
/// A plain [`CimContext::new`] wraps a private device (the historical
/// single-program shape); the serving layer instead builds one device
/// and hands every tenant a context over the same [`SharedDevice`], so
/// all tenants share the reactor's submission slots and per-region
/// doorbells.
#[derive(Debug)]
pub struct CimDevice {
    /// The modeled accelerator.
    pub accel: CimAccelerator,
    /// The kernel driver session (shared submission slots + in-flight
    /// table).
    pub driver: CimDriver,
    /// Serving scheduler — `None` for private single-program devices.
    pub scheduler: Option<GridScheduler>,
}

/// Shared handle to a [`CimDevice`]. The runtime is a single-threaded
/// discrete-event model, so `Rc<RefCell<_>>` is the right flavor of
/// sharing: every borrow is scoped to one driver/accelerator operation.
pub type SharedDevice = Rc<RefCell<CimDevice>>;

/// The per-client runtime context (device handle + driver session).
/// Allocation, residency and statistics state is per-context; the
/// accelerator, driver and (under serving) scheduler live in the
/// [`SharedDevice`] behind it. Its in-flight commands are the reactor
/// records it owns ([`crate::reactor::CmdRecord::owner`] equal to its
/// tenant), which its observation points claim.
#[derive(Debug)]
pub struct CimContext {
    device: SharedDevice,
    /// The serving-scheduler identity of this context, when it was
    /// handed out by [`crate::serve::CimServer::connect`] — and the
    /// owner stamped on every command it submits.
    tenant: Option<TenantId>,
    device_id: Option<u32>,
    allocations: Vec<DevPtr>,
    residency: ResidencyTable,
    /// The finest disjoint partition of the tile grid, computed once —
    /// the round-robin pool [`CimContext::next_subregion`] draws from.
    subregions: Vec<GridRegion>,
    region_cursor: usize,
    stats: RuntimeStats,
}

impl CimContext {
    /// Creates a context around a fresh private accelerator built from
    /// `accel_cfg`, on the bus of the machine the context will run
    /// against.
    pub fn new(accel_cfg: AccelConfig, driver_cfg: DriverConfig, mach: &Machine) -> Self {
        let device = Rc::new(RefCell::new(CimDevice {
            accel: CimAccelerator::new(accel_cfg, mach.cfg.bus),
            driver: CimDriver::new(driver_cfg),
            scheduler: None,
        }));
        CimContext::attach(device, None)
    }

    /// Builds a context over an existing shared device. Tenant contexts
    /// ([`crate::serve::CimServer::connect`]) pass their scheduler
    /// identity; `None` is a plain co-resident client.
    pub(crate) fn attach(device: SharedDevice, tenant: Option<TenantId>) -> Self {
        let grid = device.borrow().accel.config().grid;
        CimContext {
            device,
            tenant,
            device_id: None,
            allocations: Vec::new(),
            residency: ResidencyTable::with_capacity(grid.0 * grid.1),
            subregions: partition_grid(grid, grid.0 * grid.1),
            region_cursor: 0,
            stats: RuntimeStats::default(),
        }
    }

    /// The shared device behind this context.
    pub fn device(&self) -> SharedDevice {
        Rc::clone(&self.device)
    }

    /// The serving-scheduler identity of this context, if any.
    pub fn tenant(&self) -> Option<TenantId> {
        self.tenant
    }

    /// The accelerator (for stats and timeline inspection). The guard
    /// must not be held across another runtime call on the same device.
    pub fn accel(&self) -> Ref<'_, CimAccelerator> {
        Ref::map(self.device.borrow(), |d| &d.accel)
    }

    /// The kernel driver model. The guard must not be held across
    /// another runtime call on the same device.
    pub fn driver(&self) -> Ref<'_, CimDriver> {
        Ref::map(self.device.borrow(), |d| &d.driver)
    }

    /// Runtime call statistics.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    fn ensure_init(&self) -> Result<(), CimError> {
        if self.device_id.is_none() {
            return Err(CimError::NotInitialized);
        }
        Ok(())
    }

    /// Commands this context submitted asynchronously and has not yet
    /// synchronized: the reactor's unclaimed records it owns.
    pub fn pending_commands(&self) -> usize {
        let owner = self.tenant;
        self.driver().reactor().unsynced().filter(|rec| rec.owner == owner).count()
    }

    /// Synchronizes every pending asynchronous command: the host pays
    /// whatever wait remains after its overlapped work ([`CimDriver::sync`])
    /// and the commands' scratch buffers are released. A no-op under
    /// [`DispatchMode::Sync`] or with nothing in flight. Returns the
    /// summed accelerator busy time of the synchronized commands.
    ///
    /// Only explicit synchronization (this call, e.g. at end of run)
    /// drains the whole queue; every buffer-observing entry point —
    /// data movement, coherence syncs *and* `cim_free` — uses the
    /// buffer-scoped [`CimContext::cim_sync_range`] instead, so
    /// streaming pipelines only wait for the commands whose operands
    /// they actually observe.
    ///
    /// # Errors
    ///
    /// Propagates a scratch free error; the commands after it stay in
    /// the reactor and the unfreed table stays among the context's
    /// allocations, which [`CimContext::disconnect`] releases.
    pub fn cim_sync(&mut self, mach: &mut Machine) -> Result<SimTime, CimError> {
        self.sync_where(mach, |_| true).map(|(total, _)| total)
    }

    /// Synchronizes only the pending commands whose operands overlap the
    /// physical range `[pa, pa + len)` — the buffer-granular doorbell
    /// behind every observation point (`cim_dev_to_host`, the coherence
    /// syncs, host-to-device copies, `cim_free`): a result can never be read, nor an
    /// operand overwritten, before the modeled hardware is done with it,
    /// while in-flight commands on *disjoint* buffers keep running. The
    /// commands an observation leaves in flight are counted in
    /// [`RuntimeStats::selective_sync_skips`]. Returns the summed busy
    /// time of the commands synchronized.
    ///
    /// # Errors
    ///
    /// As for [`CimContext::cim_sync`].
    pub fn cim_sync_range(
        &mut self,
        mach: &mut Machine,
        pa: u64,
        len: u64,
    ) -> Result<SimTime, CimError> {
        let (total, left) = self.sync_where(mach, |rec| rec.touches(pa, len))?;
        self.stats.selective_sync_skips += left as u64;
        Ok(total)
    }

    /// Claims this context's unclaimed records that `must_sync` selects,
    /// oldest first — the order they were submitted in, which the clock
    /// depends on (syncing a later command first can make an earlier
    /// sync free) — and frees each one's scratch. Returns the summed
    /// busy time and the number of the context's records left unclaimed.
    fn sync_where(
        &mut self,
        mach: &mut Machine,
        must_sync: impl Fn(&CmdRecord) -> bool,
    ) -> Result<(SimTime, usize), CimError> {
        let owner = self.tenant;
        let mut due = Vec::new();
        let mut left = 0;
        for rec in self.driver().reactor().unsynced().filter(|rec| rec.owner == owner) {
            if must_sync(rec) {
                due.push(rec.cmd_id);
            } else {
                left += 1;
            }
        }
        due.sort_unstable();
        let mut total = SimTime::ZERO;
        for cmd_id in due {
            let rec = {
                let mut guard = self.device.borrow_mut();
                let dev = &mut *guard;
                dev.driver.sync(mach, &mut dev.accel, cmd_id)?
            };
            total += rec.busy;
            if let Some(table) = rec.scratch {
                self.release(mach, table)?;
            }
        }
        Ok((total, left))
    }

    /// The device just (functionally) wrote these ranges: any resident
    /// crossbar operand or pin sourced from them is stale. Without this,
    /// a kernel whose output later serves as another kernel's stationary
    /// operand could hit residency on a pre-overwrite install — the
    /// coherence syncs alone cannot catch it once the compiler's
    /// dataflow pass elides the (host-cache-wise redundant) h2d.
    fn invalidate_written(&mut self, writes: &[(u64, u64)]) {
        for &(pa, len) in writes {
            self.invalidate_residency(pa, len);
        }
    }

    /// `polly_cimPin(ptr)`: declares that the buffer's contents are
    /// stable across the upcoming kernels — the compiler's residency
    /// placement emits this when a stationary operand is reused by
    /// consecutive kernels with no intervening host write. The first
    /// kernel using the operand places it on a tile region and installs
    /// it; later kernels are routed to the same region and skip both the
    /// pre-invocation flush of the operand and (via tile residency) the
    /// install itself. Any host write reaching the range through the
    /// runtime (`cim_host_to_dev`, `cim_sync_to_dev`, `cim_free`) — or a
    /// device kernel writing into it — invalidates the pin.
    ///
    /// # Errors
    ///
    /// [`CimError::InvalidPointer`] for unregistered buffers.
    pub fn cim_pin(&mut self, mach: &mut Machine, ptr: DevPtr) -> Result<(), CimError> {
        self.ensure_init()?;
        self.check_live(&ptr)?;
        self.device.borrow_mut().driver.ioctl(mach);
        self.residency.pin(ptr.pa, ptr.len);
        self.stats.pin_calls += 1;
        Ok(())
    }

    /// The pinned-operand residency table (inspection).
    pub fn residency(&self) -> &ResidencyTable {
        &self.residency
    }

    /// Next sub-region in the round-robin over the finest disjoint
    /// partition of the tile grid — deterministic, so identical runs
    /// replay identical placements.
    fn next_subregion(&mut self) -> GridRegion {
        let r = self.subregions[self.region_cursor % self.subregions.len()];
        self.region_cursor += 1;
        r
    }

    /// Chooses the tile region for a kernel whose stationary operand
    /// `op(A)` lives at `a` with logical extent `m x k`, and reports
    /// whether the operand is pinned and already installed (in which
    /// case its pre-invocation flush is skipped).
    ///
    /// Placement policy: a pinned operand keeps the region its first
    /// kernel chose, so reuse hits tile residency; a tenant context
    /// places fresh single-block work on its scheduler lease (the
    /// wear-aware region the serving layer granted it); otherwise
    /// single-block operands dispatched asynchronously get round-robin
    /// sub-regions (they use one tile regardless, and disjoint regions
    /// let separate calls overlap), and everything else takes the full
    /// grid (maximal wave parallelism within the command — under
    /// serving this serializes against every lease, the documented cost
    /// of multi-tile kernels on a shared grid).
    fn place_stationary(&mut self, a: &DevPtr, m: usize, k: usize) -> (GridRegion, bool) {
        let (grid, single_block, dispatch_async, leased) = {
            let mut guard = self.device.borrow_mut();
            let dev = &mut *guard;
            let cfg = dev.accel.config();
            let grid = cfg.grid;
            let single_block = k <= cfg.rows && m <= cfg.cols;
            let dispatch_async = dev.driver.config().dispatch == DispatchMode::Async;
            let leased = match (self.tenant, dev.scheduler.as_mut()) {
                (Some(tid), Some(sched)) if single_block => sched.lease_region(tid, &dev.accel),
                _ => None,
            };
            (grid, single_block, dispatch_async, leased)
        };
        if let Some(idx) = self.residency.find(a.pa, a.len) {
            let region = match self.residency.entry(idx).region {
                Some(r) => r,
                None => match leased {
                    Some(r) => r,
                    None if single_block => self.next_subregion(),
                    None => GridRegion::full(grid),
                },
            };
            // A fresh placement must fit the grid's tile budget: evict
            // the least-recently-used installed pins until it does — a
            // capacity spill, charged to the statistics. (Reuse of an
            // already-installed entry holds its own tiles and needs no
            // room.)
            if !self.residency.entry(idx).installed {
                self.stats.pin_evictions +=
                    self.residency.evict_for(region.tiles(), Some(idx)) as u64;
            }
            let hit = self.residency.place(idx, region);
            if hit {
                self.stats.pin_hits += 1;
            }
            return (region, hit);
        }
        if let Some(region) = leased {
            return (region, false);
        }
        let overlap_eligible = dispatch_async && single_block && grid.0 * grid.1 > 1;
        if overlap_eligible {
            (self.next_subregion(), false)
        } else {
            (GridRegion::full(grid), false)
        }
    }

    /// Serving-policy admission control, run before a tenant kernel
    /// reaches the hardware. The host-side delay is the fairness lever:
    /// a command already in the reactor cannot be reordered, so the
    /// scheduler shapes traffic where commands are *born* — a tenant
    /// whose accumulated tile-time backlog exceeds its weighted quota
    /// (or whose wear budget is spent) idles before submitting, leaving
    /// the grid to its neighbors. No-op for non-tenant contexts.
    fn tenant_admission(&mut self, mach: &mut Machine) {
        let Some(tid) = self.tenant else { return };
        let Some((delay, backlog, wear)) = ({
            let mut guard = self.device.borrow_mut();
            guard.scheduler.as_mut().map(|sched| sched.admission(tid, mach.now()))
        }) else {
            return;
        };
        if delay > SimTime::ZERO {
            mach.core.idle_wait(delay);
        }
        if backlog {
            self.stats.sched_throttles += 1;
        }
        if wear {
            self.stats.wear_throttles += 1;
        }
    }

    /// Detaches this context from the shared device: its pending
    /// commands are synchronized (the reactor records it owns are
    /// claimed — a departing tenant leaves no delivered completion
    /// unclaimed, and its neighbours' records stay in flight),
    /// every live allocation is released (which invalidates its
    /// pins), and the serving lease is reclaimed for the remaining
    /// tenants. The context is left uninitialized; it can be dropped or
    /// re-`cim_init`ed as a fresh client.
    ///
    /// # Errors
    ///
    /// Propagates free errors; state already torn down stays torn down
    /// (the call is safe to retry).
    pub fn disconnect(&mut self, mach: &mut Machine) -> Result<(), CimError> {
        self.cim_sync(mach)?;
        while let Some(ptr) = self.allocations.last().copied() {
            self.release(mach, ptr)?;
        }
        if let Some(tid) = self.tenant {
            if let Some(sched) = self.device.borrow_mut().scheduler.as_mut() {
                sched.disconnect(tid);
            }
        }
        self.device_id = None;
        Ok(())
    }

    /// `polly_cimInit(device)`: opens the device and resets the engine.
    ///
    /// # Errors
    ///
    /// Currently infallible for device 0; kept fallible for API stability.
    pub fn cim_init(&mut self, mach: &mut Machine, device: u32) -> Result<(), CimError> {
        self.device.borrow_mut().driver.ioctl(mach);
        self.device_id = Some(device);
        self.stats.init_calls += 1;
        Ok(())
    }

    /// `polly_cimMalloc(size)`: allocates physically contiguous shared
    /// memory via CMA.
    ///
    /// # Errors
    ///
    /// [`CimError::NotInitialized`] before `cim_init`;
    /// [`CimError::OutOfDeviceMemory`] when the carve-out is full.
    pub fn cim_malloc(&mut self, mach: &mut Machine, bytes: u64) -> Result<DevPtr, CimError> {
        self.ensure_init()?;
        if bytes == 0 {
            return Err(CimError::InvalidArg("zero-byte allocation".into()));
        }
        self.device.borrow_mut().driver.ioctl(mach);
        self.device.borrow_mut().driver.charge_malloc(mach);
        let (va, pa) = mach.alloc_cma(bytes)?;
        let ptr = DevPtr { va, pa, len: bytes };
        self.allocations.push(ptr);
        self.stats.malloc_calls += 1;
        self.stats.bytes_allocated += bytes;
        Ok(ptr)
    }

    /// `polly_cimFree(ptr)`: releases a device allocation.
    ///
    /// # Errors
    ///
    /// [`CimError::InvalidPointer`] if `ptr` is not a live allocation. A
    /// rejected free charges nothing.
    pub fn cim_free(&mut self, mach: &mut Machine, ptr: DevPtr) -> Result<(), CimError> {
        self.ensure_init()?;
        if !self.allocations.contains(&ptr) {
            return Err(CimError::InvalidPointer(ptr.va));
        }
        // The buffer may back an in-flight command: complete those first.
        self.cim_sync_range(mach, ptr.pa, ptr.len)?;
        self.release(mach, ptr)
    }

    /// Releases a live allocation without synchronizing — the internal
    /// path for runtime-owned scratch, whose commands are known complete
    /// by the time it is called.
    fn release(&mut self, mach: &mut Machine, ptr: DevPtr) -> Result<(), CimError> {
        let Some(at) = self.allocations.iter().position(|p| p == &ptr) else {
            return Err(CimError::InvalidPointer(ptr.va));
        };
        self.device.borrow_mut().driver.ioctl(mach);
        mach.free_cma(ptr.va, ptr.pa)?;
        self.allocations.swap_remove(at);
        // A freed range may be recycled by the next allocation: any pin
        // over it is dead.
        self.stats.pin_invalidations += self.residency.invalidate_overlap(ptr.pa, ptr.len) as u64;
        Ok(())
    }

    fn check_live(&self, ptr: &DevPtr) -> Result<(), CimError> {
        // Sub-ranges of a live allocation are valid pointers (tiled code
        // passes views into larger buffers). `DevPtr`'s fields are
        // public, so a pointer whose end passes `u64::MAX` is rejected,
        // never wrapped.
        let Some((va_end, pa_end)) = ptr.ends() else {
            return Err(CimError::InvalidPointer(ptr.va));
        };
        let inside = self.allocations.iter().any(|p| {
            ptr.va >= p.va && va_end <= p.va + p.len && ptr.pa >= p.pa && pa_end <= p.pa + p.len
        });
        if inside {
            Ok(())
        } else {
            Err(CimError::InvalidPointer(ptr.va))
        }
    }

    /// Registers an externally CMA-allocated buffer with the runtime,
    /// charging the `cim_malloc` driver path. This models the zero-copy
    /// flow of the compiler-generated code: application arrays already
    /// live in the physically contiguous shared region (one of the two
    /// CMA benefits of Section II-E), so `polly_cimMalloc` binds rather
    /// than copies.
    ///
    /// # Errors
    ///
    /// [`CimError::NotInitialized`] before `cim_init`;
    /// [`CimError::InvalidPointer`] for a buffer whose end passes
    /// `u64::MAX`.
    pub fn cim_adopt(&mut self, mach: &mut Machine, ptr: DevPtr) -> Result<(), CimError> {
        self.ensure_init()?;
        if ptr.ends().is_none() {
            return Err(CimError::InvalidPointer(ptr.va));
        }
        self.device.borrow_mut().driver.ioctl(mach);
        self.device.borrow_mut().driver.charge_malloc(mach);
        self.allocations.push(ptr);
        self.stats.malloc_calls += 1;
        self.stats.bytes_allocated += ptr.len;
        Ok(())
    }

    /// Zero-copy host-to-device synchronization of a shared buffer: the
    /// driver flushes the host's dirty lines so the accelerator's
    /// uncacheable reads see fresh data, and operand residency is
    /// invalidated (the crossbar contents may be stale).
    ///
    /// # Errors
    ///
    /// [`CimError::InvalidPointer`] for unregistered buffers.
    pub fn cim_sync_to_dev(&mut self, mach: &mut Machine, ptr: DevPtr) -> Result<(), CimError> {
        self.ensure_init()?;
        self.check_live(&ptr)?;
        self.cim_sync_range(mach, ptr.pa, ptr.len)?;
        self.device.borrow_mut().driver.flush_shared(mach, &[(ptr.pa, ptr.len)]);
        self.invalidate_residency(ptr.pa, ptr.len);
        self.stats.h2d_calls += 1;
        Ok(())
    }

    /// Drops crossbar residency and pins over `[pa, pa+len)` — the host
    /// (or a device kernel) (re)wrote the range, so installed operands
    /// and pinned entries backed by it are stale. Range-precise on both
    /// sides: refreshing one buffer never evicts an unrelated resident
    /// operand.
    fn invalidate_residency(&mut self, pa: u64, len: u64) {
        self.device.borrow_mut().accel.invalidate_range(pa, len);
        self.stats.pin_invalidations += self.residency.invalidate_overlap(pa, len) as u64;
    }

    /// Zero-copy device-to-host synchronization: invalidates the host's
    /// (stale) cached lines over the buffer so subsequent loads observe
    /// the accelerator's uncacheable writes.
    ///
    /// # Errors
    ///
    /// [`CimError::InvalidPointer`] for unregistered buffers.
    pub fn cim_sync_to_host(&mut self, mach: &mut Machine, ptr: DevPtr) -> Result<(), CimError> {
        self.ensure_init()?;
        self.check_live(&ptr)?;
        self.cim_sync_range(mach, ptr.pa, ptr.len)?;
        self.device.borrow_mut().driver.flush_shared(mach, &[(ptr.pa, ptr.len)]);
        self.stats.d2h_calls += 1;
        Ok(())
    }

    /// Copies `len` bytes from host memory into a device buffer (cached
    /// host loads + stores; the dirtied lines are what the driver flushes
    /// before the next invocation). Invalidates operand residency.
    ///
    /// # Errors
    ///
    /// [`CimError::InvalidPointer`] for an unregistered buffer or a host
    /// range with an unmapped page; [`CimError::InvalidArg`] if the copy
    /// exceeds the allocation. A rejected copy charges nothing.
    pub fn cim_host_to_dev(
        &mut self,
        mach: &mut Machine,
        dst: DevPtr,
        src_va: u64,
        len: u64,
    ) -> Result<(), CimError> {
        self.ensure_init()?;
        self.check_live(&dst)?;
        check_copy(mach, src_va, len, "into", &dst)?;
        self.cim_sync_range(mach, dst.pa, dst.len)?;
        copy_words(mach, src_va, dst.va, len);
        self.invalidate_residency(dst.pa, dst.len);
        self.stats.h2d_bytes += len;
        self.stats.h2d_calls += 1;
        Ok(())
    }

    /// `polly_cimDevToHost`: copies a result buffer back to host memory.
    /// The device wrote through uncacheable accesses, so the host first
    /// invalidates its (stale) lines for the range.
    ///
    /// # Errors
    ///
    /// As for [`CimContext::cim_host_to_dev`].
    pub fn cim_dev_to_host(
        &mut self,
        mach: &mut Machine,
        dst_va: u64,
        src: DevPtr,
        len: u64,
    ) -> Result<(), CimError> {
        self.ensure_init()?;
        self.check_live(&src)?;
        check_copy(mach, dst_va, len, "from", &src)?;
        self.cim_sync_range(mach, src.pa, src.len)?;
        self.device.borrow_mut().driver.flush_shared(mach, &[(src.pa, len)]);
        copy_words(mach, src.va, dst_va, len);
        self.stats.d2h_bytes += len;
        self.stats.d2h_calls += 1;
        Ok(())
    }

    /// `polly_cimBlasSGemm`: `C = alpha*op(A)*op(B) + beta*C` on the
    /// accelerator. Returns the accelerator busy time.
    ///
    /// # Errors
    ///
    /// Argument validation errors, or [`CimError::Device`] from the engine
    /// (e.g. `op(B)` transposed, which the hardware does not support).
    #[allow(clippy::too_many_arguments)]
    pub fn cim_blas_sgemm(
        &mut self,
        mach: &mut Machine,
        trans_a: Transpose,
        trans_b: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: DevPtr,
        lda: usize,
        b: DevPtr,
        ldb: usize,
        beta: f32,
        c: DevPtr,
        ldc: usize,
    ) -> Result<SimTime, CimError> {
        let (a_rows, a_cols) = trans_a.stored(m, k);
        // A transposed B is the engine's to reject.
        let b_extent = (trans_b == Transpose::No).then_some((k, n, ldb));
        let regs = [
            (Reg::M, m as u64),
            (Reg::N, n as u64),
            (Reg::K, k as u64),
            (Reg::Lda, lda as u64),
            (Reg::Ldb, ldb as u64),
            (Reg::Ldc, ldc as u64),
            (Reg::AddrA, a.pa),
            (Reg::AddrB, b.pa),
            (Reg::AddrC, c.pa),
            (Reg::Alpha, alpha.to_bits() as u64),
            (Reg::Beta, beta.to_bits() as u64),
            (Reg::TransA, trans_a.as_reg()),
            (Reg::TransB, trans_b.as_reg()),
        ];
        self.offload(
            mach,
            Offload {
                operands: [
                    Operands::one("A", &a, Some((a_rows, a_cols, lda)), false),
                    Operands::one("B", &b, b_extent, false),
                    Operands::one("C", &c, Some((m, n, ldc)), true),
                ],
                stationary: Some((m, k)),
                table: false,
                regs: &regs,
                command: Command::Gemm,
                calls: |s| &mut s.gemm_calls,
            },
        )
    }

    /// `polly_cimBlasSGemv`: `y = alpha*op(A)*x + beta*y`.
    ///
    /// # Errors
    ///
    /// As for [`CimContext::cim_blas_sgemm`].
    #[allow(clippy::too_many_arguments)]
    pub fn cim_blas_sgemv(
        &mut self,
        mach: &mut Machine,
        trans_a: Transpose,
        m: usize,
        k: usize,
        alpha: f32,
        a: DevPtr,
        lda: usize,
        x: DevPtr,
        beta: f32,
        y: DevPtr,
    ) -> Result<SimTime, CimError> {
        let (a_rows, a_cols) = trans_a.stored(m, k);
        let regs = [
            (Reg::M, m as u64),
            (Reg::K, k as u64),
            (Reg::Lda, lda as u64),
            (Reg::AddrA, a.pa),
            (Reg::AddrB, x.pa),
            (Reg::AddrC, y.pa),
            (Reg::Alpha, alpha.to_bits() as u64),
            (Reg::Beta, beta.to_bits() as u64),
            (Reg::TransA, trans_a.as_reg()),
            (Reg::TransB, 0),
        ];
        self.offload(
            mach,
            Offload {
                operands: [
                    Operands::one("A", &a, Some((a_rows, a_cols, lda)), false),
                    Operands::one("x", &x, Some((k, 1, 1)), false),
                    Operands::one("y", &y, Some((m, 1, 1)), true),
                ],
                stationary: Some((m, k)),
                table: false,
                regs: &regs,
                command: Command::Gemv,
                calls: |s| &mut s.gemv_calls,
            },
        )
    }

    /// `polly_cimBlasGemmBatched`: a batch of same-shape GEMMs issued in
    /// one invocation. "The interface for the batched operation is similar
    /// to the one provided for polly_cimBlasSGemm with the only exception
    /// of having arrays of pointers instead of single pointers"
    /// (Section III-B). Batches sharing `A` reuse the installed operand.
    ///
    /// # Errors
    ///
    /// [`CimError::InvalidArg`] on mismatched batch lists.
    #[allow(clippy::too_many_arguments)]
    pub fn cim_blas_gemm_batched(
        &mut self,
        mach: &mut Machine,
        trans_a: Transpose,
        trans_b: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a_list: &[DevPtr],
        lda: usize,
        b_list: &[DevPtr],
        ldb: usize,
        beta: f32,
        c_list: &[DevPtr],
        ldc: usize,
    ) -> Result<SimTime, CimError> {
        let (a_rows, a_cols) = trans_a.stored(m, k);
        let b_extent = (trans_b == Transpose::No).then_some((k, n, ldb));
        let regs = [
            (Reg::M, m as u64),
            (Reg::N, n as u64),
            (Reg::K, k as u64),
            (Reg::Lda, lda as u64),
            (Reg::Ldb, ldb as u64),
            (Reg::Ldc, ldc as u64),
            (Reg::Alpha, alpha.to_bits() as u64),
            (Reg::Beta, beta.to_bits() as u64),
            (Reg::TransA, trans_a.as_reg()),
            (Reg::TransB, trans_b.as_reg()),
            (Reg::BatchCount, a_list.len() as u64),
        ];
        self.offload(
            mach,
            Offload {
                operands: [
                    Operands::list("A", a_list, Some((a_rows, a_cols, lda)), false),
                    Operands::list("B", b_list, b_extent, false),
                    Operands::list("C", c_list, Some((m, n, ldc)), true),
                ],
                // The batch schedules its own elements across sub-grids
                // inside the engine; the command as a whole occupies the
                // full grid.
                stationary: None,
                table: true,
                regs: &regs,
                command: Command::GemmBatched,
                calls: |s| &mut s.gemm_batched_calls,
            },
        )
    }

    /// `polly_cimConv2d`: single-channel 2-D convolution (valid padding).
    ///
    /// # Errors
    ///
    /// As for [`CimContext::cim_blas_sgemm`].
    #[allow(clippy::too_many_arguments)]
    pub fn cim_conv2d(
        &mut self,
        mach: &mut Machine,
        img: DevPtr,
        h: usize,
        w: usize,
        filt: DevPtr,
        fh: usize,
        fw: usize,
        out: DevPtr,
    ) -> Result<SimTime, CimError> {
        // A filter that does not fit the image is the engine's to reject.
        let fits = fh > 0 && fw > 0 && fh <= h && fw <= w;
        let extent = |rows: usize, cols: usize| fits.then_some((rows, cols, cols));
        let (out_h, out_w) = if fits { (h - fh + 1, w - fw + 1) } else { (0, 0) };
        let regs = [
            (Reg::AddrA, img.pa),
            (Reg::AddrB, filt.pa),
            (Reg::AddrC, out.pa),
            (Reg::ImgH, h as u64),
            (Reg::ImgW, w as u64),
            (Reg::FiltH, fh as u64),
            (Reg::FiltW, fw as u64),
        ];
        self.offload(
            mach,
            Offload {
                operands: [
                    Operands::one("image", &img, extent(h, w), false),
                    Operands::one("filter", &filt, extent(fh, fw), false),
                    // The conv kernel accumulates into its output: `out`
                    // is both read and written.
                    Operands::one("output", &out, extent(out_h, out_w), true),
                ],
                // Convolution always runs on tile (0, 0); the full grid
                // makes the doorbell serialize it against anything
                // touching that tile.
                stationary: None,
                table: false,
                regs: &regs,
                command: Command::Conv2d,
                calls: |s| &mut s.conv_calls,
            },
        )
    }

    /// The one offload path behind the BLAS entry points: validates the
    /// operation, then charges, arms and dispatches it. Every check runs
    /// before anything is charged, so a rejected call leaves the clock,
    /// the driver and the statistics as they were.
    ///
    /// The command always enters the reactor as a record owned by this
    /// context; under [`DispatchMode::Sync`] it is claimed at once. A
    /// descriptor table is freed when the command is claimed, or right
    /// away if the device rejects it — it must never leak. The operands'
    /// physical extents key both the driver's per-region doorbell and
    /// the observation ranges later sync points check.
    fn offload(&mut self, mach: &mut Machine, op: Offload<'_>) -> Result<SimTime, CimError> {
        self.ensure_init()?;
        let [a, b, c] = &op.operands;
        let count = a.ptrs.len();
        if count == 0 || b.ptrs.len() != count || c.ptrs.len() != count {
            return Err(CimError::InvalidArg(format!(
                "batch lists must be equal and non-empty (a={}, b={}, c={})",
                a.ptrs.len(),
                b.ptrs.len(),
                c.ptrs.len()
            )));
        }
        for p in op.operands.iter().flat_map(|role| role.ptrs) {
            self.check_live(p)?;
        }
        for i in 0..count {
            for role in &op.operands {
                role.check_extent(i)?;
            }
        }
        *(op.calls)(&mut self.stats) += 1;
        self.tenant_admission(mach);
        self.device.borrow_mut().driver.ioctl(mach);
        let table = if op.table { Some(self.write_table(mach, &op.operands)?) } else { None };
        let (region, a_resident) = match op.stationary {
            Some((m, k)) => self.place_stationary(&a.ptrs[0], m, k),
            None => (GridRegion::full(self.device.borrow().accel.config().grid), false),
        };
        // One buffer for the three range lists: the flush (every operand,
        // then the table), the reads (the inputs and the table) and the
        // writes (the outputs).
        let table_range = table.map(|t| (t.pa, t.len));
        let mut ranges = Vec::with_capacity(2 * (3 * count + 1));
        ranges.extend(op.operands.iter().flat_map(Operands::ranges).chain(table_range));
        let flushed = ranges.len();
        let inputs = op.operands.iter().filter(|role| !role.written);
        ranges.extend(inputs.flat_map(Operands::ranges).chain(table_range));
        let read = ranges.len() - flushed;
        let outputs = op.operands.iter().filter(|role| role.written);
        ranges.extend(outputs.flat_map(Operands::ranges));
        let (flush, accessed) = ranges.split_at(flushed);
        let (reads, writes) = accessed.split_at(read);
        // Pinned and installed: nothing host-side touched A since, so its
        // flush would walk clean lines for nothing.
        self.device.borrow_mut().driver.flush_shared(mach, &flush[usize::from(a_resident)..]);
        let tail = [
            (Reg::AddrBatch, table.map_or(0, |t| t.pa)),
            (Reg::Region, region.encode()),
            (Reg::Command, op.command as u64),
        ];
        let tail = if table.is_some() { &tail[..] } else { &tail[1..] };
        let blocking = self.driver().config().dispatch == DispatchMode::Sync;
        let submitted = {
            let mut guard = self.device.borrow_mut();
            let dev = &mut *guard;
            dev.driver.write_regs(mach, &mut dev.accel, op.regs);
            dev.driver.write_regs(mach, &mut dev.accel, tail);
            let stalls0 = dev.driver.stats().queue_full_stalls;
            let cells0 = dev.accel.stats().cell_writes;
            let submitted =
                dev.driver.submit(mach, &mut dev.accel, region, reads, writes, self.tenant, table);
            // Queue-full backpressure lands on the tenant whose
            // submission stalled, not smeared across the device.
            self.stats.queue_full_stalls += dev.driver.stats().queue_full_stalls - stalls0;
            if let Ok(future) = &submitted {
                // A blocking dispatch claims the command at once; its
                // retire instant is wherever the wait left the host.
                let ready_at = if blocking {
                    dev.driver.sync(mach, &mut dev.accel, future.cmd_id)?;
                    mach.now()
                } else {
                    future.ready_at
                };
                if let (Some(tid), Some(sched)) = (self.tenant, dev.scheduler.as_mut()) {
                    // The scheduler meters what the command actually
                    // consumed: tile-time until its predicted retire
                    // instant and the cell writes of its installs.
                    let cells = dev.accel.stats().cell_writes - cells0;
                    sched.note_dispatch(tid, region, future.busy, ready_at, cells);
                }
            }
            submitted
        };
        if submitted.is_ok() {
            // After the submit: the command ran against the residency
            // it found.
            self.invalidate_written(writes);
        }
        if submitted.is_ok() && !blocking {
            self.stats.async_submits += 1;
        } else if let Some(table) = table {
            // Claimed at once, or rejected before it entered the reactor.
            self.release(mach, table)?;
        }
        submitted.map(|future| future.busy)
    }

    /// Writes a batch's descriptor table into a fresh scratch CMA
    /// buffer: for each element, the physical address of its buffer of
    /// every operand role, one 8-byte word each. The host writes the
    /// words with cached stores, which the flush covers with the
    /// operands.
    fn write_table(
        &mut self,
        mach: &mut Machine,
        operands: &[Operands<'_>; 3],
    ) -> Result<DevPtr, CimError> {
        let count = operands[0].ptrs.len();
        let table = self.cim_malloc(mach, (8 * operands.len() * count) as u64)?;
        let words = (0..count).flat_map(|i| operands.iter().map(move |role| role.ptrs[i].pa));
        for (i, word) in words.enumerate() {
            let pa = table.pa + (i * 8) as u64;
            let out = mach.hier.access(pa, 8, true);
            mach.core.stall(out.stall_cycles);
            mach.core.retire(InstClass::Store, 1);
            mach.mem.write(pa, &word.to_le_bytes());
        }
        Ok(table)
    }
}

/// Checks a copy of `len` bytes between the host range at `host_va` and
/// the live buffer `dev` (`dir` is "into" or "from" it): the copy must
/// fit the buffer, and every page of the host range must be mapped.
fn check_copy(
    mach: &Machine,
    host_va: u64,
    len: u64,
    dir: &str,
    dev: &DevPtr,
) -> Result<(), CimError> {
    if len > dev.len {
        return Err(CimError::InvalidArg(format!(
            "copy of {len} bytes {dir} {}-byte buffer",
            dev.len
        )));
    }
    if !mach.mmu.is_mapped(host_va, len) {
        return Err(CimError::InvalidPointer(host_va));
    }
    Ok(())
}

/// Cached word copy: `ldr; str; add; bne` per 4 bytes. The data moves
/// through the machine's bulk run path (one cache classification per
/// line, one translate per page) while the retired instruction mix stays
/// that of the word loop.
fn copy_words(mach: &mut Machine, src_va: u64, dst_va: u64, len: u64) {
    let words = len / 4;
    if words == 0 {
        return;
    }
    mach.host_copy_f32(src_va, dst_va, words);
    mach.core.retire(InstClass::Load, words);
    mach.core.retire(InstClass::Store, words);
    mach.core.retire(InstClass::IntAlu, words);
    mach.core.retire(InstClass::Branch, words);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_machine::MachineConfig;

    fn setup() -> (Machine, CimContext) {
        let mach = Machine::new(MachineConfig::test_small());
        let ctx = CimContext::new(AccelConfig::test_small(), DriverConfig::default(), &mach);
        (mach, ctx)
    }

    fn dev_mat(ctx: &mut CimContext, mach: &mut Machine, data: &[f32]) -> DevPtr {
        let host = mach.alloc_host((data.len() * 4) as u64);
        mach.poke_f32_slice(host, data);
        let dev = ctx.cim_malloc(mach, (data.len() * 4) as u64).expect("malloc");
        ctx.cim_host_to_dev(mach, dev, host, (data.len() * 4) as u64).expect("h2d");
        dev
    }

    #[test]
    fn api_requires_init() {
        let (mut mach, mut ctx) = setup();
        assert_eq!(ctx.cim_malloc(&mut mach, 64).unwrap_err(), CimError::NotInitialized);
        ctx.cim_init(&mut mach, 0).expect("init");
        assert!(ctx.cim_malloc(&mut mach, 64).is_ok());
    }

    #[test]
    fn listing1_call_sequence_runs_gemm() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let a = dev_mat(&mut ctx, &mut mach, &[1.0, 2.0, 3.0, 4.0]);
        let b = dev_mat(&mut ctx, &mut mach, &[5.0, 6.0, 7.0, 8.0]);
        let c = dev_mat(&mut ctx, &mut mach, &[0.0; 4]);
        let dur = ctx
            .cim_blas_sgemm(
                &mut mach,
                Transpose::No,
                Transpose::No,
                2,
                2,
                2,
                1.0,
                a,
                2,
                b,
                2,
                0.0,
                c,
                2,
            )
            .expect("gemm");
        assert!(dur.as_us() > 0.0);
        let host_c = mach.alloc_host(16);
        ctx.cim_dev_to_host(&mut mach, host_c, c, 16).expect("d2h");
        let mut out = [0f32; 4];
        mach.peek_f32_slice(host_c, &mut out);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemv_with_alpha_beta() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let a = dev_mat(&mut ctx, &mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let x = dev_mat(&mut ctx, &mut mach, &[2.0, 3.0]);
        let y = dev_mat(&mut ctx, &mut mach, &[10.0, 20.0]);
        ctx.cim_blas_sgemv(&mut mach, Transpose::No, 2, 2, 2.0, a, 2, x, 0.5, y).expect("gemv");
        let host = mach.alloc_host(8);
        ctx.cim_dev_to_host(&mut mach, host, y, 8).expect("d2h");
        let mut out = [0f32; 2];
        mach.peek_f32_slice(host, &mut out);
        assert_eq!(out, [2.0 * 2.0 + 5.0, 2.0 * 3.0 + 10.0]);
    }

    #[test]
    fn batched_gemm_with_shared_a_reuses_crossbar() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let a = dev_mat(&mut ctx, &mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let b1 = dev_mat(&mut ctx, &mut mach, &[1.0, 2.0, 3.0, 4.0]);
        let b2 = dev_mat(&mut ctx, &mut mach, &[5.0, 6.0, 7.0, 8.0]);
        let c1 = dev_mat(&mut ctx, &mut mach, &[0.0; 4]);
        let c2 = dev_mat(&mut ctx, &mut mach, &[0.0; 4]);
        ctx.cim_blas_gemm_batched(
            &mut mach,
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            &[a, a],
            2,
            &[b1, b2],
            2,
            0.0,
            &[c1, c2],
            2,
        )
        .expect("batched");
        // Shared A installed once.
        assert_eq!(ctx.accel().stats().rows_programmed, 2);
        let host = mach.alloc_host(16);
        ctx.cim_dev_to_host(&mut mach, host, c2, 16).expect("d2h");
        let mut out = [0f32; 4];
        mach.peek_f32_slice(host, &mut out);
        assert_eq!(out, [5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn batched_error_path_frees_descriptor_table() {
        // The scratch CMA descriptor table must be released even when
        // the engine rejects the command — in both dispatch modes.
        for dispatch in [DispatchMode::Sync, DispatchMode::Async] {
            let mut mach = Machine::new(cim_machine::MachineConfig::test_small());
            let drv_cfg = DriverConfig { dispatch, ..DriverConfig::default() };
            let mut ctx = CimContext::new(AccelConfig::test_small(), drv_cfg, &mach);
            ctx.cim_init(&mut mach, 0).expect("init");
            let a = dev_mat(&mut ctx, &mut mach, &[1.0, 0.0, 0.0, 1.0]);
            let b = dev_mat(&mut ctx, &mut mach, &[1.0, 2.0, 3.0, 4.0]);
            let c = dev_mat(&mut ctx, &mut mach, &[0.0; 4]);
            let used_before = mach.cma.used();
            // m = 0 -> the engine flags BadDims after the table is built.
            let err = ctx
                .cim_blas_gemm_batched(
                    &mut mach,
                    Transpose::No,
                    Transpose::No,
                    0,
                    2,
                    2,
                    1.0,
                    &[a],
                    2,
                    &[b],
                    2,
                    0.0,
                    &[c],
                    2,
                )
                .unwrap_err();
            assert!(matches!(err, CimError::Device(_)), "{dispatch:?}");
            assert_eq!(
                mach.cma.used(),
                used_before,
                "{dispatch:?}: descriptor table leaked CMA bytes"
            );
            assert_eq!(ctx.pending_commands(), 0, "{dispatch:?}");
        }
    }

    #[test]
    fn async_batched_defers_wait_until_results_observed() {
        let mut mach = Machine::new(cim_machine::MachineConfig::test_small());
        let drv_cfg = DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() };
        let mut ctx = CimContext::new(AccelConfig::test_small().with_grid(2, 2), drv_cfg, &mach);
        ctx.cim_init(&mut mach, 0).expect("init");
        let a1 = dev_mat(&mut ctx, &mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let a2 = dev_mat(&mut ctx, &mut mach, &[2.0, 0.0, 0.0, 2.0]);
        let b1 = dev_mat(&mut ctx, &mut mach, &[1.0, 2.0, 3.0, 4.0]);
        let b2 = dev_mat(&mut ctx, &mut mach, &[5.0, 6.0, 7.0, 8.0]);
        let c1 = dev_mat(&mut ctx, &mut mach, &[0.0; 4]);
        let c2 = dev_mat(&mut ctx, &mut mach, &[0.0; 4]);
        let cma_before = mach.cma.used();
        ctx.cim_blas_gemm_batched(
            &mut mach,
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            &[a1, a2],
            2,
            &[b1, b2],
            2,
            0.0,
            &[c1, c2],
            2,
        )
        .expect("batched submits");
        // The call returned with the command in flight; the independent
        // elements ran on disjoint tile regions.
        assert_eq!(ctx.pending_commands(), 1);
        assert_eq!(ctx.stats().async_submits, 1);
        assert!(ctx.accel().stats().max_tiles_active >= 2);
        // Overlap host work, then observe a result: the d2h path syncs.
        mach.advance_host(cim_machine::units::SimTime::from_us(5.0));
        let host = mach.alloc_host(16);
        ctx.cim_dev_to_host(&mut mach, host, c2, 16).expect("d2h");
        assert_eq!(ctx.pending_commands(), 0);
        // Claiming the command freed its descriptor table.
        assert_eq!(mach.cma.used(), cma_before, "descriptor table outlived its command");
        let mut out = [0f32; 4];
        mach.peek_f32_slice(host, &mut out);
        assert_eq!(out, [10.0, 12.0, 14.0, 16.0]);
    }

    #[test]
    fn observation_of_disjoint_buffer_leaves_commands_in_flight() {
        // The buffer-scoped doorbell: while an async GEMM is in flight,
        // data movement on buffers the command does not touch must not
        // pay its wait — only observing an actual operand does.
        let mut mach = Machine::new(cim_machine::MachineConfig::test_small());
        let drv_cfg = DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() };
        let mut ctx = CimContext::new(AccelConfig::test_small(), drv_cfg, &mach);
        ctx.cim_init(&mut mach, 0).expect("init");
        let a = dev_mat(&mut ctx, &mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let b = dev_mat(&mut ctx, &mut mach, &[1.0, 2.0, 3.0, 4.0]);
        let c = dev_mat(&mut ctx, &mut mach, &[0.0; 4]);
        let other = dev_mat(&mut ctx, &mut mach, &[9.0; 4]);
        ctx.cim_blas_sgemm(
            &mut mach,
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            a,
            2,
            b,
            2,
            0.0,
            c,
            2,
        )
        .expect("submits");
        assert_eq!(ctx.pending_commands(), 1);
        // Unrelated staging traffic: command stays in flight, skip counted.
        let host = mach.alloc_host(16);
        ctx.cim_host_to_dev(&mut mach, other, host, 16).expect("h2d");
        ctx.cim_dev_to_host(&mut mach, host, other, 16).expect("d2h");
        assert_eq!(ctx.pending_commands(), 1, "disjoint observation must not sync");
        assert_eq!(ctx.stats().selective_sync_skips, 2);
        // Observing an operand of the command pays the residual wait.
        ctx.cim_dev_to_host(&mut mach, host, c, 16).expect("d2h c");
        assert_eq!(ctx.pending_commands(), 0);
        let mut out = [0f32; 4];
        mach.peek_f32_slice(host, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
        // Overwriting an *input* of a (new) in-flight command also waits:
        // the hardware may still be reading it.
        ctx.cim_blas_sgemm(
            &mut mach,
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            a,
            2,
            b,
            2,
            0.0,
            c,
            2,
        )
        .expect("submits");
        assert_eq!(ctx.pending_commands(), 1);
        ctx.cim_host_to_dev(&mut mach, b, host, 16).expect("h2d into operand");
        assert_eq!(ctx.pending_commands(), 0, "operand overwrite must sync first");
    }

    #[test]
    fn offload_overhead_is_visible_in_host_instructions() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let a = dev_mat(&mut ctx, &mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let x = dev_mat(&mut ctx, &mut mach, &[1.0, 1.0]);
        let y = dev_mat(&mut ctx, &mut mach, &[0.0, 0.0]);
        let before = mach.core.instructions();
        ctx.cim_blas_sgemv(&mut mach, Transpose::No, 2, 2, 1.0, a, 2, x, 0.0, y).expect("gemv");
        let overhead = mach.core.instructions() - before;
        // ioctl + flush + regs + spin-wait: thousands of instructions for a
        // 4-MAC kernel — the GEMV-like loss of Fig. 6 in miniature.
        assert!(overhead > 2000, "got {overhead}");
    }

    #[test]
    fn free_releases_and_rejects_double_free() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let p = ctx.cim_malloc(&mut mach, 128).expect("malloc");
        ctx.cim_free(&mut mach, p).expect("free");
        assert!(matches!(ctx.cim_free(&mut mach, p), Err(CimError::InvalidPointer(_))));
    }

    #[test]
    fn oversized_copy_rejected() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let p = ctx.cim_malloc(&mut mach, 64).expect("malloc");
        let host = mach.alloc_host(128);
        assert!(matches!(
            ctx.cim_host_to_dev(&mut mach, p, host, 128),
            Err(CimError::InvalidArg(_))
        ));
    }

    /// Asserts `r` is an `InvalidArg` naming operand `name`.
    fn assert_names_operand(r: Result<SimTime, CimError>, name: &str) {
        match r {
            Err(CimError::InvalidArg(msg)) => {
                assert!(msg.contains(&format!("operand {name} ")), "{msg}")
            }
            other => panic!("expected InvalidArg for operand {name}, got {other:?}"),
        }
    }

    #[test]
    fn undersized_gemm_operand_rejected() {
        // A 16-byte A (2x2) passed as 4x4 with lda 4 used to return Ok,
        // with the accelerator reading past A into whatever followed it.
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let a = dev_mat(&mut ctx, &mut mach, &[1.0; 4]);
        let b = dev_mat(&mut ctx, &mut mach, &[1.0; 16]);
        let c = dev_mat(&mut ctx, &mut mach, &[0.0; 16]);
        let (no, yes) = (Transpose::No, Transpose::Yes);
        let r = ctx.cim_blas_sgemm(&mut mach, no, no, 4, 4, 4, 1.0, a, 4, b, 4, 0.0, c, 4);
        assert_names_operand(r, "A");
        // Transposed A is stored k x m: a 2x4 op(A) needs 4 rows of lda 2.
        let r = ctx.cim_blas_sgemm(&mut mach, yes, no, 2, 4, 4, 1.0, a, 2, b, 4, 0.0, c, 4);
        assert_names_operand(r, "A");
        let r = ctx.cim_blas_sgemm(&mut mach, no, no, 2, 2, 2, 1.0, a, 2, b, 15, 0.0, c, 2);
        assert_names_operand(r, "B");
        let r = ctx.cim_blas_sgemm(&mut mach, no, no, 2, 4, 2, 1.0, a, 2, b, 4, 0.0, a, 4);
        assert_names_operand(r, "C");
        // The exact extent suffices: the last row need not span ld.
        let r = ctx.cim_blas_sgemm(&mut mach, no, no, 2, 2, 2, 1.0, b, 14, b, 14, 0.0, c, 2);
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(ctx.stats().gemm_calls, 1, "rejected calls never reach the device");
    }

    #[test]
    fn undersized_gemv_operand_rejected() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let a = dev_mat(&mut ctx, &mut mach, &[1.0; 16]);
        let short = dev_mat(&mut ctx, &mut mach, &[1.0; 2]);
        let long = dev_mat(&mut ctx, &mut mach, &[1.0; 4]);
        let no = Transpose::No;
        let r = ctx.cim_blas_sgemv(&mut mach, no, 4, 4, 1.0, short, 4, long, 0.0, long);
        assert_names_operand(r, "A");
        let r = ctx.cim_blas_sgemv(&mut mach, no, 4, 4, 1.0, a, 4, short, 0.0, long);
        assert_names_operand(r, "x");
        let r = ctx.cim_blas_sgemv(&mut mach, no, 4, 4, 1.0, a, 4, long, 0.0, short);
        assert_names_operand(r, "y");
        assert_eq!(ctx.stats().gemv_calls, 0);
    }

    #[test]
    fn undersized_batched_operand_rejected() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let a = dev_mat(&mut ctx, &mut mach, &[1.0; 4]);
        let b = dev_mat(&mut ctx, &mut mach, &[1.0; 4]);
        let c = dev_mat(&mut ctx, &mut mach, &[0.0; 4]);
        let short = dev_mat(&mut ctx, &mut mach, &[0.0; 2]);
        let cma_before = mach.cma.used();
        let no = Transpose::No;
        let r = ctx.cim_blas_gemm_batched(
            &mut mach,
            no,
            no,
            2,
            2,
            2,
            1.0,
            &[a, a],
            2,
            &[b, b],
            2,
            0.0,
            &[c, short],
            2,
        );
        assert_names_operand(r, "C[1]");
        assert_eq!(mach.cma.used(), cma_before, "no descriptor table was allocated");
        assert_eq!(ctx.stats().gemm_batched_calls, 0);
    }

    #[test]
    fn undersized_conv_operand_rejected() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let img = dev_mat(&mut ctx, &mut mach, &[1.0; 36]);
        let filt = dev_mat(&mut ctx, &mut mach, &[1.0; 4]);
        let out = dev_mat(&mut ctx, &mut mach, &[0.0; 25]);
        let r = ctx.cim_conv2d(&mut mach, filt, 6, 6, filt, 2, 2, out);
        assert_names_operand(r, "image");
        let r = ctx.cim_conv2d(&mut mach, img, 6, 6, filt, 3, 2, out);
        assert_names_operand(r, "filter");
        let r = ctx.cim_conv2d(&mut mach, img, 6, 6, filt, 2, 1, out);
        assert_names_operand(r, "output");
        // A filter larger than the image stays the engine's error.
        let r = ctx.cim_conv2d(&mut mach, filt, 2, 2, img, 3, 3, out);
        assert!(matches!(r, Err(CimError::Device(_))), "{r:?}");
        assert!(ctx.cim_conv2d(&mut mach, img, 6, 6, filt, 2, 2, out).is_ok());
    }

    /// Calls BLAS entry point `entry` on 2x2 operands `a`, `b`, `c` (the
    /// image, filter and output of a 2x2 convolution with a 1x1 filter);
    /// the batch takes `cs` as its `C` list.
    fn offload_2x2(
        ctx: &mut CimContext,
        mach: &mut Machine,
        entry: &str,
        [a, b, c]: [DevPtr; 3],
        cs: &[DevPtr],
    ) -> Result<SimTime, CimError> {
        let no = Transpose::No;
        match entry {
            "sgemm" => ctx.cim_blas_sgemm(mach, no, no, 2, 2, 2, 1.0, a, 2, b, 2, 0.0, c, 2),
            "sgemv" => ctx.cim_blas_sgemv(mach, no, 2, 2, 1.0, a, 2, b, 0.0, c),
            "gemm_batched" => {
                let (a, b) = ([a], [b]);
                ctx.cim_blas_gemm_batched(mach, no, no, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, cs, 2)
            }
            "conv2d" => ctx.cim_conv2d(mach, a, 2, 2, b, 1, 1, c),
            _ => unreachable!("unknown entry point {entry}"),
        }
    }

    /// Everything an offload charges: the clock, the host's
    /// instructions, the driver's ioctls and register accesses, the
    /// runtime statistics, the CMA and the in-flight commands.
    fn charges(ctx: &CimContext, mach: &Machine) -> impl PartialEq + std::fmt::Debug {
        let drv = ctx.driver().stats();
        (
            mach.now(),
            mach.core.instructions(),
            drv.ioctls,
            drv.reg_accesses,
            *ctx.stats(),
            mach.cma.used(),
            ctx.pending_commands(),
        )
    }

    /// Every rejection a BLAS entry point makes — an uninitialized
    /// context, a dead pointer, an undersized operand, unequal batch
    /// lists, a pointer whose end passes `u64::MAX` — returns its error
    /// before anything is charged, under both dispatch modes. A valid
    /// call on the same context does charge.
    #[test]
    fn rejected_offload_charges_nothing() {
        let top = u64::MAX - 3;
        let overflowing = DevPtr { va: top, pa: top, len: 8 };
        for dispatch in [DispatchMode::Sync, DispatchMode::Async] {
            for entry in ["sgemm", "sgemv", "gemm_batched", "conv2d"] {
                let mut mach = Machine::new(MachineConfig::test_small());
                let drv_cfg = DriverConfig { dispatch, ..DriverConfig::default() };
                let mut ctx = CimContext::new(AccelConfig::test_small(), drv_cfg, &mach);
                let unregistered = |mach: &mut Machine| {
                    let (va, pa) = mach.alloc_cma(16).expect("cma");
                    DevPtr { va, pa, len: 16 }
                };
                let cold =
                    [unregistered(&mut mach), unregistered(&mut mach), unregistered(&mut mach)];
                let before = charges(&ctx, &mach);
                let r = offload_2x2(&mut ctx, &mut mach, entry, cold, &cold[2..]);
                assert_eq!(r, Err(CimError::NotInitialized), "{entry} {dispatch:?}");
                assert_eq!(charges(&ctx, &mach), before, "{entry} {dispatch:?}: not initialized");

                ctx.cim_init(&mut mach, 0).expect("init");
                let a = dev_mat(&mut ctx, &mut mach, &[1.0; 4]);
                let b = dev_mat(&mut ctx, &mut mach, &[1.0; 4]);
                let c = dev_mat(&mut ctx, &mut mach, &[0.0; 4]);
                let short = dev_mat(&mut ctx, &mut mach, &[0.0]);
                let dead = ctx.cim_malloc(&mut mach, 16).expect("malloc");
                ctx.cim_free(&mut mach, dead).expect("free");
                let bad_pointer: fn(&CimError) -> bool =
                    |e| matches!(e, CimError::InvalidPointer(_));
                let bad_arg: fn(&CimError) -> bool = |e| matches!(e, CimError::InvalidArg(_));
                let mut rows = vec![
                    ("dead pointer", [a, dead, c], vec![c], bad_pointer),
                    ("undersized operand", [a, b, short], vec![short], bad_arg),
                    ("overflowing pointer", [a, overflowing, c], vec![c], bad_pointer),
                ];
                if entry == "gemm_batched" {
                    rows.push(("unequal batch lists", [a, b, c], vec![c, c], bad_arg));
                }
                for (fault, ops, cs, expected) in rows {
                    let label = format!("{entry} {dispatch:?}: {fault}");
                    let before = charges(&ctx, &mach);
                    let r = offload_2x2(&mut ctx, &mut mach, entry, ops, &cs);
                    assert!(r.as_ref().is_err_and(expected), "{label}: {r:?}");
                    assert_eq!(charges(&ctx, &mach), before, "{label}");
                }

                let before = charges(&ctx, &mach);
                offload_2x2(&mut ctx, &mut mach, entry, [a, b, c], &[c]).expect(entry);
                assert_ne!(
                    charges(&ctx, &mach),
                    before,
                    "{entry} {dispatch:?}: a valid call charges"
                );
            }
        }
    }

    /// Every rejection a data-movement call or `cim_free` makes — a view
    /// that overlaps an in-flight command's buffer but is no live
    /// allocation, a copy longer than its buffer, a host range with an
    /// unmapped page or an end past `u64::MAX` — returns its error before
    /// the call syncs the buffer: the command stays in flight and
    /// nothing is charged.
    #[test]
    fn data_movement_rejections_charge_nothing() {
        let mut mach = Machine::new(MachineConfig::test_small());
        let drv_cfg = DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() };
        let mut ctx = CimContext::new(AccelConfig::test_small(), drv_cfg, &mach);
        ctx.cim_init(&mut mach, 0).expect("init");
        let a = dev_mat(&mut ctx, &mut mach, &[1.0, 0.0, 0.0, 1.0]);
        let x = dev_mat(&mut ctx, &mut mach, &[2.0, 3.0]);
        let y = dev_mat(&mut ctx, &mut mach, &[0.0; 2]);
        ctx.cim_blas_sgemv(&mut mach, Transpose::No, 2, 2, 1.0, a, 2, x, 0.0, y).expect("gemv");
        assert_eq!(ctx.pending_commands(), 1);
        let host = mach.alloc_host(2 * y.len);
        let grown = DevPtr { len: y.len + 16, ..y };
        let unmapped = 0xDEAD_0000;
        assert!(mach.mmu.translate(unmapped).is_err(), "the probe address must be unmapped");
        let top = u64::MAX - 3;
        let bad_pointer: fn(&CimError) -> bool = |e| matches!(e, CimError::InvalidPointer(_));
        let bad_arg: fn(&CimError) -> bool = |e| matches!(e, CimError::InvalidArg(_));
        type Call = fn(&mut CimContext, &mut Machine, DevPtr, u64, u64) -> Result<(), CimError>;
        let h2d: Call = |ctx, m, dev, va, len| ctx.cim_host_to_dev(m, dev, va, len);
        let d2h: Call = |ctx, m, dev, va, len| ctx.cim_dev_to_host(m, va, dev, len);
        let to_dev: Call = |ctx, m, dev, _, _| ctx.cim_sync_to_dev(m, dev);
        let to_host: Call = |ctx, m, dev, _, _| ctx.cim_sync_to_host(m, dev);
        let free: Call = |ctx, m, dev, _, _| ctx.cim_free(m, dev);
        let mut rows = Vec::new();
        for (name, call) in [("sync_to_dev", to_dev), ("sync_to_host", to_host), ("free", free)] {
            rows.push((name, call, "overlapping dead view", grown, host, y.len, bad_pointer));
        }
        for (name, call) in [("host_to_dev", h2d), ("dev_to_host", d2h)] {
            rows.push((name, call, "overlapping dead view", grown, host, y.len, bad_pointer));
            rows.push((name, call, "oversized copy", y, host, y.len + 4, bad_arg));
            rows.push((name, call, "unmapped host range", y, unmapped, y.len, bad_pointer));
            rows.push((name, call, "host range end overflows", y, top, y.len, bad_pointer));
        }
        for (name, call, fault, dev, va, len, expected) in rows {
            let before = charges(&ctx, &mach);
            let r = call(&mut ctx, &mut mach, dev, va, len);
            assert!(r.as_ref().is_err_and(expected), "{name}: {fault}: {r:?}");
            assert_eq!(charges(&ctx, &mach), before, "{name}: {fault}");
        }
        assert_eq!(ctx.pending_commands(), 1, "the command is still in flight");
    }

    /// A `DevPtr` whose end passes `u64::MAX` — built by hand, or as an
    /// overlong view of a live buffer — is rejected as an invalid
    /// pointer by every call that takes one, never wrapped into a live
    /// range.
    #[test]
    fn pointer_whose_end_overflows_is_rejected() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let a = dev_mat(&mut ctx, &mut mach, &[1.0; 4]);
        let host = mach.alloc_host(16);
        let top = u64::MAX - 3;
        let no = Transpose::No;
        for bad in [DevPtr { va: top, pa: top, len: 8 }, DevPtr { len: u64::MAX, ..a }] {
            let m = &mut mach;
            let results = [
                ("cim_pin", ctx.cim_pin(m, bad)),
                ("cim_adopt", ctx.cim_adopt(m, bad)),
                ("cim_free", ctx.cim_free(m, bad)),
                ("cim_sync_to_dev", ctx.cim_sync_to_dev(m, bad)),
                ("cim_sync_to_host", ctx.cim_sync_to_host(m, bad)),
                ("cim_host_to_dev", ctx.cim_host_to_dev(m, bad, host, 16)),
                ("cim_dev_to_host", ctx.cim_dev_to_host(m, host, bad, 16)),
                (
                    "cim_blas_sgemm",
                    ctx.cim_blas_sgemm(m, no, no, 2, 2, 2, 1.0, a, 2, a, 2, 0.0, bad, 2).map(drop),
                ),
                (
                    "cim_blas_sgemv",
                    ctx.cim_blas_sgemv(m, no, 2, 2, 1.0, a, 2, a, 0.0, bad).map(drop),
                ),
                (
                    "cim_blas_gemm_batched",
                    ctx.cim_blas_gemm_batched(
                        m,
                        no,
                        no,
                        2,
                        2,
                        2,
                        1.0,
                        &[a],
                        2,
                        &[bad],
                        2,
                        0.0,
                        &[a],
                        2,
                    )
                    .map(drop),
                ),
                ("cim_conv2d", ctx.cim_conv2d(m, a, 2, 2, bad, 1, 1, a).map(drop)),
            ];
            for (call, r) in results {
                assert!(
                    matches!(r, Err(CimError::InvalidPointer(_))),
                    "{call} with {bad:?}: {r:?}"
                );
            }
        }
        let s = ctx.stats();
        assert_eq!((s.gemm_calls, s.gemv_calls, s.gemm_batched_calls, s.conv_calls), (0, 0, 0, 0));
        // Only the setup's malloc and copy of `a` went through.
        assert_eq!((s.h2d_calls, s.d2h_calls, s.pin_calls, s.malloc_calls), (1, 0, 0, 1));
    }

    #[test]
    fn stats_track_calls() {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let _ = ctx.cim_malloc(&mut mach, 64).expect("malloc");
        assert_eq!(ctx.stats().init_calls, 1);
        assert_eq!(ctx.stats().malloc_calls, 1);
        assert_eq!(ctx.stats().bytes_allocated, 64);
    }
}
