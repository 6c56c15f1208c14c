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
use std::cell::{Ref, RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::driver::{CimDriver, CimFuture, DispatchMode, DriverConfig};
use crate::error::CimError;
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

/// Requires the buffer of operand `name` to hold the operand's exact
/// extent: a row-major `rows x cols` matrix with leading dimension `ld`
/// (in elements). The accelerator reads and writes that many bytes from
/// the buffer's start, so a shorter buffer would let it touch memory the
/// call does not own.
fn check_extent(
    name: &str,
    ptr: &DevPtr,
    rows: usize,
    cols: usize,
    ld: usize,
) -> Result<(), CimError> {
    match operand_bytes(rows, cols, ld) {
        Some(bytes) if bytes <= ptr.len => Ok(()),
        _ => Err(CimError::InvalidArg(format!(
            "operand {name} ({rows}x{cols}, ld {ld}) does not fit its {}-byte buffer",
            ptr.len
        ))),
    }
}

/// A command submitted under [`DispatchMode::Async`] that the context
/// has not yet synchronized, plus the scratch buffers (batched
/// descriptor tables) that must stay live until it completes and the
/// physical ranges of every operand it reads or writes (the granularity
/// at which observation points decide whether they must wait for it).
#[derive(Debug)]
struct PendingCmd {
    future: CimFuture,
    scratch: Vec<DevPtr>,
    ranges: Vec<(u64, u64)>,
}

impl PendingCmd {
    /// Whether any operand of the command overlaps `[pa, pa + len)`.
    /// Empty ranges observe no bytes and overlap nothing
    /// ([`crate::ranges::overlaps`]) — a zero-length query at an
    /// interior point of an operand must not sync the command.
    fn touches(&self, pa: u64, len: u64) -> bool {
        self.ranges.iter().any(|&r| crate::ranges::overlaps((pa, len), r))
    }
}

/// The hardware a context (or N tenant contexts) submits against: one
/// accelerator, one kernel driver — the reactor's rings and in-flight
/// table — and, when the device is fronted by
/// [`crate::serve::CimServer`], the serving scheduler that
/// space/time-multiplexes the tile grid.
///
/// A plain [`CimContext::new`] wraps a private device (the historical
/// single-program shape); the serving layer instead builds one device
/// and hands every tenant a context over the same [`SharedDevice`], so
/// all tenants share the reactor's rings and per-region doorbells.
#[derive(Debug)]
pub struct CimDevice {
    /// The modeled accelerator.
    pub accel: CimAccelerator,
    /// The kernel driver session (shared rings + in-flight table).
    pub driver: CimDriver,
    /// Serving scheduler — `None` for private single-program devices.
    pub scheduler: Option<GridScheduler>,
}

/// Shared handle to a [`CimDevice`]. The runtime is a single-threaded
/// discrete-event model, so `Rc<RefCell<_>>` is the right flavor of
/// sharing: every borrow is scoped to one driver/accelerator operation.
pub type SharedDevice = Rc<RefCell<CimDevice>>;

/// The per-client runtime context (device handle + driver session).
/// Allocation, pending-command, residency and statistics state is all
/// per-context; the accelerator, driver and (under serving) scheduler
/// live in the [`SharedDevice`] behind it.
#[derive(Debug)]
pub struct CimContext {
    device: SharedDevice,
    /// The serving-scheduler identity of this context, when it was
    /// handed out by [`crate::serve::CimServer::connect`].
    tenant: Option<TenantId>,
    device_id: Option<u32>,
    allocations: Vec<DevPtr>,
    pending: Vec<PendingCmd>,
    residency: ResidencyTable,
    /// The finest disjoint partition of the tile grid, computed once —
    /// the round-robin pool [`CimContext::next_subregion`] draws from.
    subregions: Vec<GridRegion>,
    region_cursor: usize,
    stats: RuntimeStats,
}

impl CimContext {
    /// Creates a context around a fresh private accelerator. `bus_cfg`
    /// must match the machine the context will run against. The driver's
    /// device and tile-grid overrides ([`DriverConfig::device`] /
    /// [`DriverConfig::tile_grid`]) are applied to `accel_cfg` first, so
    /// callers can sweep technologies without rebuilding the accelerator
    /// configuration by hand.
    pub fn new(accel_cfg: AccelConfig, driver_cfg: DriverConfig, mach: &Machine) -> Self {
        let accel_cfg = driver_cfg.apply_overrides(accel_cfg);
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
            pending: Vec::new(),
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

    /// Mutable accelerator access (tests, fidelity switches). The guard
    /// must not be held across another runtime call on the same device.
    pub fn accel_mut(&mut self) -> RefMut<'_, CimAccelerator> {
        RefMut::map(self.device.borrow_mut(), |d| &mut d.accel)
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

    /// Commands submitted asynchronously and not yet synchronized.
    pub fn pending_commands(&self) -> usize {
        self.pending.len()
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
    /// Propagates driver or free errors; unprocessed commands (and any
    /// scratch still unfreed) stay pending, so nothing leaks.
    pub fn cim_sync(&mut self, mach: &mut Machine) -> Result<SimTime, CimError> {
        self.sync_where(mach, |_| true)
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
        let total = self.sync_where(mach, |cmd| cmd.touches(pa, len))?;
        self.stats.selective_sync_skips += self.pending.len() as u64;
        Ok(total)
    }

    fn sync_where(
        &mut self,
        mach: &mut Machine,
        must_sync: impl Fn(&PendingCmd) -> bool,
    ) -> Result<SimTime, CimError> {
        let mut total = SimTime::ZERO;
        let mut pending: VecDeque<PendingCmd> = std::mem::take(&mut self.pending).into();
        let mut kept: Vec<PendingCmd> = Vec::new();
        while let Some(cmd) = pending.pop_front() {
            if !must_sync(&cmd) {
                kept.push(cmd);
                continue;
            }
            let synced = {
                let mut guard = self.device.borrow_mut();
                let dev = &mut *guard;
                dev.driver.sync(mach, &mut dev.accel, &cmd.future)
            };
            if let Err(e) = synced {
                pending.push_front(cmd);
                kept.extend(pending);
                self.pending = kept;
                return Err(e);
            }
            total += cmd.future.busy;
            for (i, p) in cmd.scratch.iter().enumerate() {
                if let Err(e) = self.release(mach, *p) {
                    // The command itself completed; park its unfreed
                    // scratch on a re-queued entry (the future is already
                    // past `ready_at`, so a later sync retries the frees
                    // without waiting again).
                    let scratch = cmd.scratch[i..].to_vec();
                    let ranges = scratch.iter().map(|s| (s.pa, s.len)).collect();
                    pending.push_front(PendingCmd { future: cmd.future, scratch, ranges });
                    kept.extend(pending);
                    self.pending = kept;
                    return Err(e);
                }
            }
        }
        self.pending = kept;
        Ok(total)
    }

    /// Dispatches the armed command per the configured [`DispatchMode`],
    /// taking ownership of `scratch` buffers that must be freed once the
    /// command is done (on every path, including errors — the descriptor
    /// table must never leak). `region` is the tile sub-array the command
    /// was armed for (the caller also wrote it into
    /// [`Reg::Region`]); `reads`/`writes` are the physical extents of
    /// its operands, which key both the driver's per-region doorbell and
    /// — unioned — the observation ranges later sync points check.
    fn dispatch_armed(
        &mut self,
        mach: &mut Machine,
        scratch: Vec<DevPtr>,
        region: GridRegion,
        reads: Vec<(u64, u64)>,
        writes: Vec<(u64, u64)>,
    ) -> Result<SimTime, CimError> {
        let outcome = {
            let mut guard = self.device.borrow_mut();
            let dev = &mut *guard;
            let stalls0 = dev.driver.stats().queue_full_stalls;
            let cells0 = dev.accel.stats().cell_writes;
            let outcome = match dev.driver.config().dispatch {
                DispatchMode::Sync => dev
                    .driver
                    .invoke(mach, &mut dev.accel, region, &reads, &writes)
                    .map(|busy| (busy, None)),
                DispatchMode::Async => dev
                    .driver
                    .submit(mach, &mut dev.accel, region, &reads, &writes)
                    .map(|future| (future.busy, Some(future))),
            };
            // Queue-full backpressure lands on the tenant whose
            // submission stalled, not smeared across the device.
            self.stats.queue_full_stalls += dev.driver.stats().queue_full_stalls - stalls0;
            if let Ok((busy, future)) = &outcome {
                if let (Some(tid), Some(sched)) = (self.tenant, dev.scheduler.as_mut()) {
                    // The scheduler meters what the command actually
                    // consumed: tile-time until its predicted retire
                    // instant and the cell writes of its installs.
                    let ready_at = future.map_or(mach.now(), |f| f.ready_at);
                    let cells = dev.accel.stats().cell_writes - cells0;
                    sched.note_dispatch(tid, region, *busy, ready_at, cells);
                }
            }
            outcome
        };
        match outcome {
            Ok((busy, None)) => {
                self.invalidate_written(&writes);
                for p in scratch {
                    self.release(mach, p)?;
                }
                Ok(busy)
            }
            Ok((busy, Some(future))) => {
                self.stats.async_submits += 1;
                self.invalidate_written(&writes);
                let mut ranges = reads;
                ranges.extend(writes);
                self.pending.push(PendingCmd { future, scratch, ranges });
                Ok(busy)
            }
            Err(e) => {
                for p in scratch {
                    self.release(mach, p)?;
                }
                Err(e)
            }
        }
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
    /// a command already in the rings cannot be reordered, so the
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

    /// Detaches this context from the shared device: pending commands
    /// are synchronized (the tenant's own doorbells are claimed — a
    /// departing tenant leaves nothing unclaimed in the completion
    /// ring), every live allocation is released (which invalidates its
    /// pins), and the serving lease is reclaimed for the remaining
    /// tenants. The context is left uninitialized; it can be dropped or
    /// re-`cim_init`ed as a fresh client.
    ///
    /// # Errors
    ///
    /// Propagates driver or free errors; state already torn down stays
    /// torn down (the call is safe to retry).
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
    /// [`CimError::InvalidPointer`] if `ptr` is not live.
    pub fn cim_free(&mut self, mach: &mut Machine, ptr: DevPtr) -> Result<(), CimError> {
        self.ensure_init()?;
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
        // passes views into larger buffers).
        let inside = self.allocations.iter().any(|p| {
            ptr.va >= p.va
                && ptr.va + ptr.len <= p.va + p.len
                && ptr.pa >= p.pa
                && ptr.pa + ptr.len <= p.pa + p.len
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
    /// [`CimError::NotInitialized`] before `cim_init`.
    pub fn cim_adopt(&mut self, mach: &mut Machine, ptr: DevPtr) -> Result<(), CimError> {
        self.ensure_init()?;
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
        self.cim_sync_range(mach, ptr.pa, ptr.len)?;
        self.check_live(&ptr)?;
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
        self.cim_sync_range(mach, ptr.pa, ptr.len)?;
        self.check_live(&ptr)?;
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
    /// [`CimError::InvalidArg`] if the copy exceeds the allocation.
    pub fn cim_host_to_dev(
        &mut self,
        mach: &mut Machine,
        dst: DevPtr,
        src_va: u64,
        len: u64,
    ) -> Result<(), CimError> {
        self.ensure_init()?;
        self.cim_sync_range(mach, dst.pa, dst.len)?;
        self.check_live(&dst)?;
        if len > dst.len {
            return Err(CimError::InvalidArg(format!(
                "copy of {len} bytes into {}-byte buffer",
                dst.len
            )));
        }
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
    /// [`CimError::InvalidArg`] if the copy exceeds the allocation.
    pub fn cim_dev_to_host(
        &mut self,
        mach: &mut Machine,
        dst_va: u64,
        src: DevPtr,
        len: u64,
    ) -> Result<(), CimError> {
        self.ensure_init()?;
        self.cim_sync_range(mach, src.pa, src.len)?;
        self.check_live(&src)?;
        if len > src.len {
            return Err(CimError::InvalidArg(format!(
                "copy of {len} bytes from {}-byte buffer",
                src.len
            )));
        }
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
        self.ensure_init()?;
        for p in [&a, &b, &c] {
            self.check_live(p)?;
        }
        let (a_rows, a_cols) = trans_a.stored(m, k);
        check_extent("A", &a, a_rows, a_cols, lda)?;
        // A transposed B is the engine's to reject.
        if trans_b == Transpose::No {
            check_extent("B", &b, k, n, ldb)?;
        }
        check_extent("C", &c, m, n, ldc)?;
        self.stats.gemm_calls += 1;
        self.tenant_admission(mach);
        self.device.borrow_mut().driver.ioctl(mach);
        let (region, a_resident) = self.place_stationary(&a, m, k);
        if a_resident {
            // Pinned and installed: nothing host-side touched A since,
            // so its flush would walk clean lines for nothing.
            self.device.borrow_mut().driver.flush_shared(mach, &[(b.pa, b.len), (c.pa, c.len)]);
        } else {
            self.device
                .borrow_mut()
                .driver
                .flush_shared(mach, &[(a.pa, a.len), (b.pa, b.len), (c.pa, c.len)]);
        }
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
            (Reg::Region, region.encode()),
            (Reg::Command, Command::Gemm as u64),
        ];
        {
            let mut guard = self.device.borrow_mut();
            let dev = &mut *guard;
            dev.driver.write_regs(mach, &mut dev.accel, &regs);
        }
        self.dispatch_armed(
            mach,
            Vec::new(),
            region,
            vec![(a.pa, a.len), (b.pa, b.len)],
            vec![(c.pa, c.len)],
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
        self.ensure_init()?;
        for p in [&a, &x, &y] {
            self.check_live(p)?;
        }
        let (a_rows, a_cols) = trans_a.stored(m, k);
        check_extent("A", &a, a_rows, a_cols, lda)?;
        check_extent("x", &x, k, 1, 1)?;
        check_extent("y", &y, m, 1, 1)?;
        self.stats.gemv_calls += 1;
        self.tenant_admission(mach);
        self.device.borrow_mut().driver.ioctl(mach);
        let (region, a_resident) = self.place_stationary(&a, m, k);
        if a_resident {
            self.device.borrow_mut().driver.flush_shared(mach, &[(x.pa, x.len), (y.pa, y.len)]);
        } else {
            self.device
                .borrow_mut()
                .driver
                .flush_shared(mach, &[(a.pa, a.len), (x.pa, x.len), (y.pa, y.len)]);
        }
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
            (Reg::Region, region.encode()),
            (Reg::Command, Command::Gemv as u64),
        ];
        {
            let mut guard = self.device.borrow_mut();
            let dev = &mut *guard;
            dev.driver.write_regs(mach, &mut dev.accel, &regs);
        }
        self.dispatch_armed(
            mach,
            Vec::new(),
            region,
            vec![(a.pa, a.len), (x.pa, x.len)],
            vec![(y.pa, y.len)],
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
        self.ensure_init()?;
        let count = a_list.len();
        if count == 0 || b_list.len() != count || c_list.len() != count {
            return Err(CimError::InvalidArg(format!(
                "batch lists must be equal and non-empty (a={}, b={}, c={})",
                a_list.len(),
                b_list.len(),
                c_list.len()
            )));
        }
        let mut flush = Vec::new();
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for p in a_list.iter().chain(b_list).chain(c_list) {
            self.check_live(p)?;
            flush.push((p.pa, p.len));
        }
        let (a_rows, a_cols) = trans_a.stored(m, k);
        for i in 0..count {
            check_extent(&format!("A[{i}]"), &a_list[i], a_rows, a_cols, lda)?;
            if trans_b == Transpose::No {
                check_extent(&format!("B[{i}]"), &b_list[i], k, n, ldb)?;
            }
            check_extent(&format!("C[{i}]"), &c_list[i], m, n, ldc)?;
        }
        for p in a_list.iter().chain(b_list) {
            reads.push((p.pa, p.len));
        }
        for p in c_list {
            writes.push((p.pa, p.len));
        }
        self.stats.gemm_batched_calls += 1;
        self.tenant_admission(mach);
        self.device.borrow_mut().driver.ioctl(mach);
        // Descriptor table written into a scratch CMA buffer by user space.
        let table = self.cim_malloc(mach, (count * 24) as u64)?;
        let mut raw = Vec::with_capacity(count * 24);
        for i in 0..count {
            raw.extend_from_slice(&a_list[i].pa.to_le_bytes());
            raw.extend_from_slice(&b_list[i].pa.to_le_bytes());
            raw.extend_from_slice(&c_list[i].pa.to_le_bytes());
        }
        // Host writes descriptors (cached), flushed with the operands.
        for (i, chunk) in raw.chunks_exact(8).enumerate() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            let pa = table.pa + (i * 8) as u64;
            let out = mach.hier.access(pa, 8, true);
            mach.core.stall(out.stall_cycles);
            mach.core.retire(InstClass::Store, 1);
            mach.mem.write(pa, &word);
        }
        flush.push((table.pa, table.len));
        reads.push((table.pa, table.len));
        self.device.borrow_mut().driver.flush_shared(mach, &flush);
        // The batch schedules its own elements across sub-grids inside
        // the engine; the command as a whole occupies the full grid.
        let region = GridRegion::full(self.device.borrow().accel.config().grid);
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
            (Reg::BatchCount, count as u64),
            (Reg::AddrBatch, table.pa),
            (Reg::Region, region.encode()),
            (Reg::Command, Command::GemmBatched as u64),
        ];
        {
            let mut guard = self.device.borrow_mut();
            let dev = &mut *guard;
            dev.driver.write_regs(mach, &mut dev.accel, &regs);
        }
        // The scratch table travels with the dispatch: freed after a
        // synchronous invocation (success *or* device error) or when the
        // asynchronous command is synchronized — never leaked. The reads
        // list every input operand plus the table itself, the writes
        // every output, which together are exactly the observation
        // footprint of the command.
        self.dispatch_armed(mach, vec![table], region, reads, writes)
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
        self.ensure_init()?;
        for p in [&img, &filt, &out] {
            self.check_live(p)?;
        }
        // A filter that does not fit the image is the engine's to reject.
        if fh > 0 && fw > 0 && fh <= h && fw <= w {
            let (out_h, out_w) = (h - fh + 1, w - fw + 1);
            check_extent("image", &img, h, w, w)?;
            check_extent("filter", &filt, fh, fw, fw)?;
            check_extent("output", &out, out_h, out_w, out_w)?;
        }
        self.stats.conv_calls += 1;
        self.tenant_admission(mach);
        self.device.borrow_mut().driver.ioctl(mach);
        self.device
            .borrow_mut()
            .driver
            .flush_shared(mach, &[(img.pa, img.len), (filt.pa, filt.len), (out.pa, out.len)]);
        // Convolution always runs on tile (0, 0); arm the full grid so
        // the doorbell serializes it against anything touching that tile.
        let region = GridRegion::full(self.device.borrow().accel.config().grid);
        let regs = [
            (Reg::AddrA, img.pa),
            (Reg::AddrB, filt.pa),
            (Reg::AddrC, out.pa),
            (Reg::ImgH, h as u64),
            (Reg::ImgW, w as u64),
            (Reg::FiltH, fh as u64),
            (Reg::FiltW, fw as u64),
            (Reg::Region, region.encode()),
            (Reg::Command, Command::Conv2d as u64),
        ];
        {
            let mut guard = self.device.borrow_mut();
            let dev = &mut *guard;
            dev.driver.write_regs(mach, &mut dev.accel, &regs);
        }
        // The conv kernel accumulates into its output: `out` is both
        // read and written.
        self.dispatch_armed(
            mach,
            Vec::new(),
            region,
            vec![(img.pa, img.len), (filt.pa, filt.len)],
            vec![(out.pa, out.len)],
        )
    }
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

    #[test]
    fn context_applies_driver_overrides() {
        use cim_accel::DeviceKind;
        let mach = Machine::new(MachineConfig::test_small());
        let drv = DriverConfig {
            device: Some(DeviceKind::Reram),
            tile_grid: Some((2, 2)),
            ..DriverConfig::default()
        };
        let ctx = CimContext::new(AccelConfig::test_small(), drv, &mach);
        assert_eq!(ctx.accel().config().device, DeviceKind::Reram);
        assert_eq!(ctx.accel().tiles().len(), 4);
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
