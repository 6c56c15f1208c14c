//! Boundary cases of the buffer-scoped doorbell
//! (`CimContext::cim_sync_range`): adjacent-but-disjoint physical
//! ranges must not sync, zero-length ranges never sync, a range
//! spanning several pending commands syncs them all, a range running
//! past `u64::MAX` reaches the end of memory — and `cim_free` rides the
//! same selective path instead of sweeping the whole queue.

use cim_accel::AccelConfig;
use cim_machine::{Machine, MachineConfig};
use cim_runtime::{CimContext, DevPtr, DispatchMode, DriverConfig, Transpose};
use proptest::prelude::*;

fn setup() -> (Machine, CimContext) {
    let mach = Machine::new(MachineConfig::test_small());
    let drv = DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() };
    let ctx = CimContext::new(AccelConfig::test_small(), drv, &mach);
    (mach, ctx)
}

fn dev_mat(ctx: &mut CimContext, mach: &mut Machine, data: &[f32]) -> DevPtr {
    let dev = ctx.cim_malloc(mach, (data.len() * 4) as u64).expect("malloc");
    mach.poke_f32_slice(dev.va, data);
    dev
}

/// Submits one async 2x2 GEMM over fresh `a`/`b`/`c` buffers and
/// returns them (the command's observation footprint).
fn submit_gemm(ctx: &mut CimContext, mach: &mut Machine) -> [DevPtr; 3] {
    let a = dev_mat(ctx, mach, &[1.0, 0.0, 0.0, 1.0]);
    let b = dev_mat(ctx, mach, &[1.0, 2.0, 3.0, 4.0]);
    let c = dev_mat(ctx, mach, &[0.0; 4]);
    ctx.cim_blas_sgemm(mach, Transpose::No, Transpose::No, 2, 2, 2, 1.0, a, 2, b, 2, 0.0, c, 2)
        .expect("submits");
    [a, b, c]
}

#[test]
fn zero_length_range_syncs_nothing() {
    let (mut mach, mut ctx) = setup();
    ctx.cim_init(&mut mach, 0).expect("init");
    let [a, _, c] = submit_gemm(&mut ctx, &mut mach);
    assert_eq!(ctx.pending_commands(), 1);
    for pa in [c.pa, c.pa + 4, a.pa, 0] {
        ctx.cim_sync_range(&mut mach, pa, 0).expect("sync");
        assert_eq!(ctx.pending_commands(), 1, "zero-length range at {pa:#x} must not sync");
    }
    assert_eq!(ctx.stats().selective_sync_skips, 4);
}

#[test]
fn adjacent_but_disjoint_range_does_not_sync() {
    let (mut mach, mut ctx) = setup();
    ctx.cim_init(&mut mach, 0).expect("init");
    let [_, _, c] = submit_gemm(&mut ctx, &mut mach);
    // A spacer guarantees the bytes just past `c` belong to no command.
    let _spacer = ctx.cim_malloc(&mut mach, 64).expect("spacer");
    // One byte past the end: disjoint, stays in flight.
    ctx.cim_sync_range(&mut mach, c.pa + c.len, 4).expect("sync");
    assert_eq!(ctx.pending_commands(), 1, "adjacent range must not sync");
    assert_eq!(ctx.stats().selective_sync_skips, 1);
    // Straddling the last byte: overlaps, syncs.
    ctx.cim_sync_range(&mut mach, c.pa + c.len - 4, 8).expect("sync");
    assert_eq!(ctx.pending_commands(), 0, "straddling range must sync");
}

#[test]
fn range_spanning_two_commands_syncs_both() {
    let (mut mach, mut ctx) = setup();
    ctx.cim_init(&mut mach, 0).expect("init");
    let [.., c1] = submit_gemm(&mut ctx, &mut mach);
    let [.., c2] = submit_gemm(&mut ctx, &mut mach);
    assert_eq!(ctx.pending_commands(), 2);
    // A range whose ends lie in the two output buffers: both commands
    // observe overlap and complete.
    let start = c1.pa + c1.len - 4;
    let len = c2.pa + 4 - start;
    ctx.cim_sync_range(&mut mach, start, len).expect("sync");
    assert_eq!(ctx.pending_commands(), 0, "spanning range must sync both");
}

#[test]
fn free_of_disjoint_buffer_leaves_commands_in_flight() {
    // The ISSUE-5 satellite pinned: `cim_free` is buffer-scoped, not a
    // full-queue sweep — freeing a buffer no in-flight command touches
    // skips them all (and the skip is counted).
    let (mut mach, mut ctx) = setup();
    ctx.cim_init(&mut mach, 0).expect("init");
    let unrelated = ctx.cim_malloc(&mut mach, 128).expect("malloc");
    let [.., c] = submit_gemm(&mut ctx, &mut mach);
    assert_eq!(ctx.pending_commands(), 1);
    ctx.cim_free(&mut mach, unrelated).expect("free");
    assert_eq!(ctx.pending_commands(), 1, "free of a disjoint buffer must not sync");
    assert_eq!(ctx.stats().selective_sync_skips, 1);
    // Freeing an actual operand completes the command first.
    ctx.cim_free(&mut mach, c).expect("free operand");
    assert_eq!(ctx.pending_commands(), 0);
}

/// A range whose end passes `u64::MAX` reaches the end of the address
/// space, so it overlaps an in-flight command whose operands lie above
/// its start: the command is claimed, not left running while the caller
/// goes on as if it had been synchronized.
#[test]
fn range_to_the_end_of_memory_syncs_overlapping_command() {
    let (mut mach, mut ctx) = setup();
    ctx.cim_init(&mut mach, 0).expect("init");
    let a = dev_mat(&mut ctx, &mut mach, &[1.0, 0.0, 0.0, 1.0]);
    let x = dev_mat(&mut ctx, &mut mach, &[2.0, 3.0]);
    let y = dev_mat(&mut ctx, &mut mach, &[0.0; 2]);
    ctx.cim_blas_sgemv(&mut mach, Transpose::No, 2, 2, 1.0, a, 2, x, 0.0, y).expect("submits");
    assert_eq!(ctx.pending_commands(), 1);
    ctx.cim_sync_range(&mut mach, a.pa, u64::MAX).expect("sync");
    assert_eq!(ctx.pending_commands(), 0, "a range to the end of memory must sync the GEMV");
    assert_eq!(ctx.stats().selective_sync_skips, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary command counts and query ranges, `cim_sync_range`
    /// completes exactly the commands whose operand ranges overlap the
    /// query — no more, no fewer — and counts every command it skips.
    #[test]
    fn sync_range_is_exactly_overlap_scoped(
        count in 1usize..4,
        pick in 0usize..3,
        byte_off in 0u64..160,
        len in 0u64..96,
    ) {
        let (mut mach, mut ctx) = setup();
        ctx.cim_init(&mut mach, 0).expect("init");
        let footprints: Vec<[DevPtr; 3]> =
            (0..count).map(|_| submit_gemm(&mut ctx, &mut mach)).collect();
        prop_assert_eq!(ctx.pending_commands(), count);
        // Anchor the query near one command's footprint so overlap and
        // disjointness both occur across cases.
        let base = footprints[pick.min(count - 1)][0].pa;
        let start = base.saturating_add(byte_off).saturating_sub(64);
        let overlap = |p: &DevPtr| len > 0 && start < p.pa + p.len && p.pa < start + len;
        let expect_left: usize =
            footprints.iter().filter(|f| !f.iter().any(&overlap)).count();
        let skips_before = ctx.stats().selective_sync_skips;
        ctx.cim_sync_range(&mut mach, start, len).expect("sync");
        prop_assert_eq!(ctx.pending_commands(), expect_left);
        prop_assert_eq!(
            ctx.stats().selective_sync_skips - skips_before,
            expect_left as u64
        );
    }
}
