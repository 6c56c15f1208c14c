//! Fault injection on the serving layer: tenants leave mid-flight and
//! the submission queue overflows, and the blast radius must stay
//! confined to the tenant that caused it. A disconnecting tenant's
//! in-flight commands are synchronized and its doorbells claimed — the
//! shared reactor never leaks an unclaimed doorbell to the survivors —
//! its lease is reclaimed for the next tenant, and the survivors'
//! results are untouched. Queue-full backpressure lands on the flooding
//! tenant's own `queue_full_stalls` ledger, never the victim's.

use cim_accel::AccelConfig;
use cim_machine::{Machine, MachineConfig};
use cim_runtime::{
    CimContext, CimServer, DevPtr, DispatchMode, DriverConfig, ServePolicy, TenantConfig, Transpose,
};

const N: usize = 8;

fn fill(len: usize, seed: usize, scale: f32) -> Vec<f32> {
    (0..len).map(|i| ((seed + i * 7) % 13) as f32 * scale - 1.5).collect()
}

fn identity(n: usize) -> Vec<f32> {
    let mut a = vec![0f32; n * n];
    for i in 0..n {
        a[i * n + i] = 1.0;
    }
    a
}

fn dev_mat(ctx: &mut CimContext, mach: &mut Machine, data: &[f32]) -> DevPtr {
    let dev = ctx.cim_malloc(mach, (data.len() * 4) as u64).expect("malloc");
    mach.poke_f32_slice(dev.va, data);
    dev
}

/// One identity GEMV: `y = I * x`, so the expected result is `x`
/// itself, bit for bit — corruption by a neighbor's fault would show.
fn issue_identity_op(ctx: &mut CimContext, mach: &mut Machine, seed: usize) -> (DevPtr, Vec<f32>) {
    let a = dev_mat(ctx, mach, &identity(N));
    let x_data = fill(N, seed, 0.125);
    let x = dev_mat(ctx, mach, &x_data);
    let y = dev_mat(ctx, mach, &fill(N, seed + 1, 0.5));
    ctx.cim_blas_sgemv(mach, Transpose::No, N, N, 1.0, a, N, x, 0.0, y).expect("gemv");
    (y, x_data)
}

fn assert_bits(mach: &mut Machine, y: DevPtr, want: &[f32]) {
    let mut got = vec![0f32; want.len()];
    mach.peek_f32_slice(y.va, &mut got);
    let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "survivor result corrupted");
}

/// A tenant disconnects with commands still in flight: its doorbells
/// are claimed on the way out, its lease is reclaimed and handed to the
/// next tenant, and the survivors' in-flight work completes bit-exact.
#[test]
fn disconnect_mid_flight_reclaims_lease_without_losing_doorbells() {
    let mut mach = Machine::new(MachineConfig::test_small());
    let mut server = CimServer::new(
        AccelConfig::test_small().with_grid(2, 1),
        DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() },
        ServePolicy { regions: 2, ..Default::default() },
        &mach,
    );
    let mut leaver = server.connect(TenantConfig::default());
    let mut survivor = server.connect(TenantConfig::default());
    leaver.cim_init(&mut mach, 0).expect("init");
    survivor.cim_init(&mut mach, 0).expect("init");
    let leaver_tid = leaver.tenant().expect("tenant");

    // Both tenants put several commands in flight.
    for i in 0..3 {
        issue_identity_op(&mut leaver, &mut mach, 100 + i * 7);
    }
    let survivor_results: Vec<(DevPtr, Vec<f32>)> =
        (0..3).map(|i| issue_identity_op(&mut survivor, &mut mach, 500 + i * 7)).collect();
    assert!(
        server.device().borrow().driver.reactor().in_flight() > 0,
        "the fault must hit mid-flight"
    );
    assert!(server.lease_of(leaver_tid).is_some(), "leaver holds a lease before the fault");

    // Mid-flight disconnect: the leaver's own doorbells are claimed on
    // the way out, everything it allocated is released, its lease gone.
    server.disconnect(&mut mach, leaver).expect("disconnect");
    assert_eq!(server.lease_of(leaver_tid), None, "lease reclaimed");
    assert_eq!(survivor.pending_commands(), 3, "the leaver claimed only its own commands");

    // A late joiner picks up the freed region rather than doubling up.
    let mut joiner = server.connect(TenantConfig::default());
    joiner.cim_init(&mut mach, 0).expect("init");
    let (y_joiner, x_joiner) = issue_identity_op(&mut joiner, &mut mach, 900);
    let joiner_tid = joiner.tenant().expect("tenant");
    joiner.cim_sync(&mut mach).expect("sync");
    let survivor_lease = server.lease_of(survivor.tenant().expect("tenant")).expect("lease");
    let joiner_lease = server.lease_of(joiner_tid).expect("lease");
    assert!(!joiner_lease.overlaps(&survivor_lease), "joiner reuses the reclaimed region");

    // Survivors drain: results bit-exact, no doorbell lost or leaked.
    survivor.cim_sync(&mut mach).expect("sync");
    for (y, want) in &survivor_results {
        assert_bits(&mut mach, *y, want);
    }
    assert_bits(&mut mach, y_joiner, &x_joiner);
    let dev = server.device();
    let dev = dev.borrow();
    assert_eq!(dev.driver.reactor().unclaimed(), 0, "no orphaned doorbells");
    assert_eq!(dev.driver.reactor().in_flight(), 0, "everything retired");
}

/// Ring-full backpressure is attributed to the tenant whose submission
/// stalled: the flooding tenant's `queue_full_stalls` ledger carries
/// every stall the shared driver saw, and the victim's stays zero.
#[test]
fn queue_full_backpressure_lands_on_the_flooding_tenant() {
    let mut mach = Machine::new(MachineConfig::test_small());
    let mut server = CimServer::new(
        AccelConfig::test_small().with_grid(1, 1),
        DriverConfig {
            dispatch: DispatchMode::Async,
            queue_capacity: 2,
            ..DriverConfig::default()
        },
        ServePolicy::default(),
        &mach,
    );
    let mut adversary = server.connect(TenantConfig::default());
    let mut victim = server.connect(TenantConfig::default());
    adversary.cim_init(&mut mach, 0).expect("init");
    victim.cim_init(&mut mach, 0).expect("init");

    // Eight async installs against two ring slots: the flood stalls on
    // its own submissions...
    let adv_results: Vec<(DevPtr, Vec<f32>)> =
        (0..8).map(|i| issue_identity_op(&mut adversary, &mut mach, 100 + i * 7)).collect();
    assert!(adversary.stats().queue_full_stalls > 0, "a flood against a 2-slot ring must stall");
    adversary.cim_sync(&mut mach).expect("sync");

    // ...and the victim, submitting into the drained ring, never pays.
    let (y, want) = issue_identity_op(&mut victim, &mut mach, 900);
    victim.cim_sync(&mut mach).expect("sync");
    assert_eq!(victim.stats().queue_full_stalls, 0, "backpressure leaked onto the victim");

    // Conservation: the shared driver's stall count is exactly the sum
    // of the per-tenant ledgers.
    let total = server.device().borrow().driver.stats().queue_full_stalls;
    assert_eq!(
        total,
        adversary.stats().queue_full_stalls + victim.stats().queue_full_stalls,
        "driver stalls must be fully attributed"
    );
    for (y_adv, want_adv) in &adv_results {
        assert_bits(&mut mach, *y_adv, want_adv);
    }
    assert_bits(&mut mach, y, &want);
}
