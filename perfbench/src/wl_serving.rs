//! `serving`: `CimServer` with four tenants on a 2x2 grid under
//! open-loop arrivals on the modeled clock.
//!
//! Every request installs a fresh 64x64 identity and runs one GEMV; its
//! output is checked (`y == x`, bit for bit) once the request has
//! retired, and then its buffers are freed, as a client would. An
//! iteration runs a fixed ladder of offered loads (each tenant on its
//! own tile) and then fig11's adversarial phase: one tenant floods at 4x
//! while three victims offer 0.5x, two tenants per lease region. It is
//! the only workload that reaches the serving scheduler (leases and
//! deficit-weighted admission).

use cim_accel::AccelConfig;
use cim_machine::units::SimTime;
use cim_machine::{Machine, MachineConfig};
use cim_runtime::{
    CimContext, CimError, CimServer, DevPtr, DispatchMode, DriverConfig, FairnessPolicy,
    ServePolicy, TenantConfig, Transpose,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::same_bits;
use crate::percentile;
use crate::tally::{HostCounters, Tally};
use crate::trace::Tracer;
use crate::Workload;

/// Request dimension: a 64x64 stationary install per request.
const N: usize = 64;
const TENANTS: usize = 4;
/// Offered load per tenant, as a multiple of its tile's service rate.
const LADDER: [f64; 7] = [0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5];
/// The rung whose tail latency is `serve_p99_us`.
const P99_RUNG: f64 = 0.9;
/// Requests per tenant per rung (the adversary sends eight times as
/// many in the adversarial phase).
const OPS: usize = 100;

/// One scheduled request: due time from the start of its run, tenant,
/// and the index of its input vector.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    due: SimTime,
    tenant: usize,
    x: usize,
}

/// One serving run: the arrival schedule and the server's policy.
#[derive(Debug, Clone)]
struct Plan {
    arrivals: Vec<Arrival>,
    tenants: usize,
    regions: usize,
}

/// A request in flight.
struct Pending {
    tenant: usize,
    x: usize,
    bufs: [DevPtr; 3],
    retire_at: SimTime,
}

/// Latencies of one run, per tenant, in arrival order.
struct RunOut {
    sojourn: Vec<Vec<f64>>,
    wait: Vec<Vec<f64>>,
    max_lag_ns: f64,
}

/// The set-up state: the seeded request vectors and arrival schedules,
/// and the calibrated service time they are scaled from.
pub struct Serving {
    accel: AccelConfig,
    identity: Vec<f32>,
    y_init: Vec<f32>,
    xs: Vec<Vec<f32>>,
    ladder: Vec<Plan>,
    adversarial: Plan,
    busy: SimTime,
    unloaded_ns: f64,
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Seeded open-loop arrivals: tenant `t` sends `counts[t]` requests one
/// `intervals[t]` apart, from a random phase, each delayed by up to a
/// quarter interval of jitter. Merged in due order, ties by tenant.
fn schedule(
    rng: &mut StdRng,
    xs: &mut Vec<Vec<f32>>,
    intervals: &[SimTime],
    counts: &[usize],
) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    for (t, (&iv, &count)) in intervals.iter().zip(counts).enumerate() {
        let phase = rng.gen_range(0.0..1.0);
        for i in 0..count {
            let jitter = rng.gen_range(0.0..0.25);
            let x = (0..N).map(|_| rng.gen_range(0..17) as f32 * 0.125 - 1.0).collect();
            xs.push(x);
            arrivals.push(Arrival {
                due: iv * (phase + i as f64 + jitter),
                tenant: t,
                x: xs.len() - 1,
            });
        }
    }
    arrivals.sort_by(|a, b| a.due.as_ns().total_cmp(&b.due.as_ns()).then(a.tenant.cmp(&b.tenant)));
    arrivals
}

pub fn setup(seed: u64) -> Serving {
    let mut identity = vec![0f32; N * N];
    for i in 0..N {
        identity[i * N + i] = 1.0;
    }
    let mut s = Serving {
        accel: crate::accel((2, 2)),
        identity,
        y_init: vec![9.0; N],
        xs: vec![vec![0.5; N]],
        ladder: Vec::new(),
        adversarial: Plan { arrivals: Vec::new(), tenants: TENANTS, regions: 2 },
        busy: SimTime::ZERO,
        unloaded_ns: 0.0,
    };
    // Calibrate on an idle server: one request alone gives the device's
    // service time and the unloaded sojourn the ladder is judged by.
    let lone = Plan {
        arrivals: vec![Arrival { due: SimTime::ZERO, tenant: 0, x: 0 }],
        tenants: 1,
        regions: 0,
    };
    let mut calibration = Tally::default();
    let out = s.run(&mut Tracer::new(std::time::Instant::now()), &mut calibration, &lone);
    assert_eq!(calibration.failed, 0, "calibration request failed");
    s.unloaded_ns = out.sojourn[0][0];
    s.busy = SimTime::from_ns(out.wait[0][0]);
    assert!(s.busy > SimTime::ZERO, "calibration request did not reach the device");

    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs = std::mem::take(&mut s.xs);
    s.ladder = LADDER
        .iter()
        .map(|load| Plan {
            arrivals: schedule(
                &mut rng,
                &mut xs,
                &[s.busy * (1.0 / load); TENANTS],
                &[OPS; TENANTS],
            ),
            tenants: TENANTS,
            regions: 0,
        })
        .collect();
    let mut intervals = [s.busy * 2.0; TENANTS];
    intervals[0] = s.busy * 0.25;
    let mut counts = [OPS; TENANTS];
    counts[0] = OPS * 8;
    s.adversarial.arrivals = schedule(&mut rng, &mut xs, &intervals, &counts);
    s.xs = xs;
    s
}

impl Serving {
    fn dev_mat(
        tr: &mut Tracer,
        mach: &mut Machine,
        ctx: &mut CimContext,
        data: &[f32],
    ) -> Result<DevPtr, CimError> {
        let p = tr.span("runtime.malloc", || ctx.cim_malloc(mach, (data.len() * 4) as u64))?;
        tr.span("machine", || mach.poke_f32_slice(p.va, data));
        Ok(p)
    }

    /// Allocates and fills the request's buffers and submits `y = I x`.
    fn issue(
        &self,
        tr: &mut Tracer,
        mach: &mut Machine,
        ctx: &mut CimContext,
        x: usize,
    ) -> Result<[DevPtr; 3], CimError> {
        let a = Self::dev_mat(tr, mach, ctx, &self.identity)?;
        // The host wrote the stationary operand: the coherence sync makes
        // it a fresh install instead of a hit on the tile a freed request
        // left behind at the same address.
        tr.span("runtime.h2d", || ctx.cim_sync_to_dev(mach, a))?;
        let xp = Self::dev_mat(tr, mach, ctx, &self.xs[x])?;
        let y = Self::dev_mat(tr, mach, ctx, &self.y_init)?;
        tr.span("runtime.sgemv", || {
            ctx.cim_blas_sgemv(mach, Transpose::No, N, N, 1.0, a, N, xp, 0.0, y)
        })?;
        Ok([a, xp, y])
    }

    /// Checks and frees the in-flight requests that have retired by now
    /// (all of them with `drain`), in issue order.
    fn complete(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        mach: &mut Machine,
        ctxs: &mut [CimContext],
        pending: &mut Vec<Pending>,
        drain: bool,
    ) {
        let now = mach.now();
        let (done, rest): (Vec<Pending>, Vec<Pending>) =
            pending.drain(..).partition(|p| drain || p.retire_at <= now);
        *pending = rest;
        for p in done {
            let mut y = vec![0f32; N];
            tr.span("machine", || mach.peek_f32_slice(p.bufs[2].va, &mut y));
            let mut ok = same_bits(&y, &self.xs[p.x]);
            for buf in p.bufs {
                ok &= tr.span("runtime.free", || ctxs[p.tenant].cim_free(mach, buf)).is_ok();
            }
            tally.check(ok);
        }
    }

    /// One open-loop run of `plan` on a fresh machine and server.
    fn run(&self, tr: &mut Tracer, tally: &mut Tally, plan: &Plan) -> RunOut {
        let mut mach = tr.span("machine", || Machine::new(MachineConfig::default()));
        let drv = DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() };
        let policy = ServePolicy { regions: plan.regions, fairness: FairnessPolicy::default() };
        let mut server =
            tr.span("runtime.other", || CimServer::new(self.accel, drv, policy, &mach));
        let mut ctxs: Vec<CimContext> = Vec::with_capacity(plan.tenants);
        for _ in 0..plan.tenants {
            let mut ctx = tr.span("runtime.other", || server.connect(TenantConfig::default()));
            tr.span("runtime.other", || ctx.cim_init(&mut mach, 0)).expect("cim_init cannot fail");
            ctxs.push(ctx);
        }
        let tids: Vec<_> = ctxs.iter().map(|c| c.tenant().expect("server tenant")).collect();
        let mut out = RunOut {
            sojourn: vec![Vec::new(); plan.tenants],
            wait: vec![Vec::new(); plan.tenants],
            max_lag_ns: 0.0,
        };
        let mut pending = Vec::new();
        let t0 = mach.now();
        for a in &plan.arrivals {
            let due = t0 + a.due;
            if mach.now() < due {
                let idle = due - mach.now();
                tr.span("machine", || mach.advance_host(idle));
            }
            out.max_lag_ns = out.max_lag_ns.max((mach.now() - due).as_ns());
            self.complete(tr, tally, &mut mach, &mut ctxs, &mut pending, false);
            match self.issue(tr, &mut mach, &mut ctxs[a.tenant], a.x) {
                Ok(bufs) => {
                    // The tenant's newest command retires last, so its
                    // backlog horizon is this request's retire instant.
                    let now = mach.now();
                    let wait = tr.span("runtime.other", || server.backlog_of(tids[a.tenant], now));
                    out.wait[a.tenant].push(wait.as_ns());
                    out.sojourn[a.tenant].push((now + wait - due).as_ns());
                    pending.push(Pending { tenant: a.tenant, x: a.x, bufs, retire_at: now + wait });
                }
                Err(_) => tally.check(false),
            }
        }
        for ctx in &mut ctxs {
            if tr.span("runtime.sync", || ctx.cim_sync(&mut mach)).is_err() {
                tally.check(false);
            }
        }
        self.complete(tr, tally, &mut mach, &mut ctxs, &mut pending, true);

        let span_ns = (mach.now() - t0).as_ns();
        let device = server.device();
        let dev = device.borrow();
        let accel = *dev.accel.stats();
        let drv_stats = dev.driver.stats();
        let grid = dev.accel.config().grid;
        drop(dev);
        let (mut grants, mut tile_ns) = (0, 0.0);
        for (ctx, tid) in ctxs.iter().zip(&tids) {
            let usage = server.usage(*tid);
            grants += usage.grants;
            tile_ns += usage.tile_ns;
            tally.add_runtime(ctx.stats());
        }
        tally.add_serving(grants, tile_ns, span_ns * (grid.0 * grid.1) as f64);
        tally.add_machine(&mach);
        tally.add_run(
            HostCounters::from_machine(&mach),
            Some(&drv_stats),
            Some(&accel),
            None,
            mach.core.energy() + accel.total_energy(),
        );
        out
    }
}

impl Workload for Serving {
    fn iteration(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let limit_ns = 2.0 * self.unloaded_ns;
        let mut max_load = 0.0f64;
        for (plan, &load) in self.ladder.iter().zip(&LADDER) {
            let out = self.run(tr, tally, plan);
            let worst_p99 = out.sojourn.iter().map(|s| percentile(s, 0.99)).fold(0.0, f64::max);
            // The backlog grows when a tenant's last quarter of requests
            // waits a service time longer than its first quarter did.
            let grows = out.sojourn.iter().any(|s| {
                let q = s.len() / 4;
                q > 0 && mean(&s[s.len() - q..]) > mean(&s[..q]) + self.busy.as_ns()
            });
            if worst_p99 <= limit_ns && !grows {
                max_load = max_load.max(load);
            }
            if load == P99_RUNG {
                tally.extra.insert("serve_p99_us", worst_p99 / 1e3);
                tally.extra.insert("serve_gen_lag_us", out.max_lag_ns / 1e3);
            }
        }
        tally.extra.insert("serve_max_load_x", max_load);
        let out = self.run(tr, tally, &self.adversarial);
        // Leases go out in connect order over the regions, so tenant
        // `regions` is the first to share the adversary's region.
        let victim = self.adversarial.regions.min(TENANTS - 1);
        tally.extra.insert("victim_p99_us", percentile(&out.wait[victim], 0.99) / 1e3);
    }
}
