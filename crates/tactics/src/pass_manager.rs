//! The compiler pass pipeline.
//!
//! The compiler used to be two hard-wired stages: the monolithic
//! [`LoopTactics`] pass, then an all-or-nothing run of the offload
//! dataflow graph. This module restructures it as an explicit pass
//! manager: every stage is a [`CompilerPass`] running over a shared
//! [`PassCtx`], the [`PassManager`] executes a configurable pass list,
//! and each stage returns a [`PassReport`] of what it changed — the
//! per-pass reporting surfaced by `CompiledProgram` and the figure
//! binaries.
//!
//! The default pipeline, in order:
//!
//! 1. [`DetectOffloadPass`] — Loop Tactics: match kernels on the
//!    schedule tree, fuse, consult the offload policy, and lower the
//!    accepted subtrees to `polly_cim*` runtime calls.
//! 2. [`SyncHoistPass`] — sink each `polly_cimDevToHost` past
//!    subsequent independent statements, widening the async overlap
//!    window.
//! 3. [`ElideSyncsPass`] — remove `polly_cimHostToDev` syncs whose
//!    array the host provably has not written since its previous sync.
//! 4. [`PinPlacementPass`] — capacity-aware residency placement: score
//!    each reused stationary operand with the residency-aware cost
//!    model, and pin as many as the tile grid can hold concurrently,
//!    spilling the least valuable candidates.
//!
//! Ordering constraints: detection must run first (the graph passes
//! operate on the emitted runtime calls); elision must precede pin
//! placement (a kept h2d fences a reuse window, so placement must see
//! the post-elision schedule); hoisting is independent of the other
//! graph passes but runs before them so their walks see the final
//! statement order. Adding a pass means implementing [`CompilerPass`]
//! and inserting it into the list — passes communicate only through
//! [`PassCtx`], so a new pass composes with the existing ones without
//! touching them.

use crate::graph::{OffloadGraph, PinCandidate};
use crate::pass::{LoopTactics, OffloadReport, TacticsConfig};
use crate::policy::CostModel;
use cim_accel::estimate::estimate_gemm;
use std::collections::BTreeMap;
use std::fmt;
use tdo_ir::Program;
use tdo_poly::codegen::rebuild_program;
use tdo_poly::scop::Scop;

/// Identifier of a built-in pipeline stage, for configuring pass lists
/// (ablation axes, the legacy detect-only pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassId {
    /// Loop Tactics detection, fusion, and offload lowering.
    DetectOffload,
    /// d2h sync sinking past independent statements.
    SyncHoist,
    /// Redundant h2d sync elision.
    ElideSyncs,
    /// Capacity-aware stationary-operand pin placement.
    PlacePins,
}

impl PassId {
    /// The full default pipeline, in execution order.
    pub fn all() -> &'static [PassId] {
        &[PassId::DetectOffload, PassId::SyncHoist, PassId::ElideSyncs, PassId::PlacePins]
    }

    fn instantiate(self) -> Box<dyn CompilerPass> {
        match self {
            PassId::DetectOffload => Box::new(DetectOffloadPass),
            PassId::SyncHoist => Box::new(SyncHoistPass),
            PassId::ElideSyncs => Box::new(ElideSyncsPass),
            PassId::PlacePins => Box::new(PinPlacementPass),
        }
    }
}

/// What one pass did to the program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassReport {
    /// Pass name (stable identifier, e.g. `"pin-placement"`).
    pub name: String,
    /// Whether the pass modified the program.
    pub changed: bool,
    /// One-line human summary of what happened.
    pub summary: String,
    /// Named counters (e.g. `hoisted_syncs`, `pins`, `spills`).
    pub counters: BTreeMap<String, u64>,
}

impl PassReport {
    fn new(name: &str) -> Self {
        PassReport { name: name.into(), ..PassReport::default() }
    }

    fn count(&mut self, key: &str, value: u64) {
        self.counters.insert(key.into(), value);
    }

    /// A named counter's value (0 when the pass did not record it).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<16} changed={:<5} {}", self.name, self.changed, self.summary)?;
        if !self.counters.is_empty() {
            let parts: Vec<String> =
                self.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            write!(f, " [{}]", parts.join(" "))?;
        }
        Ok(())
    }
}

/// The state a pipeline run threads through its passes.
#[derive(Debug)]
pub struct PassCtx<'a> {
    /// The IR straight out of the front-end.
    pub source: &'a Program,
    /// The extracted SCoP, when the program has one.
    pub scop: Option<&'a Scop>,
    /// The program being transformed (starts as a copy of `source`).
    pub prog: Program,
    /// The Loop Tactics report, once detection has run.
    pub offload: Option<OffloadReport>,
    /// Shared configuration (policy, fusion, cost model, device).
    pub cfg: &'a TacticsConfig,
}

impl<'a> PassCtx<'a> {
    /// A fresh context over a front-end program.
    pub fn new(source: &'a Program, scop: Option<&'a Scop>, cfg: &'a TacticsConfig) -> Self {
        PassCtx { source, scop, prog: source.clone(), offload: None, cfg }
    }

    /// Whether detection ran and offloaded at least one kernel — the
    /// graph passes are no-ops otherwise.
    pub fn any_offloaded(&self) -> bool {
        self.offload.as_ref().is_some_and(|r| r.any_offloaded())
    }
}

/// One stage of the compiler pipeline.
pub trait CompilerPass {
    /// Stable pass name (used in reports and ablation flags).
    fn name(&self) -> &'static str;
    /// Transforms `ctx.prog` in place and reports what changed.
    fn run(&self, ctx: &mut PassCtx) -> PassReport;
}

/// Runs a configured list of passes in order.
pub struct PassManager {
    passes: Vec<Box<dyn CompilerPass>>,
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PassManager").field("passes", &names).finish()
    }
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::from_ids(PassId::all())
    }
}

impl PassManager {
    /// A manager over the given built-in stages, in the given order.
    pub fn from_ids(ids: &[PassId]) -> Self {
        PassManager { passes: ids.iter().map(|id| id.instantiate()).collect() }
    }

    /// The names of the configured passes, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass over the context, collecting one report each.
    pub fn run(&self, ctx: &mut PassCtx) -> Vec<PassReport> {
        self.passes.iter().map(|p| p.run(ctx)).collect()
    }
}

/// A [`PassReport`] for a graph pass that had nothing to do.
fn untouched(name: &str, why: &str) -> PassReport {
    PassReport { name: name.into(), changed: false, summary: why.into(), ..PassReport::default() }
}

/// Stage 1: Loop Tactics detection, fusion, and offload lowering.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectOffloadPass;

impl CompilerPass for DetectOffloadPass {
    fn name(&self) -> &'static str {
        "detect-offload"
    }

    fn run(&self, ctx: &mut PassCtx) -> PassReport {
        let mut report = PassReport::new(self.name());
        let Some(scop) = ctx.scop else {
            report.summary = "no static control part".into();
            return report;
        };
        let (tree, offload) = LoopTactics::new(ctx.cfg.clone()).run(ctx.source, scop);
        ctx.prog = rebuild_program(ctx.source, scop, &tree);
        let offloaded = offload.kernels.iter().filter(|k| k.offloaded).count();
        report.changed = offloaded > 0;
        report.summary = format!(
            "{} kernel(s) matched, {} offloaded, {} fused group(s)",
            offload.kernels.len(),
            offloaded,
            offload.fused_groups
        );
        report.count("kernels_matched", offload.kernels.len() as u64);
        report.count("kernels_offloaded", offloaded as u64);
        report.count("fused_groups", offload.fused_groups as u64);
        ctx.offload = Some(offload);
        report
    }
}

/// Stage 2: sink `polly_cimDevToHost` observation points past
/// independent statements.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncHoistPass;

impl CompilerPass for SyncHoistPass {
    fn name(&self) -> &'static str {
        "sync-hoist"
    }

    fn run(&self, ctx: &mut PassCtx) -> PassReport {
        if !ctx.any_offloaded() {
            return untouched(self.name(), "nothing offloaded");
        }
        let mut graph = OffloadGraph::build(&ctx.prog);
        let (moved, distance) = graph.hoist_syncs();
        ctx.prog.body = graph.into_body();
        let mut report = PassReport::new(self.name());
        report.changed = moved > 0;
        report.summary = format!("{moved} d2h sync(s) sunk, total distance {distance}");
        report.count("hoisted_syncs", moved as u64);
        report.count("hoist_distance", distance as u64);
        report
    }
}

/// Stage 3: elide `polly_cimHostToDev` syncs whose array the host has
/// provably not written since its previous sync.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElideSyncsPass;

impl CompilerPass for ElideSyncsPass {
    fn name(&self) -> &'static str {
        "elide-syncs"
    }

    fn run(&self, ctx: &mut PassCtx) -> PassReport {
        if !ctx.any_offloaded() {
            return untouched(self.name(), "nothing offloaded");
        }
        let mut graph = OffloadGraph::build(&ctx.prog);
        let elided = graph.elide_syncs();
        ctx.prog.body = graph.into_body();
        let mut report = PassReport::new(self.name());
        report.changed = elided > 0;
        report.summary = format!("{elided} redundant h2d sync(s) elided");
        report.count("elided_syncs", elided as u64);
        report
    }
}

/// The placement decision over a set of pin candidates.
#[derive(Debug, Clone, Default)]
pub struct PinPlan {
    /// Candidates accepted for pinning, in schedule order.
    pub accepted: Vec<PinCandidate>,
    /// Candidates spilled because the grid could not hold them alongside
    /// more valuable concurrent pins.
    pub spilled: Vec<PinCandidate>,
    /// Tile capacity of the grid the plan was made against.
    pub capacity_tiles: usize,
}

/// Tiles a candidate's stationary operand occupies while pinned: one
/// for a single-block operand (the only shape tile residency can keep
/// across kernels), the whole grid for anything larger or unknown.
fn footprint_tiles(c: &PinCandidate, cost: &CostModel) -> usize {
    let capacity = cost.accel.grid.0 * cost.accel.grid.1;
    match c.dims {
        Some((m, _, k)) if cost.single_block(m, k) => 1,
        _ => capacity,
    }
}

/// Predicted energy saved by pinning a candidate: the install cost
/// avoided on each of its `uses - 1` warm calls. Unknown-extent
/// candidates score zero — they are the first to spill.
fn candidate_value_pj(c: &PinCandidate, cost: &CostModel) -> f64 {
    let Some((m, n, k)) = c.dims else { return 0.0 };
    if !cost.single_block(m, k) {
        return 0.0;
    }
    let cold = estimate_gemm(&cost.accel, &cost.bus, m, n, k, false, false);
    let warm = estimate_gemm(&cost.accel, &cost.bus, m, n, k, false, true);
    (c.uses as f64 - 1.0) * (cold.total_energy().as_pj() - warm.total_energy().as_pj())
}

/// Capacity-aware pin selection: accepts candidates greedily by
/// descending predicted install saving, rejecting any whose footprint
/// would push the tiles held by *concurrently live* accepted pins over
/// the grid's capacity. Liveness is the candidate's first-to-last-use
/// interval; pins whose intervals do not overlap share tiles freely
/// (the runtime recycles dead pins' regions).
pub fn plan_pins(candidates: &[PinCandidate], cost: &CostModel) -> PinPlan {
    let capacity = cost.accel.grid.0 * cost.accel.grid.1;
    let mut scored: Vec<(f64, usize, PinCandidate)> = candidates
        .iter()
        .map(|c| (candidate_value_pj(c, cost), footprint_tiles(c, cost), *c))
        .collect();
    // Highest value first; schedule order breaks ties deterministically.
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.2.first_idx.cmp(&b.2.first_idx))
    });
    let mut plan = PinPlan { capacity_tiles: capacity, ..PinPlan::default() };
    let mut held: Vec<(usize, PinCandidate)> = Vec::new(); // (tiles, candidate)
    for (_, tiles, c) in scored {
        let concurrent: usize = held
            .iter()
            .filter(|(_, a)| a.first_idx <= c.last_idx && c.first_idx <= a.last_idx)
            .map(|(t, _)| *t)
            .sum();
        if concurrent + tiles <= capacity {
            held.push((tiles, c));
            plan.accepted.push(c);
        } else {
            plan.spilled.push(c);
        }
    }
    plan.accepted.sort_by_key(|c| c.first_idx);
    plan.spilled.sort_by_key(|c| c.first_idx);
    plan
}

/// Stage 4: capacity-aware residency placement — pin the reused
/// stationary operands the grid can hold, spill the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct PinPlacementPass;

impl CompilerPass for PinPlacementPass {
    fn name(&self) -> &'static str {
        "pin-placement"
    }

    fn run(&self, ctx: &mut PassCtx) -> PassReport {
        if !ctx.any_offloaded() {
            return untouched(self.name(), "nothing offloaded");
        }
        let mut graph = OffloadGraph::build(&ctx.prog);
        let candidates = graph.pin_candidates();
        let plan = plan_pins(&candidates, &ctx.cfg.cost);
        let pins = graph.insert_pins(&plan.accepted);
        ctx.prog.body = graph.into_body();
        let mut report = PassReport::new(self.name());
        report.changed = pins > 0;
        report.summary = format!(
            "{} candidate(s): {} pinned, {} spilled (grid capacity {} tile(s))",
            candidates.len(),
            pins,
            plan.spilled.len(),
            plan.capacity_tiles
        );
        report.count("candidates", candidates.len() as u64);
        report.count("pins", pins as u64);
        report.count("spills", plan.spilled.len() as u64);
        report.count("capacity_tiles", plan.capacity_tiles as u64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdo_ir::printer::print_program;
    use tdo_lang::compile;
    use tdo_poly::scop::extract;

    fn run_pipeline(src: &str, cfg: &TacticsConfig, ids: &[PassId]) -> (Program, Vec<PassReport>) {
        let prog = compile(src).expect("compiles");
        let scop = extract(&prog).expect("affine");
        let mut ctx = PassCtx::new(&prog, Some(&scop), cfg);
        let reports = PassManager::from_ids(ids).run(&mut ctx);
        (ctx.prog, reports)
    }

    const SHARED_A: &str = r#"
        const int N = 8;
        float A[N][N]; float B[N][N]; float C[N][N]; float D[N][N]; float s[N];
        void kernel() {
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                C[i][j] += A[i][k] * B[k][j];
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                D[i][j] += A[i][k] * B[k][j];
          for (int i = 0; i < N; i++)
            s[i] = s[i] + 1.0;
        }
    "#;

    fn unfused() -> TacticsConfig {
        TacticsConfig { fusion: false, ..TacticsConfig::default() }
    }

    #[test]
    fn full_pipeline_reproduces_the_legacy_dataflow_schedule() {
        let cfg = unfused();
        let (prog, reports) = run_pipeline(SHARED_A, &cfg, PassId::all());
        let text = print_program(&prog);
        assert_eq!(text.matches("polly_cimHostToDev(cim_A)").count(), 1, "{text}");
        assert_eq!(text.matches("polly_cimPin(cim_A)").count(), 1, "{text}");
        assert_eq!(reports.len(), 4);
        assert_eq!(
            reports.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            ["detect-offload", "sync-hoist", "elide-syncs", "pin-placement"]
        );
        assert!(reports[1].counter("hoisted_syncs") >= 1, "{}", reports[1]);
        assert!(reports[2].counter("elided_syncs") >= 2, "{}", reports[2]);
        assert_eq!(reports[3].counter("pins"), 1, "{}", reports[3]);
        assert_eq!(reports[3].counter("spills"), 0, "{}", reports[3]);
    }

    #[test]
    fn detect_only_pipeline_keeps_the_conservative_schedule() {
        let cfg = unfused();
        let (prog, reports) = run_pipeline(SHARED_A, &cfg, &[PassId::DetectOffload]);
        let text = print_program(&prog);
        assert_eq!(text.matches("polly_cimHostToDev(cim_A)").count(), 2, "{text}");
        assert!(!text.contains("polly_cimPin"), "{text}");
        assert_eq!(reports.len(), 1);
        assert!(reports[0].changed);
    }

    #[test]
    fn graph_passes_are_noops_without_offload() {
        let src = r#"
            float A[8];
            void kernel() {
              for (int i = 0; i < 8; i++)
                A[i] = A[i] * 2.0;
            }
        "#;
        let (prog, reports) = run_pipeline(src, &TacticsConfig::default(), PassId::all());
        assert!(!print_program(&prog).contains("polly_cim"));
        assert!(reports.iter().skip(1).all(|r| !r.changed), "{reports:?}");
    }

    #[test]
    fn plan_spills_least_valuable_when_capacity_exceeded() {
        let mut cost = CostModel::default();
        cost.accel = cost.accel.with_grid(1, 1); // capacity: 1 tile
                                                 // Two single-block candidates with overlapping live intervals;
                                                 // the second is reused more, so it wins the only tile.
        let a = PinCandidate {
            array: tdo_ir::ArrayId(0),
            first_idx: 0,
            last_idx: 6,
            uses: 2,
            dims: Some((8, 8, 8)),
        };
        let b = PinCandidate {
            array: tdo_ir::ArrayId(1),
            first_idx: 1,
            last_idx: 7,
            uses: 4,
            dims: Some((8, 8, 8)),
        };
        let plan = plan_pins(&[a, b], &cost);
        assert_eq!(plan.capacity_tiles, 1);
        assert_eq!(plan.accepted, vec![b]);
        assert_eq!(plan.spilled, vec![a]);
    }

    #[test]
    fn disjoint_intervals_share_the_grid() {
        let mut cost = CostModel::default();
        cost.accel = cost.accel.with_grid(1, 1);
        let a = PinCandidate {
            array: tdo_ir::ArrayId(0),
            first_idx: 0,
            last_idx: 2,
            uses: 2,
            dims: Some((8, 8, 8)),
        };
        let b = PinCandidate {
            array: tdo_ir::ArrayId(1),
            first_idx: 3,
            last_idx: 5,
            uses: 2,
            dims: Some((8, 8, 8)),
        };
        let plan = plan_pins(&[a, b], &cost);
        assert_eq!(plan.accepted.len(), 2, "sequential pins both fit: {plan:?}");
        assert!(plan.spilled.is_empty());
    }

    #[test]
    fn multi_tile_candidates_occupy_the_full_grid() {
        let mut cost = CostModel::default();
        cost.accel = cost.accel.with_grid(2, 2);
        // A 1024x1024 operand exceeds one 256x256 tile: full-grid
        // footprint, zero predicted saving.
        let big = PinCandidate {
            array: tdo_ir::ArrayId(0),
            first_idx: 0,
            last_idx: 4,
            uses: 3,
            dims: Some((1024, 8, 1024)),
        };
        let small = PinCandidate {
            array: tdo_ir::ArrayId(1),
            first_idx: 1,
            last_idx: 5,
            uses: 2,
            dims: Some((8, 8, 8)),
        };
        let plan = plan_pins(&[big, small], &cost);
        assert_eq!(plan.accepted, vec![small], "{plan:?}");
        assert_eq!(plan.spilled, vec![big]);
    }
}
