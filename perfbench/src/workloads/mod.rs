//! The three workloads and what they share.
//!
//! All of them run on `presets::dynaplasia()` at batch 1, seq 16, with
//! the default single solve worker and one client thread in a closed
//! loop. Each builds its whole op sequence from the seed before timing.

mod cold_compile;
mod decode;
mod warm_serve;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cmswitch_arch::{presets, DualModeArch};
use cmswitch_core::verify::{
    CapacityLint, DependenceLint, FlowPlanLint, ModeIntervalLint, ParallelRaceLint,
};
use cmswitch_core::{
    AllocationCache, CompileError, CompiledProgram, CompilerOptions, EmitStage, Lint, LowerStage,
    PartitionStage, PipelineCx, SegmentStage,
};
use cmswitch_graph::Graph;
use cmswitch_metaop::{walk_flow, FlowEvent};
use cmswitch_models::registry;
use cmswitch_sim::EngineReport;

use crate::golden::SimLine;
use crate::host::HostTime;
use crate::trace::Tracer;

pub use cold_compile::ColdCompile;
pub use decode::Decode;
pub use warm_serve::WarmServe;

/// Registry batch size and sequence length of every workload.
const BATCH: usize = 1;
const SEQ: usize = 16;

/// What one op reports back to the runner.
#[derive(Debug, Default)]
pub struct OpReport {
    /// Host time of the timed part of the op.
    pub host: HostTime,
    /// Why the op failed its output checks, if it did.
    pub failure: Option<String>,
    /// Counters, summed over the pass and reported per op.
    pub counts: BTreeMap<&'static str, f64>,
    /// Layer timings (ms) measured around public calls, reported as
    /// the median over ops.
    pub times: BTreeMap<&'static str, f64>,
    /// Simulated `(cycles, energy_pj)` per program; the run reports
    /// the sum over distinct keys.
    pub sims: Vec<(&'static str, f64, f64)>,
}

impl OpReport {
    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Adds `d` to layer time `name`.
    pub fn layer(&mut self, name: &'static str, d: Duration) {
        *self.times.entry(name).or_default() += d.as_secs_f64() * 1e3;
    }

    /// Counts a program's compile work and plan size.
    pub fn count_program(&mut self, program: &CompiledProgram) {
        let s = &program.stats;
        self.count("solver.mip_solves", s.mip_solves as f64);
        self.count("solver.fast_solves", s.fast_solves as f64);
        self.count("solver.solve_batches", s.solve_batches as f64);
        self.count("dp.windows_pruned", s.dp_windows_pruned as f64);
        self.count("solver.warm_accepted", s.warm_accepted as f64);
        self.count("solver.warm_rejected", s.warm_rejected as f64);
        self.count("plan.segments", program.segments.len() as f64);
        self.count("plan.stmts", stmt_count(program) as f64);
    }

    /// Records the first failure of the op.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failure.get_or_insert_with(|| why.into());
    }

    /// A report for an op that failed before producing anything.
    pub fn failed(why: impl Into<String>) -> Self {
        let mut r = OpReport::default();
        r.fail(why);
        r
    }
}

/// One workload, set up and ready to run ops.
pub trait Workload {
    /// Number of ops in one pass.
    fn op_count(&self) -> usize;

    /// Runs op `i` the way a user would call the system.
    fn run_op(&mut self, i: usize) -> OpReport;

    /// Runs op `i` again, with the layers the real op calls in one piece
    /// called one at a time under spans. Opens and closes the op's root
    /// span itself, around exactly the timed part.
    fn run_op_traced(&mut self, i: usize, tracer: &mut Tracer) -> OpReport;
}

/// The registry graphs, in registry order.
fn registry_graphs() -> Result<Vec<(&'static str, Graph)>, String> {
    registry::ALL_MODELS
        .iter()
        .map(|&m| {
            registry::build(m, BATCH, SEQ)
                .map(|g| (m, g))
                .map_err(|e| format!("building {m}: {e}"))
        })
        .collect()
}

/// The chip every workload targets.
fn arch() -> DualModeArch {
    presets::dynaplasia()
}

/// Per-program output line in the golden file's format.
fn sim_line(report: &EngineReport) -> SimLine {
    SimLine::new(
        report.total_cycles,
        report.energy.total_pj(),
        report.switches_to_compute + report.switches_to_memory,
    )
}

/// Statements a program's flow holds, parallel bodies included.
fn stmt_count(program: &CompiledProgram) -> usize {
    let mut n = 0usize;
    let _ = walk_flow(&program.flow, |e| {
        if matches!(e, FlowEvent::Stmt { .. }) {
            n += 1;
        }
        Ok::<(), ()>(())
    });
    n
}

/// Builds one verifier lint.
type MakeLint = fn() -> Box<dyn Lint>;

/// `Session::compile`'s pipeline for a store miss, one stage at a time:
/// the four stages, each under its span, through a context sharing
/// `cache`, then the counters stamped into the program.
fn compile_stages(
    tr: &mut Tracer,
    arch: &DualModeArch,
    options: &CompilerOptions,
    cache: &Arc<AllocationCache>,
    graph: &Graph,
) -> Result<CompiledProgram, CompileError> {
    let mut cx = PipelineCx::with_shared_cache(arch, options, Arc::clone(cache));
    let mut program = tr
        .span("stage.lower", || cx.run(&LowerStage, graph))
        .and_then(|l| tr.span("stage.partition", || cx.run(&PartitionStage, l)))
        .and_then(|p| tr.span("stage.segment", || cx.run(&SegmentStage, p)))
        .and_then(|s| tr.span("stage.emit", || cx.run(&EmitStage, s)))?;
    cx.finalize(&mut program.stats);
    Ok(program)
}

/// The five verifier lints, each with the span name of its layer.
fn lints() -> [(&'static str, MakeLint); 5] {
    [
        ("verify.mode", || Box::new(ModeIntervalLint)),
        ("verify.capacity", || Box::new(CapacityLint)),
        ("verify.dependence", || Box::new(DependenceLint)),
        ("verify.race", || Box::new(ParallelRaceLint)),
        ("verify.flowplan", || Box::new(FlowPlanLint)),
    ]
}

/// A small seeded generator (splitmix64): the benchmark's only source
/// of randomness, so a seed fixes every op sequence.
#[derive(Debug, Clone)]
struct SeqRng(u64);

impl SeqRng {
    /// A generator for `seed`.
    fn new(seed: u64) -> Self {
        SeqRng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// The seeded model order of each of `ops` registry cold-compile ops.
pub fn cold_orders(seed: u64, ops: usize) -> Vec<Vec<usize>> {
    let mut rng = SeqRng::new(seed);
    (0..ops)
        .map(|_| rng.permutation(registry::ALL_MODELS.len()))
        .collect()
}

/// The seeded registry model of each warm-serve request: whole rounds
/// that each hold every model once, at least `ops` requests.
pub fn warm_draws(seed: u64, ops: usize) -> Vec<usize> {
    let n = registry::ALL_MODELS.len();
    let mut rng = SeqRng::new(seed);
    (0..ops.div_ceil(n).max(1))
        .flat_map(|_| rng.permutation(n))
        .collect()
}
