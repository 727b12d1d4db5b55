//! End-to-end and per-layer benchmark of the CMSwitch compile, serve
//! and decode paths.
//!
//! Three workloads drive `models` → `core` → `serve` → `sim` through
//! public entry points only (see [`workloads`]). A run sets its
//! workload up five times, then times a fixed, seeded sequence of ops
//! in a closed loop with tracing off. With tracing on it then replays
//! the same ops with the layers the real op calls in one piece called
//! one at a time under spans, and reports per-layer numbers.
//!
//! Host time is the only noisy quantity: every simulated metric and
//! every count repeats exactly. Timings are contention-normalized; see
//! [`host`].

pub mod golden;
pub mod host;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use host::{HostTime, REFERENCE_PROBE};
use stats::{median, tail};
use trace::Tracer;
use workloads::{ColdCompile, Decode, OpReport, WarmServe, Workload};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Registry cold compile + simulate through a fresh session.
    ColdCompile,
    /// Store-served requests through a one-worker compile server.
    WarmServe,
    /// Two-tenant continuous decode, warm.
    Decode,
}

impl WorkloadKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::ColdCompile,
        WorkloadKind::WarmServe,
        WorkloadKind::Decode,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ColdCompile => "cold_compile",
            WorkloadKind::WarmServe => "warm_serve",
            WorkloadKind::Decode => "decode",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Quiet-host latency of one op on the 2-vCPU reference machine.
    /// Only sizes the op count; the count is fixed per `--seconds`, so
    /// every run of a seed times the same mix.
    fn nominal_op(self) -> Duration {
        match self {
            WorkloadKind::ColdCompile => Duration::from_millis(600),
            WorkloadKind::WarmServe => Duration::from_millis(30),
            WorkloadKind::Decode => Duration::from_millis(180),
        }
    }

    /// Ops in one pass of `seconds` seconds.
    pub fn op_count(self, seconds: u64) -> usize {
        let nominal = self.nominal_op().as_secs_f64();
        ((seconds as f64 / nominal).ceil() as usize).max(2)
    }

    fn setup(self, seed: u64, ops: usize, scratch: PathBuf) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            WorkloadKind::ColdCompile => Box::new(ColdCompile::setup(seed, ops, scratch)?),
            WorkloadKind::WarmServe => Box::new(WarmServe::setup(seed, ops, scratch)?),
            WorkloadKind::Decode => Box::new(Decode::setup(ops)?),
        })
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: WorkloadKind,
    /// Seed of the op sequence.
    pub seed: u64,
    /// Nominal measuring time of one pass; fixes the op count.
    pub seconds: u64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory for artifact stores; the caller removes it.
    pub scratch: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Zero failed ops and a simulated result to report.
    pub correct: bool,
    /// Ops timed, traced pass included.
    pub attempted: u64,
    /// Ops whose output checks failed.
    pub failed: u64,
    /// End-to-end metrics without tracing, per-layer metrics with it.
    pub metrics: Vec<Metric>,
    /// The traced pass's spans and per-layer summary, as JSONL.
    pub trace_jsonl: Option<String>,
    /// Failure messages (first of each failed op) and host notes.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result as the one-line JSON object the benchmark prints.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number; a non-finite value (a failed op's latency) prints as
/// the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// Latencies and aggregates of one pass.
#[derive(Debug, Default)]
struct Pass {
    latency_ms: Vec<f64>,
    raw_ms: Vec<f64>,
    failed: u64,
    counts: BTreeMap<&'static str, f64>,
    times: BTreeMap<&'static str, Vec<f64>>,
    sims: BTreeMap<&'static str, (f64, f64)>,
    notes: Vec<String>,
}

impl Pass {
    fn record(&mut self, rep: OpReport) {
        let ms = rep.host.ms();
        self.raw_ms.push(rep.host.raw_ms());
        match rep.failure {
            // A failed op misses every latency limit.
            Some(why) => {
                self.failed += 1;
                self.latency_ms.push(f64::INFINITY);
                self.notes.push(why);
            }
            None => self.latency_ms.push(ms),
        }
        for (k, v) in rep.counts {
            *self.counts.entry(k).or_default() += v;
        }
        for (k, v) in rep.times {
            self.times.entry(k).or_default().push(v);
        }
        for (k, cycles, energy) in rep.sims {
            self.sims.insert(k, (cycles, energy));
        }
    }

    fn per_op(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0) / self.latency_ms.len().max(1) as f64
    }

    fn median_time(&self, name: &str) -> f64 {
        self.times.get(name).map_or(0.0, |v| median(v))
    }
}

/// Runs ops `0..n` of `w`; with a tracer, traced.
fn run_pass(w: &mut dyn Workload, mut tracer: Option<&mut Tracer>) -> Pass {
    let mut pass = Pass::default();
    for i in 0..w.op_count() {
        pass.record(match tracer.as_deref_mut() {
            Some(t) => w.run_op_traced(i, t),
            None => w.run_op(i),
        });
    }
    pass
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session.compile_ms", "ms"),
    ("stage.lower_ms", "ms"),
    ("stage.partition_ms", "ms"),
    ("stage.segment_ms", "ms"),
    ("stage.emit_ms", "ms"),
    ("solver.mip_solves", "count"),
    ("solver.fast_solves", "count"),
    ("solver.solve_batches", "count"),
    ("dp.windows_pruned", "count"),
    ("solver.warm_accepted", "count"),
    ("solver.warm_rejected", "count"),
    ("alloc_cache.hits", "count"),
    ("alloc_cache.misses", "count"),
    ("alloc_cache.hit_ratio", "ratio"),
    ("store.put_ms", "ms"),
    ("store.writes", "count"),
    ("store.fetch_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.corrupt", "count"),
    ("verify.mode_ms", "ms"),
    ("verify.capacity_ms", "ms"),
    ("verify.dependence_ms", "ms"),
    ("verify.race_ms", "ms"),
    ("verify.flowplan_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("server.submitted", "count"),
    ("server.served", "count"),
    ("server.failed", "count"),
    ("server.rejected", "count"),
    ("server.cancelled", "count"),
    ("engine.simulate_ms", "ms"),
    ("engine.ns_per_stmt", "ns"),
    ("plan.segments", "count"),
    ("plan.stmts", "count"),
    ("decode.graph_build_ms", "ms"),
    ("decode.compile_ms", "ms"),
    ("tenancy.admission_ms", "ms"),
    ("tenancy.co_simulate_ms", "ms"),
    ("decode.resegmentations", "count"),
    ("decode.solves", "count"),
    ("tenancy.switches_requested", "count"),
    ("tenancy.switches_amortized", "count"),
    ("tenancy.switches_injected", "count"),
    ("tenancy.switch_cycles", "cycles"),
    ("trace.p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "%"),
    ("tail.percentile", "%"),
    ("tail.samples", "count"),
    ("host.raw_p50_ms", "ms"),
    ("host.raw_tail_ms", "ms"),
    ("host.slowdown", "x"),
];

/// Runs one benchmark run; see the [crate docs](crate).
///
/// # Errors
///
/// A set-up that fails; failing ops are reported, not errors.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    // Before any server thread exists, so the worker inherits the pin.
    let cpu = host::pin_to_current_cpu();
    let ops = cfg.workload.op_count(cfg.seconds);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for k in 0..SETUPS {
        let scratch = cfg.scratch.join(format!("setup-{k}"));
        // Drop the previous set-up first: at most one server runs.
        drop(workload.take());
        let mut t = HostTime::default();
        workload = Some(t.segment(|| cfg.workload.setup(cfg.seed, ops, scratch))?);
        setup_s.push(t.normalized.as_secs_f64());
    }
    let mut w = workload.expect("SETUPS > 0");

    let plain = run_pass(w.as_mut(), None);
    let mut tracer = Tracer::default();
    let traced = cfg.trace.then(|| run_pass(w.as_mut(), Some(&mut tracer)));

    let attempted =
        (plain.latency_ms.len() + traced.as_ref().map_or(0, |t| t.latency_ms.len())) as u64;
    let failed = plain.failed + traced.as_ref().map_or(0, |t| t.failed);
    let mut notes: Vec<String> = plain
        .notes
        .iter()
        .chain(traced.iter().flat_map(|t| &t.notes))
        .cloned()
        .collect();
    let p50 = median(&plain.latency_ms);
    let (tail_ms, tail_pct) = tail(&plain.latency_ms);
    let raw_p50 = median(&plain.raw_ms);
    // Raw over normalized: how much slower than the quiet reference
    // host this run's host was, as the probes saw it.
    let slowdown = plain.raw_ms.iter().sum::<f64>() / plain.latency_ms.iter().sum::<f64>();
    notes.push(format!(
        "{} ops on cpu {}, tail at p{tail_pct:.2}; p50 {p50:.3} ms normalized, {raw_p50:.3} ms raw; host {slowdown:.2}x slower than the {} us reference probe",
        plain.latency_ms.len(),
        cpu.map_or("unpinned".to_string(), |c| c.to_string()),
        REFERENCE_PROBE.as_micros(),
    ));

    let metrics = match &traced {
        None => {
            let (cycles, energy_pj) = plain
                .sims
                .values()
                .fold((0.0, 0.0), |(c, e), &(c1, e1)| (c + c1, e + e1));
            let m = |name, value, unit| Metric { name, value, unit };
            vec![
                m("setup_s", median(&setup_s), "s"),
                m("p50_ms", p50, "ms"),
                m("tail_ms", tail_ms, "ms"),
                m("peak_rss_mb", peak_rss_mb(), "MiB"),
                m("sim_cycles", cycles, "cycles"),
                m("sim_energy_mj", energy_pj / 1e9, "mJ"),
            ]
        }
        Some(traced) => {
            let layers = tracer.layer_self_ms();
            let hits = plain.per_op("alloc_cache.hits");
            let misses = plain.per_op("alloc_cache.misses");
            let stmts = plain.counts.get("plan.stmts").copied().unwrap_or(0.0);
            let sim_ms: f64 = plain
                .times
                .get("engine.simulate")
                .map_or(0.0, |v| v.iter().sum());
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = match name {
                        "session.compile_ms" => plain.median_time("session.compile"),
                        "serve.queue_ms" => plain.median_time("serve.queue"),
                        "serve.service_ms" => plain.median_time("serve.service"),
                        "alloc_cache.hit_ratio" if hits + misses > 0.0 => hits / (hits + misses),
                        "engine.ns_per_stmt" if stmts > 0.0 => sim_ms * 1e6 / stmts,
                        "trace.p50_ms" => median(&traced.latency_ms),
                        "trace.overhead_ms" => median(&traced.latency_ms) - p50,
                        "trace.coverage" => tracer.coverage_pct(),
                        "tail.percentile" => tail_pct,
                        "tail.samples" => plain.latency_ms.len() as f64,
                        "host.raw_p50_ms" => raw_p50,
                        "host.raw_tail_ms" => tail(&plain.raw_ms).0,
                        "host.slowdown" => slowdown,
                        _ => match name.strip_suffix("_ms") {
                            Some(span) => layers.get(span).copied().unwrap_or(0.0),
                            None => plain.per_op(name),
                        },
                    };
                    Metric { name, value, unit }
                })
                .collect()
        }
    };
    let correct = failed == 0 && !plain.sims.is_empty();
    let trace_jsonl = cfg.trace.then(|| {
        let summary: Vec<(String, f64)> = metrics
            .iter()
            .map(|m| (m.name.to_string(), m.value))
            .collect();
        tracer.to_jsonl(&summary)
    });
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        trace_jsonl,
        notes,
    })
}
