//! `cold_compile`: one op compiles all nine registry models, in a
//! seeded order, through one fresh `Session` with an empty
//! `AllocationCache` and an empty `ArtifactStore` directory, then
//! simulates each program on the `EventEngine`.
//!
//! The segment DP and the solver do almost all the work; this is the
//! registry cold compile, and the only workload that writes the store.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cmswitch_arch::DualModeArch;
use cmswitch_core::{
    ArtifactStore, CompileRequest, CompiledProgram, Session, StoreFetch, StoreKey, Verifier,
};
use cmswitch_graph::Graph;
use cmswitch_sim::{EngineReport, EventEngine};

use super::{arch, cold_orders, compile_stages, registry_graphs, sim_line, OpReport, Workload};
use crate::golden::Golden;
use crate::trace::Tracer;

/// A compiled and simulated registry program.
type Done = (&'static str, CompiledProgram, EngineReport);

/// The cold-compile workload; see the [module docs](self).
pub struct ColdCompile {
    arch: DualModeArch,
    graphs: Vec<(&'static str, Graph)>,
    orders: Vec<Vec<usize>>,
    golden: Golden,
    scratch: PathBuf,
    stores: usize,
}

impl ColdCompile {
    /// Builds the graphs and the seeded model order of each of `ops`
    /// ops, then runs one untimed warm-up op.
    ///
    /// # Errors
    ///
    /// Graph construction, golden-file or warm-up failures.
    pub fn setup(seed: u64, ops: usize, scratch: PathBuf) -> Result<Self, String> {
        let mut w = ColdCompile {
            arch: arch(),
            graphs: registry_graphs()?,
            orders: cold_orders(seed, ops),
            golden: Golden::load()?,
            scratch,
            stores: 0,
        };
        let warm_up: Vec<usize> = (0..w.graphs.len()).collect();
        match w.run_order(&warm_up).failure {
            Some(why) => Err(format!("warm-up op failed: {why}")),
            None => Ok(w),
        }
    }

    /// A fresh session over a fresh, empty store directory.
    fn fresh_session(&mut self) -> Result<(Session, Arc<ArtifactStore>, PathBuf), String> {
        let dir = self.scratch.join(format!("cold-store-{}", self.stores));
        self.stores += 1;
        let store = ArtifactStore::open(&dir).map_err(|e| format!("opening store: {e}"))?;
        let session = Session::builder(self.arch.clone())
            .store(Arc::clone(&store))
            .build();
        Ok((session, store, dir))
    }

    fn run_order(&mut self, order: &[usize]) -> OpReport {
        let (session, store, dir) = match self.fresh_session() {
            Ok(s) => s,
            Err(e) => return OpReport::failed(e),
        };
        let requests: Vec<(&'static str, CompileRequest)> = order
            .iter()
            .map(|&m| {
                let (name, graph) = &self.graphs[m];
                (*name, CompileRequest::new(graph.clone()).with_label(*name))
            })
            .collect();
        let engine = EventEngine::new();
        let mut rep = OpReport::default();
        let mut done: Vec<Done> = Vec::new();

        // One timed segment per model: compile, then simulate.
        for (name, request) in requests {
            let (compiled, result) = rep.host.segment(|| {
                let t = Instant::now();
                let outcome = session.compile(request);
                let compiled = t.elapsed();
                let result = outcome.map(|o| {
                    let t = Instant::now();
                    let sim = engine.simulate_program(&o.program, &self.arch);
                    (o.program, sim, t.elapsed())
                });
                (compiled, result)
            });
            rep.layer("session.compile", compiled);
            let (program, sim, simulated) = match result {
                Ok(r) => r,
                Err(e) => {
                    rep.fail(format!("{name}: compile failed: {e}"));
                    break;
                }
            };
            rep.layer("engine.simulate", simulated);
            match sim {
                Ok(report) => done.push((name, program, report)),
                Err(e) => {
                    rep.fail(format!("{name}: simulation failed: {e}"));
                    break;
                }
            }
        }

        for (name, program, report) in &done {
            self.check(name, program, report, &mut rep);
            rep.count_program(program);
        }
        rep.count("alloc_cache.hits", session.cache().hits() as f64);
        rep.count("alloc_cache.misses", session.cache().misses() as f64);
        let st = store.stats();
        rep.count("store.hits", st.hits as f64);
        rep.count("store.misses", st.misses as f64);
        rep.count("store.corrupt", st.corrupt as f64);
        rep.count("store.writes", st.writes as f64);
        let _ = fs::remove_dir_all(&dir);
        rep
    }

    /// `Session::compile` with a store attached, one call at a time,
    /// then the simulation: op `i` under spans. Returns the programs
    /// and the failures met on the way.
    fn traced_op(
        &self,
        i: usize,
        tr: &mut Tracer,
        session: &Session,
        store: &ArtifactStore,
    ) -> (Vec<Done>, Vec<String>) {
        let (arch, engine) = (&self.arch, EventEngine::new());
        let (mut done, mut failures) = (Vec::new(), Vec::new());
        tr.begin_op(i);
        for &m in &self.orders[i] {
            let (name, graph) = (self.graphs[m].0, &self.graphs[m].1);
            let compile = tr.enter("session.compile");
            let (key, missed) = tr.span("store.fetch", || {
                let key =
                    StoreKey::for_compile(arch, session.backend_name(), session.options(), graph);
                (key, matches!(store.fetch_program(key), StoreFetch::Miss))
            });
            if !missed {
                failures.push(format!("{name}: fresh store did not miss"));
            }
            let program = match compile_stages(tr, arch, session.options(), session.cache(), graph)
            {
                Ok(p) => p,
                Err(e) => {
                    failures.push(format!("{name}: compile failed: {e}"));
                    break;
                }
            };
            if let Err(e) = tr.span("store.put", || store.put_program(key, &program)) {
                failures.push(format!("{name}: store write failed: {e}"));
            }
            tr.exit(compile);
            match tr.span("engine.simulate", || {
                engine.simulate_program(&program, arch)
            }) {
                Ok(report) => done.push((name, program, report)),
                Err(e) => {
                    failures.push(format!("{name}: simulation failed: {e}"));
                    break;
                }
            }
        }
        tr.end_op();
        (done, failures)
    }

    /// Output checks: zero Deny findings and the golden engine summary.
    fn check(
        &self,
        name: &'static str,
        program: &CompiledProgram,
        report: &EngineReport,
        rep: &mut OpReport,
    ) {
        let deny = Verifier::new().run(program, &self.arch).deny_count();
        if deny > 0 {
            rep.fail(format!("{name}: {deny} Deny finding(s)"));
        }
        if !self.golden.matches(name, &sim_line(report)) {
            rep.fail(format!(
                "{name}: simulated summary differs from the golden file"
            ));
        }
        rep.sims
            .push((name, report.total_cycles, report.energy.total_pj()));
    }
}

impl Workload for ColdCompile {
    fn op_count(&self) -> usize {
        self.orders.len()
    }

    fn run_op(&mut self, i: usize) -> OpReport {
        let order = self.orders[i].clone();
        self.run_order(&order)
    }

    fn run_op_traced(&mut self, i: usize, tr: &mut Tracer) -> OpReport {
        let (session, store, dir) = match self.fresh_session() {
            Ok(s) => s,
            Err(e) => return OpReport::failed(e),
        };
        let mut rep = OpReport::default();
        let (done, failures) = rep.host.segment(|| self.traced_op(i, tr, &session, &store));
        for why in failures {
            rep.fail(why);
        }
        for (name, program, report) in &done {
            self.check(name, program, report, &mut rep);
        }
        let _ = fs::remove_dir_all(&dir);
        rep
    }
}
