//! `warm_serve`: a `CompileServer` with one worker runs over a store
//! primed in setup. One op submits one request drawn (seeded) from the
//! registry, waits for the reply, then simulates the returned program.
//!
//! The store read and decode, the verify gate on every store hit and
//! the engine do the work; the solver does none. Requests are drawn in
//! rounds: every round of nine ops holds each registry model once, in a
//! seeded order, so every seed times the same mix.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cmswitch_arch::DualModeArch;
use cmswitch_core::{
    ArtifactStore, CompileRequest, DiagnosticEvent, Session, StoreFetch, StoreKey, Verifier,
};
use cmswitch_graph::Graph;
use cmswitch_serve::{CompileServer, ServeRequest, ServerOptions};
use cmswitch_sim::{EngineReport, EventEngine};

use super::{arch, lints, registry_graphs, sim_line, warm_draws, OpReport, Workload};
use crate::golden::Golden;
use crate::trace::Tracer;

/// The warm-serve workload; see the [module docs](self).
pub struct WarmServe {
    arch: DualModeArch,
    graphs: Vec<(&'static str, Graph)>,
    draws: Vec<usize>,
    golden: Golden,
    store: Arc<ArtifactStore>,
    server: CompileServer,
}

impl WarmServe {
    /// Primes a store under `scratch` with a cold compile of the
    /// registry, starts a one-worker server over it, draws the requests
    /// of `ops` ops (rounded up to whole rounds) and serves one untimed
    /// warm-up round.
    ///
    /// # Errors
    ///
    /// Graph construction, priming, golden-file or warm-up failures.
    pub fn setup(seed: u64, ops: usize, scratch: PathBuf) -> Result<Self, String> {
        let arch = arch();
        let graphs = registry_graphs()?;
        let store = ArtifactStore::open(scratch.join("warm-store"))
            .map_err(|e| format!("opening store: {e}"))?;
        let primer = Session::builder(arch.clone())
            .store(Arc::clone(&store))
            .build();
        for (name, graph) in &graphs {
            primer
                .compile(CompileRequest::new(graph.clone()).with_label(*name))
                .map_err(|e| format!("priming {name}: {e}"))?;
        }
        // A fresh session, cache empty: every reply must come from disk.
        let session = Session::builder(arch.clone())
            .store(Arc::clone(&store))
            .build();
        let server = CompileServer::start(session, ServerOptions::default().with_workers(1));
        let mut w = WarmServe {
            arch,
            graphs,
            draws: warm_draws(seed, ops),
            golden: Golden::load()?,
            store,
            server,
        };
        for m in 0..w.graphs.len() {
            if let Some(why) = w.serve(m).failure {
                return Err(format!("warm-up request failed: {why}"));
            }
        }
        Ok(w)
    }

    /// The server, store and cache counters an op moves.
    fn counters(&self) -> [(&'static str, u64); 11] {
        let (sv, st) = (self.server.stats(), self.store.stats());
        let cache = self.server.session().cache();
        [
            ("server.submitted", sv.submitted),
            ("server.served", sv.served),
            ("server.failed", sv.failed),
            ("server.rejected", sv.rejected),
            ("server.cancelled", sv.cancelled),
            ("store.hits", st.hits),
            ("store.misses", st.misses),
            ("store.corrupt", st.corrupt),
            ("store.writes", st.writes),
            ("alloc_cache.hits", cache.hits()),
            ("alloc_cache.misses", cache.misses()),
        ]
    }

    /// One request for model `m`, then the output checks.
    fn serve(&mut self, m: usize) -> OpReport {
        let (name, graph) = (self.graphs[m].0, self.graphs[m].1.clone());
        let request = ServeRequest::new(name, graph);
        let before = self.counters();
        let (arch, server, engine) = (&self.arch, &self.server, EventEngine::new());
        let mut rep = OpReport::default();

        let result = rep.host.segment(|| {
            server.submit(request).map(|ticket| {
                let reply = ticket.wait();
                let sim = reply.outcome.as_ref().ok().map(|o| {
                    let t = Instant::now();
                    (engine.simulate_program(&o.program, arch), t.elapsed())
                });
                (reply, sim)
            })
        });
        let (reply, sim) = match result {
            Ok(r) => r,
            Err(e) => {
                rep.fail(format!("{name}: request refused: {e}"));
                return rep;
            }
        };
        rep.layer("serve.queue", reply.queued);
        rep.layer("serve.service", reply.wall.saturating_sub(reply.queued));
        for ((counter, after), (_, before)) in self.counters().into_iter().zip(before) {
            rep.count(counter, after.saturating_sub(before) as f64);
        }
        let outcome = match &reply.outcome {
            Ok(o) => o,
            Err(e) => {
                rep.fail(format!("{name}: compile failed: {e}"));
                return rep;
            }
        };
        let (sim, simulated) = sim.expect("every compiled reply is simulated");
        rep.layer("engine.simulate", simulated);
        rep.count_program(&outcome.program);
        if !reply.store_served() {
            rep.fail(format!("{name}: not served from the store"));
        }
        if reply.solver_invocations() > 0 {
            rep.fail(format!(
                "{name}: {} solver call(s) on the warm path",
                reply.solver_invocations()
            ));
        }
        let verified_clean = outcome
            .diagnostics
            .events()
            .iter()
            .any(|e| matches!(e, DiagnosticEvent::Verified { deny: 0, .. }));
        if !verified_clean {
            rep.fail(format!("{name}: store hit not verified clean"));
        }
        match sim {
            Ok(report) => self.check(name, &report, &mut rep),
            Err(e) => rep.fail(format!("{name}: simulation failed: {e}")),
        }
        rep
    }

    fn check(&self, name: &'static str, report: &EngineReport, rep: &mut OpReport) {
        if !self.golden.matches(name, &sim_line(report)) {
            rep.fail(format!(
                "{name}: simulated summary differs from the golden file"
            ));
        }
        rep.sims
            .push((name, report.total_cycles, report.energy.total_pj()));
    }
}

impl Workload for WarmServe {
    fn op_count(&self) -> usize {
        self.draws.len()
    }

    fn run_op(&mut self, i: usize) -> OpReport {
        self.serve(self.draws[i])
    }

    fn run_op_traced(&mut self, i: usize, tr: &mut Tracer) -> OpReport {
        let (name, graph) = (self.graphs[self.draws[i]].0, &self.graphs[self.draws[i]].1);
        let (arch, store, session) = (&self.arch, &self.store, self.server.session());
        let engine = EventEngine::new();
        let mut rep = OpReport::default();

        let (deny, sim) = match rep.host.segment(|| {
            tr.begin_op(i);
            // The server's store-hit path, one call at a time: key and
            // fetch+decode, each verifier lint, then the simulation.
            let fetched = tr.span("store.fetch", || {
                let key =
                    StoreKey::for_compile(arch, session.backend_name(), session.options(), graph);
                store.fetch_program(key)
            });
            let out = match fetched {
                StoreFetch::Hit(program) => {
                    let deny: usize = lints()
                        .into_iter()
                        .map(|(span, lint)| {
                            tr.span(span, || {
                                Verifier::empty()
                                    .with_lint(lint())
                                    .run(&program, arch)
                                    .deny_count()
                            })
                        })
                        .sum();
                    Some((
                        deny,
                        tr.span("engine.simulate", || {
                            engine.simulate_program(&program, arch)
                        }),
                    ))
                }
                _ => None,
            };
            tr.end_op();
            out
        }) {
            Some(out) => out,
            None => {
                rep.fail(format!("{name}: store did not hit"));
                return rep;
            }
        };
        if deny > 0 {
            rep.fail(format!("{name}: {deny} Deny finding(s)"));
        }
        match sim {
            Ok(report) => self.check(name, &report, &mut rep),
            Err(e) => rep.fail(format!("{name}: simulation failed: {e}")),
        }
        rep
    }
}
