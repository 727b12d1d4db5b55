//! `decode`: a `DecodeLoop` runs two registry decoder tenants,
//! llama2-7b and opt-6.7b, on static halves of the chip. One op is one
//! `DecodeLoop::run` over [`STEPS`] steps from KV length 16; one
//! untimed cold run in setup primes the allocation cache.
//!
//! Every step re-segments both tenants through the cache-hit compile
//! path (DP over cached allocations, emit) at zero solves, then the
//! admission lints and the tenancy arbiter run: no store, no solver.

use cmswitch_arch::DualModeArch;
use cmswitch_core::verify::{CapacityLint, DependenceLint};
use cmswitch_core::{CompiledProgram, Session, Verifier};
use cmswitch_graph::Graph;
use cmswitch_models::registry;
use cmswitch_models::transformer::{decode_step, TransformerConfig};
use cmswitch_sim::{
    ChipScheduler, CoSimOptions, DecodeLoop, DecodeOptions, DecodeReport, DecodeTenant,
    TenancyPolicy, TenancyReport, TenantProgram,
};

use super::{arch, compile_stages, OpReport, Workload, BATCH};
use crate::trace::Tracer;

/// Decode steps per op.
pub const STEPS: usize = 1;

/// KV-cache length every tenant starts from.
const KV_START: usize = 16;

/// The two decoder tenants.
const TENANTS: [&str; 2] = ["llama2-7b", "opt-6.7b"];

/// A tenant: its registry config and per-token KV growth in bytes
/// (keys and values, per layer, 2-byte elements).
type TenantCfg = (TransformerConfig, u64);

/// The decode workload; see the [module docs](self).
pub struct Decode {
    arch: DualModeArch,
    session: Session,
    tenants: Vec<TenantCfg>,
    ops: usize,
    reference: DecodeReport,
}

/// A tenant's state in the traced replay of the loop.
struct TenantState {
    program: CompiledProgram,
    kv_compiled: usize,
    kv: usize,
}

impl Decode {
    /// Builds the session and runs the untimed cold loop whose report
    /// every op must reproduce.
    ///
    /// # Errors
    ///
    /// An unknown tenant or a failing cold run.
    pub fn setup(ops: usize) -> Result<Self, String> {
        let tenants = TENANTS
            .iter()
            .map(|&name| {
                let cfg = registry::transformer_config(name)
                    .ok_or(format!("{name} is not a registry transformer"))?;
                let kv_bytes = 2 * cfg.layers as u64 * cfg.hidden as u64 * 2;
                Ok((cfg, kv_bytes))
            })
            .collect::<Result<Vec<TenantCfg>, String>>()?;
        let arch = arch();
        let session = Session::builder(arch.clone()).build();
        let reference = decode_loop(&session, &tenants)
            .run()
            .map_err(|e| format!("cold decode run failed: {e}"))?;
        Ok(Decode {
            arch,
            session,
            tenants,
            ops,
            reference,
        })
    }

    fn share(&self) -> usize {
        self.arch.n_arrays() / self.tenants.len()
    }

    /// A tenant's compile on its partition, as `Session::partitioned`'s
    /// session runs it, with each stage under its span.
    fn compile(
        &self,
        tr: &mut Tracer,
        sub: &DualModeArch,
        graph: &Graph,
    ) -> Result<CompiledProgram, String> {
        let span = tr.enter("decode.compile");
        let program = compile_stages(tr, sub, self.session.options(), self.session.cache(), graph);
        tr.exit(span);
        program.map_err(|e| e.to_string())
    }

    /// `DecodeLoop::run` replayed from outside, one layer call at a
    /// time. Returns the total cycles and the re-segmentation count.
    fn replay(&self, tr: &mut Tracer) -> Result<(f64, u64), String> {
        let share = self.share();
        let sub = self.arch.partition(share).map_err(|e| e.to_string())?;
        let options = DecodeOptions::default();
        // Admission runs as its own span below, so the arbiter skips it.
        let scheduler = ChipScheduler::new(self.arch.clone()).with_options(CoSimOptions {
            policy: TenancyPolicy::Partitioned {
                shares: vec![share; self.tenants.len()],
            },
            verify_admission: false,
            energy_model: options.energy_model.clone(),
        });
        let mut states = Vec::with_capacity(self.tenants.len());
        for (cfg, _) in &self.tenants {
            let graph = tr
                .span("decode.graph_build", || decode_step(cfg, BATCH, KV_START))
                .map_err(|e| e.to_string())?;
            states.push(TenantState {
                program: self.compile(tr, &sub, &graph)?,
                kv_compiled: KV_START,
                kv: KV_START,
            });
        }
        let co_sim = |tr: &mut Tracer, states: &[TenantState]| -> Result<TenancyReport, String> {
            let deny: usize = tr.span("tenancy.admission", || {
                states
                    .iter()
                    .map(|s| {
                        Verifier::empty()
                            .with_lint(Box::new(DependenceLint))
                            .with_lint(Box::new(CapacityLint))
                            .run(&s.program, &sub)
                            .deny_count()
                    })
                    .sum()
            });
            if deny > 0 {
                return Err(format!("admission refused: {deny} Deny finding(s)"));
            }
            let tenants: Vec<TenantProgram> = self
                .tenants
                .iter()
                .zip(states)
                .map(|((cfg, _), s)| TenantProgram::new(&cfg.name, &s.program))
                .collect();
            tr.span("tenancy.co_simulate", || scheduler.co_simulate(&tenants))
                .map_err(|e| e.to_string())
        };

        let mut step = co_sim(tr, &states)?;
        let (mut total_cycles, mut resegmentations) = (0.0, 0);
        for _ in 0..STEPS {
            let mut dirty = false;
            for ((cfg, kv_bytes), state) in self.tenants.iter().zip(&mut states) {
                state.kv += 1;
                let grown = (state.kv - state.kv_compiled) as u64 * kv_bytes * BATCH as u64;
                let extra = grown.div_ceil(self.arch.array_bytes().max(1)) as usize;
                let widest = state
                    .program
                    .segments
                    .iter()
                    .map(|s| s.alloc.arrays_used())
                    .max()
                    .unwrap_or(0);
                if widest + extra > share || grown > options.kv_headroom_bytes {
                    let graph = tr
                        .span("decode.graph_build", || decode_step(cfg, BATCH, state.kv))
                        .map_err(|e| e.to_string())?;
                    state.program = self.compile(tr, &sub, &graph)?;
                    state.kv_compiled = state.kv;
                    resegmentations += 1;
                    dirty = true;
                }
            }
            if dirty {
                step = co_sim(tr, &states)?;
            }
            total_cycles += step.total_cycles;
        }
        Ok((total_cycles, resegmentations))
    }
}

/// The loop every op runs.
fn decode_loop<'a>(session: &'a Session, tenants: &[TenantCfg]) -> DecodeLoop<'a> {
    let mut lp = DecodeLoop::new(session).with_options(DecodeOptions {
        steps: STEPS,
        ..DecodeOptions::default()
    });
    for (cfg, kv_bytes) in tenants {
        let cfg = cfg.clone();
        lp = lp.tenant(DecodeTenant::new(
            cfg.name.clone(),
            BATCH,
            KV_START,
            *kv_bytes,
            move |kv| decode_step(&cfg, BATCH, kv),
        ));
    }
    lp
}

impl Workload for Decode {
    fn op_count(&self) -> usize {
        self.ops
    }

    fn run_op(&mut self, _i: usize) -> OpReport {
        let lp = decode_loop(&self.session, &self.tenants);
        let cache = self.session.cache();
        let (hits0, misses0) = (cache.hits(), cache.misses());
        let mut rep = OpReport::default();

        let result = rep.host.segment(|| lp.run());

        let report = match result {
            Ok(r) => r,
            Err(e) => {
                rep.fail(format!("decode run failed: {e}"));
                return rep;
            }
        };
        rep.count(
            "alloc_cache.hits",
            cache.hits().saturating_sub(hits0) as f64,
        );
        rep.count(
            "alloc_cache.misses",
            cache.misses().saturating_sub(misses0) as f64,
        );
        rep.count("decode.resegmentations", report.resegmentations as f64);
        rep.count("decode.solves", report.solves as f64);
        let sw = &report.tenancy.switches;
        rep.count("tenancy.switches_requested", sw.requested as f64);
        rep.count("tenancy.switches_amortized", sw.amortized as f64);
        rep.count("tenancy.switches_injected", sw.injected as f64);
        rep.count("tenancy.switch_cycles", sw.switch_cycles);
        rep.sims.push((
            "decode",
            report.total_cycles,
            report.tenancy.energy.total_pj(),
        ));

        if report.solves > 0 {
            rep.fail(format!(
                "{} solve(s) on the warm decode path",
                report.solves
            ));
        }
        if report.resegmentations != self.reference.resegmentations {
            rep.fail(format!(
                "{} re-segmentations, the cold run made {}",
                report.resegmentations, self.reference.resegmentations
            ));
        }
        if report.total_cycles.to_bits() != self.reference.total_cycles.to_bits() {
            rep.fail(format!(
                "{} total cycles, the cold run simulated {}",
                report.total_cycles, self.reference.total_cycles
            ));
        }
        match self.arch.partition(self.share()) {
            Ok(sub) => {
                for t in &report.tenants {
                    let deny = Verifier::new().run(&t.final_program, &sub).deny_count();
                    if deny > 0 {
                        rep.fail(format!("{}: final plan has {deny} Deny finding(s)", t.name));
                    }
                }
            }
            Err(e) => rep.fail(format!("partitioning the chip: {e}")),
        }
        rep
    }

    fn run_op_traced(&mut self, i: usize, tr: &mut Tracer) -> OpReport {
        let mut rep = OpReport::default();
        let result = rep.host.segment(|| {
            tr.begin_op(i);
            let result = self.replay(tr);
            tr.end_op();
            result
        });
        match result {
            Ok((cycles, resegmentations)) => {
                if cycles.to_bits() != self.reference.total_cycles.to_bits()
                    || resegmentations != self.reference.resegmentations
                {
                    rep.fail("traced replay diverged from DecodeLoop::run");
                }
            }
            Err(e) => rep.fail(format!("traced decode replay failed: {e}")),
        }
        rep
    }
}
