//! Regression tests for [`Session`](crate::session::Session) used as a
//! batch compile service: job order, per-model failure isolation, the
//! empty-batch early return, backend-generic batches and single
//! compiles through the shared allocation cache.

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use cmswitch_arch::presets;
    use cmswitch_graph::Graph;
    use cmswitch_models::mlp::mlp;

    use crate::session::{CompileRequest, Session};

    fn service(workers: usize) -> Session {
        Session::builder(presets::tiny()).workers(workers).build()
    }

    fn fleet() -> Vec<CompileRequest> {
        vec![
            CompileRequest::new(mlp(1, &[64, 64, 64, 64]).unwrap()).with_label("mlp-a"),
            CompileRequest::new(mlp(1, &[64, 64, 64, 64]).unwrap()).with_label("mlp-b"),
            CompileRequest::new(mlp(2, &[128, 256, 128]).unwrap()).with_label("mlp-c"),
        ]
    }

    #[test]
    fn batch_preserves_job_order_and_compiles_all() {
        let report = service(2).compile_batch(&fleet());
        assert_eq!(
            report.outcomes.iter().map(|o| o.name.as_str()).collect::<Vec<_>>(),
            vec!["mlp-a", "mlp-b", "mlp-c"]
        );
        assert_eq!(report.stats.compiled, 3);
        assert_eq!(report.stats.failed, 0);
        assert!(report.get("mlp-b").unwrap().result.is_ok());
        assert!(report.get("nope").is_none());
    }

    #[test]
    fn per_model_failure_does_not_sink_batch() {
        let requests = vec![
            CompileRequest::new(Graph::from_nodes("empty", Vec::new())),
            CompileRequest::new(mlp(1, &[64, 64]).unwrap()).with_label("ok"),
        ];
        let report = service(2).compile_batch(&requests);
        assert_eq!(report.stats.compiled, 1);
        assert_eq!(report.stats.failed, 1);
        assert!(report.get("empty").unwrap().result.is_err());
        assert!(report.get("ok").unwrap().result.is_ok());
        assert!(report.summary().contains("FAILED"));
    }

    #[test]
    fn empty_batch_returns_early_without_a_worker_pool() {
        // Regression: an empty request slice used to enter `thread::scope`
        // with one clamped worker; it must early-return instead.
        let report = service(3).compile_batch(&[]);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.stats.workers, 0, "no workers for an empty batch");
        assert_eq!(report.stats.wall, Duration::ZERO);
        assert_eq!(report.stats.compiled + report.stats.failed, 0);
        assert_eq!(report.stats.hit_rate(), 0.0);
    }

    #[test]
    fn generic_backend_service_matches_standalone_compiles() {
        // Batching is backend-generic: a backend handed to the builder
        // explicitly gets the same pool + cache + report machinery.
        let svc = Session::builder(presets::tiny())
            .backend(Box::new(crate::CmSwitch::new(presets::tiny())))
            .workers(2)
            .build();
        assert_eq!(svc.backend_name(), "cmswitch");
        let report = svc.compile_batch(&fleet());
        assert_eq!(report.stats.compiled, 3);
        let standalone = crate::Backend::compile(
            &crate::CmSwitch::new(presets::tiny()),
            &fleet()[0].graph,
        )
        .unwrap();
        let batched = report.get("mlp-a").unwrap().result.as_ref().unwrap();
        assert_eq!(batched.predicted_latency, standalone.predicted_latency);
        assert_eq!(batched.flow, standalone.flow);
        // Per-job typed diagnostics ride along.
        assert!(!report.get("mlp-a").unwrap().diagnostics.is_empty());
    }

    #[test]
    fn single_compile_goes_through_cache() {
        let svc = service(1);
        let g = mlp(1, &[64, 64, 64]).unwrap();
        let p1 = svc.compile_graph(&g).unwrap();
        let p2 = svc.compile_graph(&g).unwrap();
        assert!(
            p2.stats.mip_solves + p2.stats.fast_solves
                < p1.stats.mip_solves + p1.stats.fast_solves
        );
        assert_eq!(p1.predicted_latency, p2.predicted_latency);
    }
}
