//! Public-API surface guard: snapshots the facade `prelude` export
//! list. An accidental removal, rename or addition in
//! `cmswitch::prelude` fails this test, making public-surface changes
//! deliberate (update `EXPECTED` *and* the docs when the surface
//! really should change).

/// The blessed prelude surface, sorted.
const EXPECTED: &[&str] = &[
    "AllocationCache",
    "AreaPowerModel",
    "ArrayMode",
    "ArtifactStore",
    "Backend",
    "BackendKind",
    "BatchReport",
    "CancelToken",
    "ChipCost",
    "ChipScheduler",
    "CoSimOptions",
    "CompileError",
    "CompileOutcome",
    "CompileRequest",
    "CompileServer",
    "CompileStats",
    "CompiledProgram",
    "CompilerOptions",
    "DecodeLoop",
    "DecodeOptions",
    "DecodeTenant",
    "DiagnosticEvent",
    "Diagnostics",
    "DpMode",
    "DualModeArch",
    "EmitStage",
    "EngineReport",
    "EventEngine",
    "Flow",
    "Graph",
    "GraphBuilder",
    "Lint",
    "LowerStage",
    "ParetoFrontier",
    "PartitionStage",
    "PipelineCx",
    "SegmentStage",
    "ServeReply",
    "ServeRequest",
    "ServerOptions",
    "Session",
    "SessionBackendExt",
    "SessionBuilder",
    "SessionSimExt",
    "Severity",
    "SimulationOutcome",
    "Stage",
    "StoreFetch",
    "StoreKey",
    "SweepRecord",
    "SweepReport",
    "SweepRunner",
    "SweepSpace",
    "TenancyPolicy",
    "TenancyReport",
    "TenantProgram",
    "Ticket",
    "UnknownBackend",
    "Verifier",
    "VerifyCx",
    "VerifyFinding",
    "VerifyReport",
    "VerifyStage",
    "backend_for",
    "presets",
    "print_flow",
    "simulate",
];

/// Extracts the re-exported identifiers from the `pub mod prelude`
/// block of the facade's source.
fn prelude_exports() -> Vec<String> {
    let source = include_str!("../src/lib.rs");
    let start = source
        .find("pub mod prelude {")
        .expect("facade must define a prelude");
    let block = &source[start..];
    let end = block.find("\n}").expect("prelude block must close");
    let block = &block[..end];

    let mut items = Vec::new();
    for stmt in block.split(';') {
        let Some(use_pos) = stmt.find("pub use ") else {
            continue;
        };
        let path = stmt[use_pos + "pub use ".len()..].trim();
        // Either `root::path::{A, B, C}` or `root::path::Item`.
        if let Some(brace) = path.find('{') {
            let inner = path[brace + 1..].trim_end_matches('}');
            for item in inner.split(',') {
                let item = item.trim();
                if !item.is_empty() {
                    items.push(item.to_string());
                }
            }
        } else if let Some(last) = path.rsplit("::").next() {
            items.push(last.trim().to_string());
        }
    }
    items.sort();
    items
}

#[test]
fn prelude_surface_matches_snapshot() {
    let actual = prelude_exports();
    let expected: Vec<String> = {
        let mut v: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(
        actual, expected,
        "cmswitch::prelude changed — if intentional, update tests/api_surface.rs \
         (EXPECTED) and the README/ARCHITECTURE docs"
    );
}

#[test]
fn snapshot_items_exist_and_have_expected_shapes() {
    // Spot-check that the snapshot names are real, importable items
    // with the roles the docs promise (pure compile-time assertions).
    use cmswitch::prelude::*;

    fn assert_backend<T: Backend>() {}
    assert_backend::<cmswitch::baselines::CmSwitch>();
    assert_backend::<cmswitch::baselines::Puma>();

    let _kinds: [BackendKind; 4] = BackendKind::ALL;
    let _builder: SessionBuilder = Session::builder(presets::tiny());
    let _opts: CompilerOptions = CompilerOptions::default()
        .with_dp_mode(DpMode::BoundPruned)
        .with_partition_budget(1.0);
    let _token: CancelToken = CancelToken::new();
    let _diag: Diagnostics = Diagnostics::new();
    let _verifier: Verifier = Verifier::new();
    let _report: VerifyReport = VerifyReport::new();
    assert!(Severity::Deny > Severity::Warn);
    let _opts: CompilerOptions = CompilerOptions::default().with_verify(true);
    let _srv_opts: ServerOptions = ServerOptions::default().with_workers(1);
    assert!(matches!(StoreFetch::Miss, StoreFetch::Miss));
    let _model: AreaPowerModel = AreaPowerModel::default();
    let cost: ChipCost = _model.price(&presets::tiny());
    assert!(cost.area_mm2 > 0.0);
    let _space: SweepSpace = SweepSpace::around(presets::tiny());
}
