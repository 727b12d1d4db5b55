//! Determinism self-test: host time is the only quantity allowed to
//! vary between runs.
//!
//! Two short runs with one seed must report identical simulated
//! metrics and identical count metrics. A second seed must reorder the
//! ops but leave the cold-compile and warm-serve simulated metrics
//! unchanged.

use std::path::PathBuf;

use cmswitch_perfbench::workloads::{cold_orders, warm_draws};
use cmswitch_perfbench::{run, Config, RunResult, WorkloadKind};

fn run_once(workload: WorkloadKind, seed: u64, trace: bool) -> RunResult {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "determinism-{}-{seed}-{}-{}",
        workload.name(),
        u8::from(trace),
        std::process::id()
    ));
    let result = run(&Config {
        workload,
        seed,
        seconds: 1,
        trace,
        scratch: scratch.clone(),
    });
    let _ = std::fs::remove_dir_all(&scratch);
    let result = result.expect("set-up succeeds");
    assert!(
        result.correct,
        "{} failed: {:?}",
        workload.name(),
        result.notes
    );
    assert_eq!(result.failed, 0);
    result
}

/// The metrics that must repeat bit for bit: simulated results and
/// counts. Host times (ms, s, MiB, %, x) are excluded.
fn exact(result: &RunResult) -> Vec<(&'static str, u64)> {
    result
        .metrics
        .iter()
        .filter(|m| matches!(m.unit, "count" | "cycles" | "mJ" | "ratio"))
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .value
}

fn repeats_for_one_seed(workload: WorkloadKind) {
    let (a, b) = (run_once(workload, 7, false), run_once(workload, 7, false));
    assert_eq!(exact(&a), exact(&b));
    assert!(exact(&a).iter().any(|&(n, _)| n == "sim_cycles"));
    let (a, b) = (run_once(workload, 7, true), run_once(workload, 7, true));
    assert_eq!(exact(&a), exact(&b));
    assert!(exact(&a).len() > 20, "per-layer counts reported");
}

#[test]
fn cold_compile_repeats_for_one_seed() {
    repeats_for_one_seed(WorkloadKind::ColdCompile);
}

#[test]
fn warm_serve_repeats_for_one_seed() {
    repeats_for_one_seed(WorkloadKind::WarmServe);
}

#[test]
fn decode_repeats_for_one_seed() {
    repeats_for_one_seed(WorkloadKind::Decode);
}

#[test]
fn a_second_seed_reorders_ops_but_keeps_simulated_results() {
    assert_ne!(cold_orders(7, 4), cold_orders(8, 4));
    assert_ne!(warm_draws(7, 18), warm_draws(8, 18));
    // Every warm-serve round holds each registry model once.
    let mut round = warm_draws(8, 9);
    round.sort_unstable();
    assert_eq!(round, (0..9).collect::<Vec<_>>());

    let cold = [
        run_once(WorkloadKind::ColdCompile, 7, false),
        run_once(WorkloadKind::ColdCompile, 8, false),
    ];
    let warm = [
        run_once(WorkloadKind::WarmServe, 7, false),
        run_once(WorkloadKind::WarmServe, 8, false),
    ];
    for r in cold.iter().chain(&warm) {
        // The registry's golden cycles, summed.
        assert_eq!(format!("{:.2}", value(r, "sim_cycles")), "17982066.62");
        assert_eq!(
            value(r, "sim_cycles").to_bits(),
            value(&cold[0], "sim_cycles").to_bits()
        );
        assert_eq!(
            value(r, "sim_energy_mj").to_bits(),
            value(&cold[0], "sim_energy_mj").to_bits()
        );
    }
}
