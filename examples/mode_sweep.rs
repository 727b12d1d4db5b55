//! Reproduces the paper's Fig. 1(b) motivation inline: normalized
//! performance as a function of the fraction of arrays statically held in
//! compute mode, for a compute-hungry CNN and a bandwidth-hungry LLM
//! decode workload — then hands the same workload to the design-space
//! explorer ([`cmswitch::dse`]) and sweeps it across the three
//! architecture presets (tiny, DynaPlasia, PRIME-like), reporting
//! latency, energy, silicon area and the Pareto frontier.
//!
//! ```text
//! cargo run --release --example mode_sweep
//! ```

use cmswitch::arch::presets;
use cmswitch_bench::experiments::mode_sweep::static_partition_cycles;
use cmswitch_bench::workloads::scaled;
use cmswitch::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = presets::dynaplasia();
    let resnet = cmswitch::models::resnet::resnet50(1)?;
    let llama_cfg = scaled(cmswitch::models::llama::llama2_7b(), 0.08);
    let decode = cmswitch::models::transformer::decode_step(&llama_cfg, 1, 256)?;

    let fractions = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let mut resnet_lat = Vec::new();
    let mut decode_lat = Vec::new();
    for &f in &fractions {
        let c = ((arch.n_arrays() as f64) * f).round() as usize;
        resnet_lat.push(static_partition_cycles(&resnet, &arch, c));
        decode_lat.push(static_partition_cycles(&decode, &arch, c));
    }
    let best = |v: &[Option<f64>]| {
        v.iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min)
    };
    let (rb, db) = (best(&resnet_lat), best(&decode_lat));

    println!("compute%  resnet50-norm-perf  llama2-decode-norm-perf");
    for (i, &f) in fractions.iter().enumerate() {
        let fmt = |v: Option<f64>, b: f64| match v {
            Some(v) => format!("{:>6.2}", b / v),
            None => "     -".to_string(),
        };
        println!(
            "{:>7.0}%  {:>18}  {:>23}",
            f * 100.0,
            fmt(resnet_lat[i], rb),
            fmt(decode_lat[i], db)
        );
    }
    println!(
        "\n(paper Fig. 1(b): CNNs peak near 80% compute; LLaMA2 peaks near 10%)"
    );

    // The same dual-mode question, asked across *chips* instead of
    // across static partitions: the design-space sweep runner compiles
    // and simulates the workload on each preset through the real
    // session/batch layer, prices every chip with the analytic
    // area/power model, and reports the Pareto frontier over
    // (latency, energy, area).
    let workload = vec![
        ("resnet18".to_string(), cmswitch::models::resnet::resnet18(1)?),
        ("llama2-decode".to_string(), decode),
    ];
    let runner = SweepRunner::new(workload);
    let report = runner.run_archs(&[presets::tiny(), presets::dynaplasia(), presets::prime()]);
    if let Some(failed) = report.failed.first() {
        return Err(format!(
            "preset {} failed on {}: {}",
            failed.spec, failed.model, failed.failure
        )
        .into());
    }

    println!("\npreset sweep (resnet18 + llama2-decode, `*` = Pareto-optimal):");
    print!("{}", report.table());
    println!("{}", report.summary());
    for r in &report.records {
        println!(
            "  {:<28} occupancy: compute {:>5.1}% | memory {:>5.1}% | switching {:>5.1}% | idle {:>5.1}%",
            r.arch_name,
            100.0 * r.occupancy.compute,
            100.0 * r.occupancy.memory,
            100.0 * r.occupancy.switching,
            100.0 * r.occupancy.idle,
        );
    }

    let frontier = report.frontier();
    assert!(!frontier.is_empty(), "a non-empty sweep has a frontier");
    println!("\nPareto frontier over (latency, energy, area):");
    print!("{}", frontier.table(&report.records));
    Ok(())
}
