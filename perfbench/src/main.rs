//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_compile --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints one JSON object as the last line of standard output. Writes
//! the same line, and with `--trace 1` the spans as JSONL, under
//! `.bench_out/` in the working directory; artifact stores live in a
//! per-run directory there that is removed at exit.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cmswitch_perfbench::{run, Config, WorkloadKind};

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn parse_args(args: &[String]) -> Result<(WorkloadKind, u64, u64, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WorkloadKind::parse(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(0),
        seconds.unwrap_or(10),
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_compile|warm_serve|decode> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = Path::new(".bench_out");
    let scratch = ScratchDir(out.join(format!("tmp-{}", std::process::id())));
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scratch: scratch.0.clone(),
    };
    let result = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in result.notes.iter().take(20) {
        eprintln!("perfbench: {note}");
    }
    let line = result.to_json();
    let stem = format!("{}-seed{seed}-trace{}", workload.name(), u8::from(trace));
    let written = fs::create_dir_all(out)
        .and_then(|()| fs::write(out.join(format!("{stem}.json")), format!("{line}\n")))
        .and_then(|()| match &result.trace_jsonl {
            Some(jsonl) => fs::write(out.join(format!("{stem}.spans.jsonl")), jsonl),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: writing results under {}: {e}", out.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}
