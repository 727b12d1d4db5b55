//! Output checks against the repository's simulator golden file.
//!
//! `tests/golden/sim_registry.txt` pins, per registry model compiled on
//! DynaPlasia at batch 1, seq 16, the engine's pipelined cycles, total
//! energy and switch count, each printed with 9 significant digits. The
//! benchmark reads it in place and formats its own results the same
//! way, so a check is an exact string comparison.

use std::collections::BTreeMap;
use std::fs;

/// The golden file, read in place from the repository.
pub const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/golden/sim_registry.txt"
);

/// One model's simulated summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimLine {
    cycles: String,
    energy_pj: String,
    switches: u64,
}

impl SimLine {
    /// Formats an engine result the way the golden file prints it.
    pub fn new(cycles: f64, energy_pj: f64, switches: u64) -> Self {
        SimLine {
            cycles: format!("{cycles:.9e}"),
            energy_pj: format!("{energy_pj:.9e}"),
            switches,
        }
    }
}

/// The golden summaries, by model name.
#[derive(Debug, Clone)]
pub struct Golden {
    lines: BTreeMap<String, SimLine>,
}

impl Golden {
    /// Reads and parses the golden file.
    ///
    /// # Errors
    ///
    /// A message naming the file when it is missing or malformed.
    pub fn load() -> Result<Self, String> {
        let text = fs::read_to_string(GOLDEN_PATH)
            .map_err(|e| format!("cannot read {GOLDEN_PATH}: {e}"))?;
        let mut lines = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let mut words = line.split_whitespace();
            let model = words.next().ok_or("empty golden line")?;
            let mut field = |key: &str| -> Result<String, String> {
                words
                    .next()
                    .and_then(|w| w.strip_prefix(key))
                    .map(str::to_string)
                    .ok_or_else(|| format!("golden line for {model} lacks `{key}`"))
            };
            let cycles = field("cycles=")?;
            let energy_pj = field("energy_pj=")?;
            let switches = field("switches=")?
                .parse()
                .map_err(|e| format!("golden switches for {model}: {e}"))?;
            lines.insert(
                model.to_string(),
                SimLine {
                    cycles,
                    energy_pj,
                    switches,
                },
            );
        }
        Ok(Golden { lines })
    }

    /// Whether `model`'s result matches its golden line exactly.
    pub fn matches(&self, model: &str, got: &SimLine) -> bool {
        self.lines.get(model) == Some(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_parses_and_formats_round_trip() {
        let g = Golden::load().expect("golden file present");
        let line = SimLine::new(4.801619200e4, 5.601550936e9, 101);
        assert!(g.matches("bert-base", &line));
        assert!(!g.matches(
            "bert-base",
            &SimLine::new(4.801619200e4, 5.601550936e9, 100)
        ));
    }
}
