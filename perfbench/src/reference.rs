//! Committed digests of each workload's output at its reference seed, the
//! cross-commit half of the output checks (the in-run half compares against
//! the program's own entry points). `reference.txt` holds one
//! `workload size seed digest` line per entry and is regenerated with
//! `perfbench --print-digests`.

use crate::Size;

/// The digest table compiled into the benchmark.
pub const COMMITTED: &str = include_str!("../reference.txt");

/// A parsed digest table.
#[derive(Debug, Clone, Default)]
pub struct References {
    entries: Vec<(String, String, u64, String)>,
}

impl References {
    /// Parse a table; blank lines and `#` comments are skipped.
    ///
    /// # Errors
    /// A message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, size, seed, digest] = fields[..] else {
                return Err(format!("reference line {}: expected 4 fields", i + 1));
            };
            let seed = seed
                .parse()
                .map_err(|e| format!("reference line {}: bad seed: {e}", i + 1))?;
            entries.push((workload.into(), size.into(), seed, digest.into()));
        }
        Ok(Self { entries })
    }

    /// The committed table.
    ///
    /// # Errors
    /// When the compiled-in table is malformed.
    pub fn committed() -> Result<Self, String> {
        Self::parse(COMMITTED)
    }

    /// The digest recorded for `workload` at `size`, with its seed.
    pub fn get(&self, workload: &str, size: Size) -> Option<(u64, &str)> {
        self.entries
            .iter()
            .find(|(w, s, _, _)| w == workload && s == size.label())
            .map(|(_, _, seed, digest)| (*seed, digest.as_str()))
    }
}

/// Render a table from `(workload, size, seed, digest)` rows.
pub fn render(rows: &[(&str, Size, u64, String)]) -> String {
    let mut out = String::from(
        "# perfbench reference digests: workload size seed digest\n\
         # Regenerate with: perfbench --print-digests > perfbench/reference.txt\n",
    );
    for (workload, size, seed, digest) in rows {
        out.push_str(&format!("{workload} {} {seed} {digest}\n", size.label()));
    }
    out
}
