//! The reproduction's experiment harness.
//!
//! [`figures`] computes every table of the paper's evaluation (Figs
//! 3–7, the §4.4 FEC result) and of this repository's ablations and
//! extensions, each once, from the models and, where applicable, the
//! executable system. `rekey reproduce [--only NAME[,NAME…]]` prints
//! them and writes each to `target/figures/<NAME>.csv`;
//! `tests/paper_claims.rs` is the one place that asserts the paper's
//! claims on them. [`emit`] writes the `BENCH_*.json` reports of the
//! per-layer perf benches in `benches/` (`perf_crypto`, `perf_obs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod figures;

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Prints a fixed-width table with a title and rule lines.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Writes a CSV with the same data to `<dir>/<name>.csv`, creating
/// `dir`, and returns the path.
///
/// # Panics
///
/// Panics on I/O errors.
pub fn write_csv(dir: &Path, name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    fs::create_dir_all(dir).expect("create figures dir");
    let path = dir.join(format!("{name}.csv"));
    let mut file = fs::File::create(&path).expect("create csv");
    writeln!(file, "{}", headers.join(",")).expect("write csv header");
    for row in rows {
        writeln!(file, "{}", row.join(",")).expect("write csv row");
    }
    println!("[csv] {}", path.display());
    path
}

/// Formats a float with the given precision (convenience for rows).
pub fn fmt(value: f64, precision: usize) -> String {
    format!("{value:.precision$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rekey-bench-csv-{}", std::process::id()));
        let path = write_csv(
            &dir,
            "unit_test_csv",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
