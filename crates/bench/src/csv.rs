//! Tiny CSV writer for experiment outputs (kept dependency-free).

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Resolves the workspace-level `results/` directory, creating it if
/// needed.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes rows to `results/<name>.csv` with a header line.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_file_with_header_and_rows() {
        let p = write_csv("selftest", "a,b", &["1,2".to_string(), "3,4".to_string()]);
        let content = fs::read_to_string(&p).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        let _ = fs::remove_file(p);
    }
}
