//! The runner profile printed with every result: what machine and
//! toolchain produced the numbers.

use std::process::Command;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of `program args…`, or `"unknown"` when it cannot run
/// (the acceptance checkout is not a git repository, for one).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc -V`.
pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}

/// Short hash of the checked-out commit.
pub fn git_commit() -> String {
    first_line(
        "git",
        &[
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ],
    )
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_fields_are_present() {
        assert!(nproc() >= 1);
        assert!(!rustc_version().is_empty());
        assert!(!git_commit().is_empty());
        assert_eq!(first_line("definitely-not-a-program", &[]), "unknown");
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
