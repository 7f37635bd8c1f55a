//! Hostile command-line arguments: every bad value must end in a clean
//! exit code 2 with an error message, never a panic.

use std::path::PathBuf;
use std::process::Output;

/// A one-latch design whose only property holds (bad = constant false).
const SAFE_AAG: &str = "aag 1 0 1 0 0 1\n2 3\n0\n";

/// A per-test scratch directory holding the design, removed on drop.
struct Design {
    dir: PathBuf,
}

impl Design {
    fn new(stem: &str) -> Design {
        let dir = std::env::temp_dir().join(format!("japrove_cli_{stem}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("safe.aag"), SAFE_AAG).unwrap();
        Design { dir }
    }

    fn run(&self, args: &[&str]) -> Output {
        std::process::Command::new(env!("CARGO_BIN_EXE_japrove"))
            .args(args)
            .arg(self.dir.join("safe.aag"))
            .output()
            .unwrap()
    }
}

impl Drop for Design {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Asserts a clean usage error: exit 2, no panic, and a message on
/// stderr that mentions `needle`.
fn assert_usage_error(out: &Output, args: &[&str], needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn hostile_time_values_exit_2_naming_the_flag() {
    let design = Design::new("time");
    for (flag, value) in [
        ("--per-property", "-1"),
        ("--per-property", "1e30"),
        ("--per-property", "soon"),
        ("--total", "nan"),
        ("--total", "inf"),
        ("--total", "-0.5"),
        ("--property-timeout", "1e30"),
        ("--property-timeout", "0"),
        ("--property-timeout", "-inf"),
    ] {
        let args = [flag, value];
        assert_usage_error(&design.run(&args), &args, flag);
    }
}

#[test]
fn zero_stays_a_valid_time_limit_where_it_was() {
    let design = Design::new("zero");
    for flag in ["--per-property", "--total"] {
        let out = design.run(&[flag, "0", "-q"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
    }
    let out = design.run(&["--property-timeout", "2.5", "-q"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// The dispatch-order flags were removed with the only code they
/// selected; they must now be rejected like any unknown option.
#[test]
fn removed_dispatch_flags_are_unknown_options() {
    let design = Design::new("removed");
    for (name, value) in [("schedule", "steal"), ("cost-model", "f.jsonl")] {
        let flag = format!("--{name}");
        let args = [flag.as_str(), value];
        assert_usage_error(&design.run(&args), &args, "unknown option");
    }
}
