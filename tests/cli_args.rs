//! Hostile command-line arguments: every bad value must end in a clean
//! exit code 2 with an error message, never a panic. Hostile property
//! names must not steer where witness files are written.

use std::path::{Path, PathBuf};
use std::process::Output;

/// A one-latch design whose only property holds (bad = constant false).
const SAFE_AAG: &str = "aag 1 0 1 0 0 1\n2 3\n0\n";

/// A toggling latch with two properties that both fail at depth 1
/// (bad = latch high), each named `../escaped` in the symbol table.
const ESCAPING_AAG: &str = "aag 1 0 1 0 0 2\n2 3\n2\n2\nb0 ../escaped\nb1 ../escaped\n";

/// A per-test scratch directory holding the design, removed on drop.
struct Design {
    dir: PathBuf,
}

impl Design {
    fn new(stem: &str) -> Design {
        Design::with_aag(stem, SAFE_AAG)
    }

    fn with_aag(stem: &str, aag: &str) -> Design {
        let dir = std::env::temp_dir().join(format!("japrove_cli_{stem}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("design.aag"), aag).unwrap();
        Design { dir }
    }

    fn run(&self, args: &[&str]) -> Output {
        std::process::Command::new(env!("CARGO_BIN_EXE_japrove"))
            .args(args)
            .arg(self.dir.join("design.aag"))
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

/// The dispatch-order and affinity-metric flags were removed with the
/// only code they selected; they must now be rejected like any unknown
/// option.
#[test]
fn removed_flags_are_unknown_options() {
    let design = Design::new("removed");
    for (name, value) in [
        ("schedule", "steal"),
        ("cost-model", "f.jsonl"),
        ("affinity", "hybrid"),
        ("affinity", "jaccard"),
    ] {
        let flag = format!("--{name}");
        let args = [flag.as_str(), value];
        assert_usage_error(&design.run(&args), &args, "unknown option");
    }
}

/// Sorted names of the entries of `dir`.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Property names are taken verbatim from the symbol table: a name
/// holding `../` must not write outside `--witness-dir`, and two
/// properties of the same name must not overwrite each other's witness.
#[test]
fn witness_files_stay_inside_the_directory_and_never_collide() {
    let design = Design::with_aag("witness", ESCAPING_AAG);
    let out = design.dir.join("out");
    let out_arg = out.to_str().unwrap();
    let run = design.run(&["--witness-dir", out_arg, "-q"]);
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let written = entries(&out);
    assert_eq!(written.len(), 2, "{written:?}");
    assert!(written.iter().all(|f| f.ends_with(".cex")), "{written:?}");
    assert_eq!(entries(&design.dir), ["design.aag", "out"]);
}
