//! Table VIII — state lifting respecting vs ignoring property
//! constraints, on the failing designs of Table III (§7-A).
//!
//! The paper's effect: both versions are comparable on failing
//! designs; ignoring constraints may produce spurious counterexamples
//! that force a constrained re-run (counted in the "retries" column).
//! Retries are rare here: each property is checked on its cone first,
//! and a cone counterexample that replays without breaking an assumed
//! property is already a local counterexample. Only the full-design
//! fallback can need a re-run.

use japrove_bench::{fmt_time, limits, Table};
use japrove_core::{separate_verify, SeparateOptions};
use japrove_genbench::failing_specs;
use japrove_ic3::Lifting;
use std::time::Instant;

fn main() {
    let mut table = Table::new(
        "Table VIII: lifting respecting vs ignoring property constraints (failing designs)",
        &[
            "name",
            "#props",
            "respect #unsolved",
            "respect time",
            "ignore #unsolved",
            "ignore time",
            "retries",
        ],
    );
    for spec in failing_specs() {
        let design = spec.generate();
        let sys = &design.sys;

        let t0 = Instant::now();
        let respect = separate_verify(
            sys,
            &SeparateOptions::local()
                .lifting(Lifting::Respect)
                .per_property_timeout(limits::per_property())
                .total_timeout(limits::total()),
        );
        let respect_time = t0.elapsed();

        let t0 = Instant::now();
        let ignore = separate_verify(
            sys,
            &SeparateOptions::local()
                .lifting(Lifting::Ignore)
                .per_property_timeout(limits::per_property())
                .total_timeout(limits::total()),
        );
        let ignore_time = t0.elapsed();
        let retries = ignore.results.iter().filter(|r| r.retried).count();

        table.row(&[
            sys.name(),
            &sys.num_properties().to_string(),
            &respect.num_unsolved().to_string(),
            &fmt_time(respect_time),
            &ignore.num_unsolved().to_string(),
            &fmt_time(ignore_time),
            &retries.to_string(),
        ]);
    }
    table.print();
}
