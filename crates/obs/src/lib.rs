//! # japrove-obs
//!
//! The unified run journal: one event taxonomy for the whole stack
//! instead of per-crate printlns.
//!
//! * [`Journal`] — a lock-cheap span/event sink every layer reports
//!   into: the SAT solver (restart/reduction/conflict-rate samples),
//!   the IC3/BMC engines (per-frame and per-depth timings,
//!   clause-import hit rates) and the multi-property drivers
//!   (per-property and per-cluster phase spans). The disabled journal
//!   is the default and costs one pointer check per call site.
//! * [`journal::parse_jsonl`] — JSONL round-trip and the strict
//!   schema check CI runs on emitted traces.
//! * [`metrics`] — aggregates a journal into the `--metrics`
//!   phase-breakdown table.
//! * [`FeatureStore`] / [`RunRecord`] — persistent per-(design,
//!   property) cost records across runs: an observability record of
//!   what each property cost to verify.
//! * [`fault`] — the deterministic fault-injection harness: a seeded
//!   [`FaultPlan`](fault::FaultPlan) injects panics, delays and torn
//!   store writes at named sites, so chaos behavior reproduces in
//!   tests and CI.
//! * [`persist`] — checksummed-line atomic JSONL writes, shared by the
//!   feature store and the verdict cache: a crash between saves never
//!   yields an unreadable store.
//!
//! This crate depends on nothing but `std`, so every other crate in
//! the workspace can report into it.
//!
//! # Examples
//!
//! ```
//! use japrove_obs::{EventKind, Journal, Phase};
//!
//! let journal = Journal::new();
//! {
//!     let _run = journal.span(Phase::Run);
//!     let _prop = journal.span_labeled(Phase::Property, "safety[3]");
//!     journal.event(EventKind::Restart { conflicts: 128 });
//! }
//! let mut jsonl = Vec::new();
//! journal.write_jsonl(&mut jsonl).unwrap();
//! let parsed = japrove_obs::journal::parse_jsonl(
//!     std::str::from_utf8(&jsonl).unwrap(),
//! ).unwrap();
//! assert_eq!(parsed, journal.events());
//! ```

pub mod fault;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod record;

pub use journal::{Event, EventKind, Journal, Phase, SchemaError, SpanGuard, SAMPLE_INTERVAL};
pub use record::{FeatureStore, RunRecord, StoreError};
