//! The run journal: a lock-cheap span/event sink shared by every
//! layer of the stack.
//!
//! A [`Journal`] is a cheap cloneable handle. The *disabled* journal
//! (the default) has no buffer at all: every recording call is a
//! single pointer check, so engines can carry a journal field
//! unconditionally with no measurable overhead — the property the
//! `journal_benches` microbench asserts. An *enabled* journal buffers
//! [`Event`]s in sharded mutex-protected vectors (one lock per
//! recording thread shard, taken only for a push) and serializes to
//! JSONL at the end of the run.
//!
//! Spans nest: [`Journal::span`] returns a [`SpanGuard`] that records
//! one [`EventKind::Span`] on drop, with the enclosing span (tracked
//! per thread) as its parent. Point events record the innermost
//! enclosing span the same way, so a trace reader can attribute every
//! solver restart to the property check that caused it.
//!
//! # Examples
//!
//! ```
//! use japrove_obs::{EventKind, Journal, Phase};
//!
//! let journal = Journal::new();
//! {
//!     let _run = journal.span(Phase::Run);
//!     let _enc = journal.span(Phase::Encode);
//!     journal.event(EventKind::Restart { conflicts: 42 });
//! }
//! let events = journal.events();
//! assert_eq!(events.len(), 3); // restart + two spans
//!
//! // The disabled journal records nothing.
//! let off = Journal::disabled();
//! off.event(EventKind::Restart { conflicts: 1 });
//! assert!(!off.enabled());
//! assert!(off.events().is_empty());
//! ```

use crate::json::Value;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of independently locked event buffers.
const SHARDS: usize = 16;

/// The phase taxonomy: what a span measures.
///
/// One shared vocabulary across every driver, instead of per-crate
/// println conventions. `docs/ARCHITECTURE.md` documents which layer
/// emits which phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The whole verification run (the root span).
    Run,
    /// The planning stage of the scheduling pipeline: verdict-cache
    /// consultation, clustering and hardest-first unit ordering by
    /// COI size.
    Plan,
    /// Building the shared CNF encoding of the design, or the BMC
    /// unrolling the enumeration pass shares across properties.
    Encode,
    /// Clustering in the Plan stage of clustered runs: scoring every
    /// property pair and agglomerating the scores into clusters. The
    /// name (`affinity_probe` in traces) is part of the trace schema;
    /// the span runs no solver.
    AffinityProbe,
    /// One cluster's end-to-end verification (joint + fallback).
    Cluster,
    /// A budgeted joint attempt on an aggregate/cone-reduced design.
    JointAttempt,
    /// One property's IC3 check (separate drivers and cluster
    /// fallback).
    Property,
    /// The shallow BMC front-end of the joint driver.
    BmcFrontend,
    /// A whole property-mining pass (candidate generation through
    /// promotion) on one design.
    Mine,
    /// A simulation stage of mining: the candidate-guessing run or the
    /// random filtering runs (labelled `generate` / `filter`).
    MineSim,
    /// A joint k-induction check (mining's promotion stage, or any
    /// direct `KInduction` use).
    Induction,
    /// One property's counterexample-enumeration round (post-verdict),
    /// including the re-derivation of its minimal counterexample depth
    /// and projection set.
    Enum,
    /// One property's XOR-hash bad-state counting round (post-verdict).
    /// When enumeration is off, it also covers the depth and projection
    /// re-derivation.
    Count,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: &'static [Phase] = &[
        Phase::Run,
        Phase::Plan,
        Phase::Encode,
        Phase::AffinityProbe,
        Phase::Cluster,
        Phase::JointAttempt,
        Phase::Property,
        Phase::BmcFrontend,
        Phase::Mine,
        Phase::MineSim,
        Phase::Induction,
        Phase::Enum,
        Phase::Count,
    ];

    /// The wire name used in JSONL (`phase` field).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::Plan => "plan",
            Phase::Encode => "encode",
            Phase::AffinityProbe => "affinity_probe",
            Phase::Cluster => "cluster",
            Phase::JointAttempt => "joint_attempt",
            Phase::Property => "property",
            Phase::BmcFrontend => "bmc_frontend",
            Phase::Mine => "mine",
            Phase::MineSim => "mine_sim",
            Phase::Induction => "induction",
            Phase::Enum => "enum",
            Phase::Count => "count",
        }
    }

    fn parse(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The typed payload of a journal record.
///
/// The `ev` wire names are the trace schema; [`Event::from_json`]
/// rejects unknown kinds, which is what the CI schema check relies on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span: `dur_us` of `phase`, starting at the event's
    /// timestamp. `label` carries the property name / cluster index.
    Span {
        /// What the span measures.
        phase: Phase,
        /// Run-unique span id (parents are recorded via
        /// [`Event::span`]).
        id: u64,
        /// Wall-clock duration in microseconds.
        dur_us: u64,
        /// Optional human label (property name, cluster index, …).
        label: Option<String>,
    },
    /// A SAT-solver restart, with the cumulative conflict count.
    Restart {
        /// Conflicts encountered so far by this solver.
        conflicts: u64,
    },
    /// A learnt-clause database reduction.
    Reduce {
        /// Learnt clauses before the reduction.
        learnt: usize,
        /// Clauses removed by it.
        removed: usize,
    },
    /// A periodic solver progress sample (every
    /// [`SAMPLE_INTERVAL`] conflicts); consecutive samples give the
    /// conflict rate.
    Sample {
        /// Cumulative conflicts.
        conflicts: u64,
        /// Cumulative decisions.
        decisions: u64,
        /// Cumulative propagations.
        propagations: u64,
    },
    /// One completed IC3 frame.
    Frame {
        /// Frame number `k`.
        frame: usize,
        /// Time spent on this frame in microseconds.
        dur_us: u64,
        /// Blocked clauses added during the frame.
        clauses: u64,
        /// Proof obligations handled during the frame.
        obligations: u64,
        /// Literals dropped by generalization during the frame.
        gen_lits: u64,
    },
    /// One completed BMC unrolling depth.
    Unroll {
        /// The depth checked.
        depth: usize,
        /// Time spent on this depth in microseconds.
        dur_us: u64,
    },
    /// A clause-import refresh from a [`ClauseSource`]: how many
    /// clauses the source offered and how many were new to the
    /// engine (the rest were duplicate misses).
    ///
    /// [`ClauseSource`]: https://docs.rs/japrove-ic3
    Import {
        /// Clauses offered by the source delta.
        offered: usize,
        /// Clauses actually added (not already imported).
        added: usize,
    },
    /// A contained fault: an engine panic caught by the supervision
    /// layer, a worker thread lost mid-run, or an injected chaos
    /// action. The run continues; this record is the audit trail (and
    /// what the chaos-smoke CI job greps for).
    Fault {
        /// The named site the fault surfaced at (`check_one`,
        /// `joint_attempt`, `worker`, …).
        site: String,
        /// Human-readable detail: the panic payload or injection note.
        detail: String,
    },
    /// Per-kind provenance of one mining pass: how many candidates of
    /// one taxonomy kind (`const`, `equiv`, `implication`, `one_hot`,
    /// `range`) were generated and where each was retired. Invariant:
    /// `generated = sim_killed + induction_killed + promoted`.
    Mined {
        /// Candidate-kind wire name (the mining taxonomy).
        kind: String,
        /// Candidates of this kind guessed from the signature run.
        generated: usize,
        /// Killed by the random-simulation filter.
        sim_killed: usize,
        /// Killed by the joint k-induction check (base or step).
        induction_killed: usize,
        /// Survivors promoted to real properties.
        promoted: usize,
    },
    /// One falsified property's counterexample-enumeration summary:
    /// how many distinct (projection-set) witnesses were collected at
    /// the minimal counterexample depth.
    Enumerated {
        /// Property name.
        property: String,
        /// Depth the enumeration ran at.
        depth: usize,
        /// Distinct replay-checked counterexamples collected.
        found: usize,
        /// `true` if the projection set was exhausted (no further
        /// distinct witness exists), `false` if the `--enum-max` cap
        /// or a budget stopped the round first.
        exhausted: bool,
    },
    /// One falsified property's XOR-hash bad-state count estimate.
    Counted {
        /// Property name.
        property: String,
        /// Lower end of the `[lo, hi]` estimate.
        lo: u64,
        /// Upper end of the `[lo, hi]` estimate.
        hi: u64,
        /// The XOR-constraint level `s*` at the SAT/UNSAT boundary
        /// (0 when the count is exact).
        level: usize,
        /// Solver trials per level.
        trials: usize,
        /// `true` if the estimate is an exact enumeration, not a hash
        /// bracket.
        exact: bool,
    },
}

/// How often the solver emits [`EventKind::Sample`] records, in
/// conflicts.
pub const SAMPLE_INTERVAL: u64 = 4096;

impl EventKind {
    /// The wire name used in JSONL (`ev` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Span { .. } => "span",
            EventKind::Restart { .. } => "restart",
            EventKind::Reduce { .. } => "reduce",
            EventKind::Sample { .. } => "sample",
            EventKind::Frame { .. } => "frame",
            EventKind::Unroll { .. } => "unroll",
            EventKind::Import { .. } => "import",
            EventKind::Fault { .. } => "fault",
            EventKind::Mined { .. } => "mined",
            EventKind::Enumerated { .. } => "enumerated",
            EventKind::Counted { .. } => "counted",
        }
    }
}

/// A single journal record: a timestamped, thread-attributed
/// [`EventKind`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the journal was created (for spans: the
    /// span's *start*).
    pub ts_us: u64,
    /// Dense id of the recording thread.
    pub thread: u32,
    /// Innermost enclosing span at record time (the *parent* for span
    /// records), if any.
    pub span: Option<u64>,
    /// The typed payload.
    pub kind: EventKind,
}

impl Event {
    /// Serializes to one JSONL object.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("ev".to_string(), Value::Str(self.kind.name().to_string())),
            ("ts_us".to_string(), Value::Int(self.ts_us as i64)),
            ("thread".to_string(), Value::Int(self.thread as i64)),
        ];
        if let Some(s) = self.span {
            pairs.push(("span".to_string(), Value::Int(s as i64)));
        }
        let int = |x: u64| Value::Int(x as i64);
        match &self.kind {
            EventKind::Span {
                phase,
                id,
                dur_us,
                label,
            } => {
                pairs.push(("phase".into(), Value::Str(phase.name().into())));
                pairs.push(("id".into(), int(*id)));
                pairs.push(("dur_us".into(), int(*dur_us)));
                if let Some(l) = label {
                    pairs.push(("label".into(), Value::Str(l.clone())));
                }
            }
            EventKind::Restart { conflicts } => {
                pairs.push(("conflicts".into(), int(*conflicts)));
            }
            EventKind::Reduce { learnt, removed } => {
                pairs.push(("learnt".into(), int(*learnt as u64)));
                pairs.push(("removed".into(), int(*removed as u64)));
            }
            EventKind::Sample {
                conflicts,
                decisions,
                propagations,
            } => {
                pairs.push(("conflicts".into(), int(*conflicts)));
                pairs.push(("decisions".into(), int(*decisions)));
                pairs.push(("propagations".into(), int(*propagations)));
            }
            EventKind::Frame {
                frame,
                dur_us,
                clauses,
                obligations,
                gen_lits,
            } => {
                pairs.push(("frame".into(), int(*frame as u64)));
                pairs.push(("dur_us".into(), int(*dur_us)));
                pairs.push(("clauses".into(), int(*clauses)));
                pairs.push(("obligations".into(), int(*obligations)));
                pairs.push(("gen_lits".into(), int(*gen_lits)));
            }
            EventKind::Unroll { depth, dur_us } => {
                pairs.push(("depth".into(), int(*depth as u64)));
                pairs.push(("dur_us".into(), int(*dur_us)));
            }
            EventKind::Import { offered, added } => {
                pairs.push(("offered".into(), int(*offered as u64)));
                pairs.push(("added".into(), int(*added as u64)));
            }
            EventKind::Fault { site, detail } => {
                pairs.push(("site".into(), Value::Str(site.clone())));
                pairs.push(("detail".into(), Value::Str(detail.clone())));
            }
            EventKind::Mined {
                kind,
                generated,
                sim_killed,
                induction_killed,
                promoted,
            } => {
                pairs.push(("kind".into(), Value::Str(kind.clone())));
                pairs.push(("generated".into(), int(*generated as u64)));
                pairs.push(("sim_killed".into(), int(*sim_killed as u64)));
                pairs.push(("induction_killed".into(), int(*induction_killed as u64)));
                pairs.push(("promoted".into(), int(*promoted as u64)));
            }
            EventKind::Enumerated {
                property,
                depth,
                found,
                exhausted,
            } => {
                pairs.push(("property".into(), Value::Str(property.clone())));
                pairs.push(("depth".into(), int(*depth as u64)));
                pairs.push(("found".into(), int(*found as u64)));
                pairs.push(("exhausted".into(), Value::Bool(*exhausted)));
            }
            EventKind::Counted {
                property,
                lo,
                hi,
                level,
                trials,
                exact,
            } => {
                pairs.push(("property".into(), Value::Str(property.clone())));
                pairs.push(("lo".into(), int(*lo)));
                pairs.push(("hi".into(), int(*hi)));
                pairs.push(("level".into(), int(*level as u64)));
                pairs.push(("trials".into(), int(*trials as u64)));
                pairs.push(("exact".into(), Value::Bool(*exact)));
            }
        }
        Value::Obj(pairs)
    }

    /// Decodes one JSONL object, rejecting unknown event kinds and
    /// missing fields (the trace schema check).
    pub fn from_json(v: &Value) -> Result<Event, SchemaError> {
        let field = |name: &'static str| {
            v.get(name)
                .ok_or(SchemaError::MissingField(name))
                .and_then(|f| f.as_u64().ok_or(SchemaError::BadField(name)))
        };
        let usize_field = |name: &'static str| {
            field(name).and_then(|x| usize::try_from(x).map_err(|_| SchemaError::BadField(name)))
        };
        let ev = v
            .get("ev")
            .and_then(Value::as_str)
            .ok_or(SchemaError::MissingField("ev"))?;
        let kind = match ev {
            "span" => {
                let phase_name = v
                    .get("phase")
                    .and_then(Value::as_str)
                    .ok_or(SchemaError::MissingField("phase"))?;
                let phase = Phase::parse(phase_name)
                    .ok_or_else(|| SchemaError::UnknownPhase(phase_name.to_string()))?;
                EventKind::Span {
                    phase,
                    id: field("id")?,
                    dur_us: field("dur_us")?,
                    label: v
                        .get("label")
                        .map(|l| {
                            l.as_str()
                                .map(str::to_string)
                                .ok_or(SchemaError::BadField("label"))
                        })
                        .transpose()?,
                }
            }
            "restart" => EventKind::Restart {
                conflicts: field("conflicts")?,
            },
            "reduce" => EventKind::Reduce {
                learnt: usize_field("learnt")?,
                removed: usize_field("removed")?,
            },
            "sample" => EventKind::Sample {
                conflicts: field("conflicts")?,
                decisions: field("decisions")?,
                propagations: field("propagations")?,
            },
            "frame" => EventKind::Frame {
                frame: usize_field("frame")?,
                dur_us: field("dur_us")?,
                clauses: field("clauses")?,
                obligations: field("obligations")?,
                gen_lits: field("gen_lits")?,
            },
            "unroll" => EventKind::Unroll {
                depth: usize_field("depth")?,
                dur_us: field("dur_us")?,
            },
            "import" => EventKind::Import {
                offered: usize_field("offered")?,
                added: usize_field("added")?,
            },
            "fault" => {
                let text = |name: &'static str| {
                    v.get(name)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or(SchemaError::MissingField(name))
                };
                EventKind::Fault {
                    site: text("site")?,
                    detail: text("detail")?,
                }
            }
            "mined" => EventKind::Mined {
                kind: v
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or(SchemaError::MissingField("kind"))?
                    .to_string(),
                generated: usize_field("generated")?,
                sim_killed: usize_field("sim_killed")?,
                induction_killed: usize_field("induction_killed")?,
                promoted: usize_field("promoted")?,
            },
            "enumerated" | "counted" => {
                let property = v
                    .get("property")
                    .and_then(Value::as_str)
                    .ok_or(SchemaError::MissingField("property"))?
                    .to_string();
                let bool_field = |name: &'static str| {
                    v.get(name)
                        .ok_or(SchemaError::MissingField(name))
                        .and_then(|f| f.as_bool().ok_or(SchemaError::BadField(name)))
                };
                if ev == "enumerated" {
                    EventKind::Enumerated {
                        property,
                        depth: usize_field("depth")?,
                        found: usize_field("found")?,
                        exhausted: bool_field("exhausted")?,
                    }
                } else {
                    EventKind::Counted {
                        property,
                        lo: field("lo")?,
                        hi: field("hi")?,
                        level: usize_field("level")?,
                        trials: usize_field("trials")?,
                        exact: bool_field("exact")?,
                    }
                }
            }
            other => return Err(SchemaError::UnknownEvent(other.to_string())),
        };
        Ok(Event {
            ts_us: field("ts_us")?,
            thread: field("thread")? as u32,
            span: v
                .get("span")
                .map(|s| s.as_u64().ok_or(SchemaError::BadField("span")))
                .transpose()?,
            kind,
        })
    }
}

/// Why a trace line failed schema validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The line is not valid JSON.
    Json(String),
    /// The `ev` field names a kind this build does not know.
    UnknownEvent(String),
    /// A span names a phase this build does not know.
    UnknownPhase(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field has the wrong type or range.
    BadField(&'static str),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Json(e) => write!(f, "not valid JSON: {e}"),
            SchemaError::UnknownEvent(ev) => write!(f, "unknown event kind '{ev}'"),
            SchemaError::UnknownPhase(p) => write!(f, "unknown span phase '{p}'"),
            SchemaError::MissingField(name) => write!(f, "missing field '{name}'"),
            SchemaError::BadField(name) => write!(f, "malformed field '{name}'"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Parses a JSONL trace, validating every line against the schema.
///
/// Returns the offending line number (1-based) with the first error.
/// Empty lines are ignored.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, (usize, SchemaError)> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Value::parse(line).map_err(|e| (i + 1, SchemaError::Json(e.to_string())))?;
        events.push(Event::from_json(&v).map_err(|e| (i + 1, e))?);
    }
    Ok(events)
}

// Dense per-thread ids and the per-thread span stack. The stack keys
// entries by journal id so two live journals on one thread cannot
// corrupt each other's nesting.
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static NEXT_JOURNAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
struct Inner {
    id: u64,
    epoch: Instant,
    shards: Vec<Mutex<Vec<Event>>>,
    next_span: AtomicU64,
}

/// A cheap handle onto a shared event buffer; see the [module
/// docs](self).
///
/// `Journal::default()` is the disabled journal, so structs can hold
/// one unconditionally.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    inner: Option<Arc<Inner>>,
}

impl Journal {
    /// Creates an enabled journal with a fresh buffer; `ts_us`
    /// timestamps count from this call.
    pub fn new() -> Journal {
        Journal {
            inner: Some(Arc::new(Inner {
                id: NEXT_JOURNAL.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
                next_span: AtomicU64::new(0),
            })),
        }
    }

    /// The disabled journal: every recording call is a no-op behind
    /// one pointer check.
    pub fn disabled() -> Journal {
        Journal { inner: None }
    }

    /// Whether events are being recorded. Callers computing expensive
    /// payloads should guard on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a point event (no-op when disabled).
    #[inline]
    pub fn event(&self, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        Self::push(inner, kind);
    }

    fn push(inner: &Inner, kind: EventKind) {
        let thread = THREAD_ID.with(|t| *t);
        let span = SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(j, _)| *j == inner.id)
                .map(|&(_, id)| id)
        });
        let ev = Event {
            ts_us: inner.epoch.elapsed().as_micros() as u64,
            thread,
            span,
            kind,
        };
        let shard = &inner.shards[thread as usize % SHARDS];
        shard.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
    }

    /// Opens an unlabeled span; the returned guard records it on drop.
    #[inline]
    pub fn span(&self, phase: Phase) -> SpanGuard {
        self.span_inner(phase, None)
    }

    /// Opens a span labeled with a property name, cluster index, etc.
    #[inline]
    pub fn span_labeled(&self, phase: Phase, label: impl Into<String>) -> SpanGuard {
        if self.inner.is_none() {
            return SpanGuard {
                journal: Journal::disabled(),
                phase,
                id: 0,
                start_us: 0,
                label: None,
            };
        }
        self.span_inner(phase, Some(label.into()))
    }

    fn span_inner(&self, phase: Phase, label: Option<String>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                journal: Journal::disabled(),
                phase,
                id: 0,
                start_us: 0,
                label: None,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let start_us = inner.epoch.elapsed().as_micros() as u64;
        SPAN_STACK.with(|s| s.borrow_mut().push((inner.id, id)));
        SpanGuard {
            journal: self.clone(),
            phase,
            id,
            start_us,
            label,
        }
    }

    /// A sorted snapshot of every event recorded so far (by start
    /// timestamp, then thread).
    pub fn events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut all = Vec::new();
        for shard in &inner.shards {
            all.extend(
                shard
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .cloned(),
            );
        }
        all.sort_by_key(|e| (e.ts_us, e.thread));
        all
    }

    /// Writes the journal as JSONL (one event object per line).
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        for ev in self.events() {
            writeln!(w, "{}", ev.to_json())?;
        }
        Ok(())
    }
}

/// An open span; records one [`EventKind::Span`] into its journal on
/// drop. Returned by [`Journal::span`].
#[derive(Debug)]
pub struct SpanGuard {
    journal: Journal,
    phase: Phase,
    id: u64,
    start_us: u64,
    label: Option<String>,
}

impl SpanGuard {
    /// The run-unique span id (0 for guards of a disabled journal).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = &self.journal.inner else {
            return;
        };
        // Unwind this span from the per-thread stack *before*
        // recording, so the event's enclosing span is the parent.
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(j, id)| j == inner.id && id == self.id)
            {
                stack.remove(pos);
            }
        });
        let dur_us = (inner.epoch.elapsed().as_micros() as u64).saturating_sub(self.start_us);
        let thread = THREAD_ID.with(|t| *t);
        let span = SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(j, _)| *j == inner.id)
                .map(|&(_, id)| id)
        });
        let ev = Event {
            ts_us: self.start_us,
            thread,
            span,
            kind: EventKind::Span {
                phase: self.phase,
                id: self.id,
                dur_us,
                label: self.label.take(),
            },
        };
        let shard = &inner.shards[thread as usize % SHARDS];
        shard.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::disabled();
        assert!(!j.enabled());
        j.event(EventKind::Restart { conflicts: 1 });
        {
            let g = j.span(Phase::Run);
            assert_eq!(g.id(), 0);
            j.event(EventKind::Reduce {
                learnt: 10,
                removed: 5,
            });
        }
        assert!(j.events().is_empty());
        assert!(!Journal::default().enabled());
    }

    #[test]
    fn spans_nest_and_attribute_events() {
        let j = Journal::new();
        let run_id;
        let inner_id;
        {
            let run = j.span(Phase::Run);
            run_id = run.id();
            {
                let p = j.span_labeled(Phase::Property, "p0");
                inner_id = p.id();
                j.event(EventKind::Restart { conflicts: 3 });
            }
            j.event(EventKind::Sample {
                conflicts: 1,
                decisions: 2,
                propagations: 3,
            });
        }
        let events = j.events();
        assert_eq!(events.len(), 4);
        let restart = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Restart { .. }))
            .unwrap();
        assert_eq!(restart.span, Some(inner_id));
        let sample = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Sample { .. }))
            .unwrap();
        assert_eq!(sample.span, Some(run_id));
        let prop = events
            .iter()
            .find(|e| {
                matches!(
                    e.kind,
                    EventKind::Span {
                        phase: Phase::Property,
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(prop.span, Some(run_id), "property span's parent is run");
        let run = events
            .iter()
            .find(|e| {
                matches!(
                    e.kind,
                    EventKind::Span {
                        phase: Phase::Run,
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(run.span, None);
    }

    #[test]
    fn two_journals_on_one_thread_do_not_cross() {
        let a = Journal::new();
        let b = Journal::new();
        let _ga = a.span(Phase::Run);
        {
            let _gb = b.span(Phase::Encode);
            a.event(EventKind::Restart { conflicts: 1 });
        }
        let ev = &a.events()[0];
        // a's event must be parented to a's span, not b's.
        assert_eq!(ev.span, Some(_ga.id()));
        assert!(matches!(
            b.events()[0].kind,
            EventKind::Span {
                phase: Phase::Encode,
                ..
            }
        ));
    }

    #[test]
    fn concurrent_workers_keep_independent_stacks() {
        let j = Journal::new();
        let root = j.span(Phase::Run);
        let root_id = root.id();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let j = j.clone();
                scope.spawn(move || {
                    for i in 0..8 {
                        let outer = j.span_labeled(Phase::Cluster, format!("w{w}c{i}"));
                        let _inner = j.span_labeled(Phase::Property, format!("w{w}p{i}"));
                        j.event(EventKind::Import {
                            offered: w,
                            added: i,
                        });
                        drop(_inner);
                        drop(outer);
                    }
                });
            }
        });
        drop(root);
        let events = j.events();
        // 4 workers × 8 iterations × (2 spans + 1 event) + root span.
        assert_eq!(events.len(), 4 * 8 * 3 + 1);
        // Worker spans never nest under another worker's span: each
        // cluster span is top-level (no parent — workers started after
        // the root opened on a *different* thread, so the root is not
        // on their stacks), and each property span's parent is a
        // cluster span from the same thread.
        let mut by_id = std::collections::HashMap::new();
        for e in &events {
            if let EventKind::Span { id, .. } = e.kind {
                by_id.insert(id, e);
            }
        }
        for e in &events {
            match &e.kind {
                EventKind::Span {
                    phase: Phase::Property,
                    ..
                } => {
                    let parent = by_id[&e.span.expect("property span has a parent")];
                    assert!(matches!(
                        parent.kind,
                        EventKind::Span {
                            phase: Phase::Cluster,
                            ..
                        }
                    ));
                    assert_eq!(parent.thread, e.thread, "parent on the same worker");
                }
                EventKind::Import { .. } => {
                    let parent = by_id[&e.span.expect("event inside a span")];
                    assert_eq!(parent.thread, e.thread);
                }
                EventKind::Span {
                    phase: Phase::Cluster,
                    id,
                    ..
                } => {
                    assert!(e.span.is_none(), "cluster span {id} must be top-level");
                }
                _ => {}
            }
        }
        assert!(by_id.contains_key(&root_id));
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let j = Journal::new();
        {
            let _run = j.span(Phase::Run);
            let _p = j.span_labeled(Phase::Property, "safety[0]");
            j.event(EventKind::Restart { conflicts: 17 });
            j.event(EventKind::Reduce {
                learnt: 100,
                removed: 50,
            });
            j.event(EventKind::Sample {
                conflicts: 4096,
                decisions: 9999,
                propagations: 123456,
            });
            j.event(EventKind::Frame {
                frame: 3,
                dur_us: 250,
                clauses: 12,
                obligations: 7,
                gen_lits: 30,
            });
            j.event(EventKind::Unroll {
                depth: 9,
                dur_us: 77,
            });
            j.event(EventKind::Import {
                offered: 40,
                added: 13,
            });
            j.event(EventKind::Fault {
                site: "check_one".into(),
                detail: "injected fault at check_one (p0)".into(),
            });
            j.event(EventKind::Mined {
                kind: "equiv".into(),
                generated: 120,
                sim_killed: 30,
                induction_killed: 15,
                promoted: 75,
            });
            j.event(EventKind::Enumerated {
                property: "lt3".into(),
                depth: 3,
                found: 4,
                exhausted: true,
            });
            j.event(EventKind::Counted {
                property: "lt3".into(),
                lo: 64,
                hi: 1024,
                level: 8,
                trials: 5,
                exact: false,
            });
        }
        let mut buf = Vec::new();
        j.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, j.events());
    }

    #[test]
    fn schema_rejects_unknown_event_kinds() {
        let good = r#"{"ev":"restart","ts_us":1,"thread":0,"conflicts":2}"#;
        assert!(parse_jsonl(good).is_ok());
        let unknown = r#"{"ev":"teleport","ts_us":1,"thread":0}"#;
        assert_eq!(
            parse_jsonl(unknown),
            Err((1, SchemaError::UnknownEvent("teleport".into())))
        );
        let bad_phase = r#"{"ev":"span","ts_us":1,"thread":0,"phase":"warp","id":0,"dur_us":1}"#;
        assert_eq!(
            parse_jsonl(bad_phase),
            Err((1, SchemaError::UnknownPhase("warp".into())))
        );
        let missing = r#"{"ev":"restart","ts_us":1,"thread":0}"#;
        assert_eq!(
            parse_jsonl(missing),
            Err((1, SchemaError::MissingField("conflicts")))
        );
        let not_json = "this is not json";
        assert!(matches!(
            parse_jsonl(not_json),
            Err((1, SchemaError::Json(_)))
        ));
        // Line numbers point at the offending line.
        let two_lines = format!("{good}\n{unknown}");
        assert_eq!(
            parse_jsonl(&two_lines),
            Err((2, SchemaError::UnknownEvent("teleport".into())))
        );
    }

    #[test]
    fn phase_names_round_trip() {
        for &p in Phase::ALL {
            assert_eq!(Phase::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(Phase::parse("nope"), None);
    }
}
