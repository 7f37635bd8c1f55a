//! Multi-property verification reports.

use japrove_ic3::{CheckOutcome, Counterexample, RunStats};
use japrove_sat::BackendChoice;
use japrove_tsys::PropertyId;
use std::fmt;
use std::time::Duration;

/// Whether a verdict was established globally (w.r.t. `T`) or locally
/// (w.r.t. the projection `T^P`, §2-C).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// No assumptions: plain model checking.
    Global,
    /// Under the assumption that every ETH property holds in every
    /// non-final state. The drivers prove such a verdict on the
    /// property's cone first, assuming only the ETH properties whose
    /// latch support lies inside its own; a proof under fewer
    /// assumptions is also a proof under all of them.
    Local,
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Global => write!(f, "global"),
            Scope::Local => write!(f, "local"),
        }
    }
}

/// The per-property outcome of a multi-property run.
#[derive(Clone, Debug)]
pub struct PropertyResult {
    /// Which property.
    pub id: PropertyId,
    /// Its name.
    pub name: String,
    /// Engine verdict.
    pub outcome: CheckOutcome,
    /// Proof scope of the verdict.
    pub scope: Scope,
    /// Wall-clock time spent on this property.
    pub time: Duration,
    /// Frames the engine opened ("#time frames" in the paper tables).
    pub frames: usize,
    /// `true` if the property was re-run with constraint-respecting
    /// lifting after a spurious counterexample (§7-A).
    pub retried: bool,
    /// SAT backend that produced this verdict.
    pub backend: BackendChoice,
    /// Engine counters for this property's run, including the SAT
    /// effort attributable to it (warm solvers report deltas). Default
    /// (all zeros) for verdicts that never reached an engine, e.g.
    /// deadline-expired properties.
    pub stats: RunStats,
    /// `true` if the verdict came from the verdict cache (re-certified
    /// evidence from an earlier run) rather than a fresh engine run.
    pub cached: bool,
}

impl PropertyResult {
    /// `true` if the property was proved (in its scope).
    pub fn holds(&self) -> bool {
        self.outcome.is_proved()
    }

    /// `true` if the property was falsified (in its scope).
    pub fn fails(&self) -> bool {
        self.outcome.is_falsified()
    }

    /// The counterexample, if falsified.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        self.outcome.counterexample()
    }
}

/// The result of verifying all properties of one design with one
/// method.
///
/// # Examples
///
/// ```
/// use japrove_core::MultiReport;
/// let report = MultiReport::new("design", "ja-verification");
/// assert_eq!(report.num_solved(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct MultiReport {
    /// Design name.
    pub design: String,
    /// Method label (e.g. `"ja-verification"`, `"joint"`).
    pub method: String,
    /// Per-property results.
    pub results: Vec<PropertyResult>,
    /// Post-verdict enumeration/counting outcomes (one per falsified
    /// property; empty unless the session ran with
    /// [`EnumOptions`](crate::EnumOptions)).
    pub enumerations: Vec<crate::PropertyEnumeration>,
    /// Total wall-clock time.
    pub total_time: Duration,
}

impl MultiReport {
    /// Creates an empty report.
    pub fn new(design: impl Into<String>, method: impl Into<String>) -> Self {
        MultiReport {
            design: design.into(),
            method: method.into(),
            results: Vec::new(),
            enumerations: Vec::new(),
            total_time: Duration::ZERO,
        }
    }

    /// Number of properties proved (in their scope).
    pub fn num_true(&self) -> usize {
        self.results.iter().filter(|r| r.holds()).count()
    }

    /// Number of properties falsified (in their scope).
    pub fn num_false(&self) -> usize {
        self.results.iter().filter(|r| r.fails()).count()
    }

    /// Number of properties left unsolved.
    pub fn num_unsolved(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome.is_unknown())
            .count()
    }

    /// Number of properties with a definite verdict.
    pub fn num_solved(&self) -> usize {
        self.results.len() - self.num_unsolved()
    }

    /// The debugging set: properties that fail *locally* (§4). For
    /// global methods this is empty.
    pub fn debugging_set(&self) -> Vec<PropertyId> {
        self.results
            .iter()
            .filter(|r| r.fails() && r.scope == Scope::Local)
            .map(|r| r.id)
            .collect()
    }

    /// The result for a given property, if recorded.
    pub fn result(&self, id: PropertyId) -> Option<&PropertyResult> {
        self.results.iter().find(|r| r.id == id)
    }

    /// A one-line summary matching the paper's table style:
    /// `#false (#true)  time  #unsolved`.
    pub fn summary(&self) -> String {
        format!(
            "{} ({})  {:.2}s  {} unsolved",
            self.num_false(),
            self.num_true(),
            self.total_time.as_secs_f64(),
            self.num_unsolved()
        )
    }
}

impl fmt::Display for MultiReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}]: {} properties, {} false, {} true, {} unsolved, {:.2}s",
            self.design,
            self.method,
            self.results.len(),
            self.num_false(),
            self.num_true(),
            self.num_unsolved(),
            self.total_time.as_secs_f64()
        )?;
        for r in &self.results {
            writeln!(
                f,
                "  {:>6}  {:<24} {:<10} {:>9.3}s  frames={}{}{}",
                r.id.to_string(),
                r.name,
                format!("{} ({})", self.verdict_word(r), r.scope),
                r.time.as_secs_f64(),
                r.frames,
                if r.backend == BackendChoice::default() {
                    String::new()
                } else {
                    format!("  [{}]", r.backend)
                },
                if r.retried {
                    "  [retried]"
                } else if r.cached {
                    "  [cached]"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

impl MultiReport {
    fn verdict_word(&self, r: &PropertyResult) -> &'static str {
        match &r.outcome {
            CheckOutcome::Proved(_) => "holds",
            CheckOutcome::Falsified(_) => "fails",
            CheckOutcome::Unknown(_) => "unknown",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use japrove_ic3::Certificate;

    fn result(i: usize, outcome: CheckOutcome, scope: Scope) -> PropertyResult {
        PropertyResult {
            id: PropertyId::new(i),
            name: format!("p{i}"),
            outcome,
            scope,
            time: Duration::from_millis(10),
            frames: 1,
            retried: false,
            backend: BackendChoice::default(),
            stats: RunStats::default(),
            cached: false,
        }
    }

    #[test]
    fn counts_and_debugging_set() {
        use japrove_ic3::UnknownReason;
        use japrove_tsys::Trace;
        let cex = Counterexample {
            trace: Trace::new(vec![vec![]], vec![vec![]]),
            depth: 0,
        };
        let mut rep = MultiReport::new("d", "ja");
        rep.results.push(result(
            0,
            CheckOutcome::Proved(Certificate::default()),
            Scope::Local,
        ));
        rep.results.push(result(
            1,
            CheckOutcome::Falsified(cex.clone()),
            Scope::Local,
        ));
        rep.results.push(result(
            2,
            CheckOutcome::Unknown(UnknownReason::Budget),
            Scope::Local,
        ));
        rep.results
            .push(result(3, CheckOutcome::Falsified(cex), Scope::Global));
        assert_eq!(rep.num_true(), 1);
        assert_eq!(rep.num_false(), 2);
        assert_eq!(rep.num_unsolved(), 1);
        assert_eq!(rep.num_solved(), 3);
        assert_eq!(rep.debugging_set(), vec![PropertyId::new(1)]);
        assert!(rep.summary().contains("2 (1)"));
        assert!(rep.to_string().contains("fails"));
        assert!(rep.result(PropertyId::new(2)).is_some());
        assert!(rep.result(PropertyId::new(9)).is_none());
    }
}
