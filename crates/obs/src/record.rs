//! The persistent feature store: per-(design, property) cost records
//! accumulated across runs.
//!
//! It is an observability record: it answers what each property
//! *observably* cost (time and SAT effort) in earlier runs, so slow
//! properties can be compared across runs and revisions. Records are
//! keyed by the design's structural hash (so renamed files with
//! identical logic share history) plus the property name, and stored
//! as JSONL so stores diff, merge and grep cleanly.

use crate::json::Value;
use crate::persist;
use std::fmt;
use std::io;
use std::path::Path;

/// Observed features of one property's verification in one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunRecord {
    /// Structural hash of the design, in fixed-width hex.
    pub design: String,
    /// The property's name.
    pub property: String,
    /// The driver mode that produced this record (`ja`, `clustered`,
    /// …).
    pub mode: String,
    /// Final verdict: `holds`, `fails` or `unknown`.
    pub verdict: String,
    /// Wall-clock spent on the property, in microseconds.
    pub time_us: u64,
    /// IC3 frames reached.
    pub frames: u64,
    /// SAT conflicts spent.
    pub conflicts: u64,
    /// SAT decisions spent.
    pub decisions: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Solver restarts performed.
    pub restarts: u64,
}

impl RunRecord {
    /// Serializes to one JSONL object.
    pub fn to_json(&self) -> Value {
        let int = |x: u64| Value::Int(x as i64);
        Value::Obj(vec![
            ("design".into(), Value::Str(self.design.clone())),
            ("property".into(), Value::Str(self.property.clone())),
            ("mode".into(), Value::Str(self.mode.clone())),
            ("verdict".into(), Value::Str(self.verdict.clone())),
            ("time_us".into(), int(self.time_us)),
            ("frames".into(), int(self.frames)),
            ("conflicts".into(), int(self.conflicts)),
            ("decisions".into(), int(self.decisions)),
            ("propagations".into(), int(self.propagations)),
            ("restarts".into(), int(self.restarts)),
        ])
    }

    /// Decodes one JSONL object.
    pub fn from_json(v: &Value) -> Result<RunRecord, StoreError> {
        let s = |name: &'static str| {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(StoreError::Field(name))
        };
        let n = |name: &'static str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or(StoreError::Field(name))
        };
        let record = RunRecord {
            design: s("design")?,
            property: s("property")?,
            mode: s("mode")?,
            verdict: s("verdict")?,
            time_us: n("time_us")?,
            frames: n("frames")?,
            conflicts: n("conflicts")?,
            decisions: n("decisions")?,
            propagations: n("propagations")?,
            restarts: n("restarts")?,
        };
        if !matches!(record.verdict.as_str(), "holds" | "fails" | "unknown") {
            return Err(StoreError::Field("verdict"));
        }
        Ok(record)
    }
}

/// Why a feature-store file failed to load.
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read or written.
    Io(io::Error),
    /// A line is not valid JSON.
    Json(usize, String),
    /// A line's CRC-32 prefix does not match its body.
    Checksum(usize),
    /// A record is missing or mistypes a field (named).
    Field(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "feature store I/O error: {e}"),
            StoreError::Json(line, e) => write!(f, "feature store line {line}: {e}"),
            StoreError::Checksum(line) => {
                write!(f, "feature store line {line}: checksum mismatch")
            }
            StoreError::Field(name) => write!(f, "feature store record: bad field '{name}'"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// A load-merge-save collection of [`RunRecord`]s keyed by
/// `(design, property, mode)` — the newest record per key wins.
///
/// # Examples
///
/// ```
/// use japrove_obs::{FeatureStore, RunRecord};
///
/// let mut store = FeatureStore::default();
/// store.upsert(RunRecord {
///     design: "00000000deadbeef".into(),
///     property: "p0".into(),
///     mode: "clustered".into(),
///     verdict: "holds".into(),
///     time_us: 1500,
///     frames: 3,
///     conflicts: 40,
///     decisions: 90,
///     propagations: 900,
///     restarts: 1,
/// });
/// assert_eq!(store.len(), 1);
/// assert!(store.get("00000000deadbeef", "p0").is_some());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FeatureStore {
    records: Vec<RunRecord>,
}

impl FeatureStore {
    /// Loads a store from a JSONL file; a missing file is an empty
    /// store (first run), any other error is reported.
    pub fn load(path: impl AsRef<Path>) -> Result<FeatureStore, StoreError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(FeatureStore::default()),
            Err(e) => return Err(e.into()),
        };
        let mut store = FeatureStore::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let body = persist::decode_line(line).map_err(|_| StoreError::Checksum(i + 1))?;
            let v = Value::parse(body).map_err(|e| StoreError::Json(i + 1, e.to_string()))?;
            store.upsert(RunRecord::from_json(&v)?);
        }
        Ok(store)
    }

    /// Writes the store back as JSONL, one checksummed record per line,
    /// through [`persist::atomic_write`] — a crash between saves leaves
    /// either the old or the new complete store, never a torn file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&persist::encode_line(&r.to_json().to_string()));
            out.push('\n');
        }
        persist::atomic_write(path, &out, "feature_store_save")?;
        Ok(())
    }

    /// Loads a store, skipping (instead of rejecting) malformed or
    /// stale lines: lines failing their checksum, lines that are not
    /// valid JSON, records missing or mistyping a field, and records
    /// whose verdict is not one of `holds`/`fails`/`unknown`. Returns
    /// the store together with the number of skipped lines, so callers
    /// can surface a counted warning — a half-corrupted store from a
    /// crashed run must never take the next run down with it.
    pub fn load_lossy(path: impl AsRef<Path>) -> Result<(FeatureStore, usize), StoreError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((FeatureStore::default(), 0))
            }
            Err(e) => return Err(e.into()),
        };
        let mut store = FeatureStore::default();
        let mut skipped = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match persist::decode_line(line)
                .ok()
                .and_then(|body| Value::parse(body).ok())
                .and_then(|v| RunRecord::from_json(&v).ok())
            {
                Some(record) => store.upsert(record),
                None => skipped += 1,
            }
        }
        Ok((store, skipped))
    }

    /// Inserts `record`, replacing any existing record with the same
    /// `(design, property, mode)` key.
    pub fn upsert(&mut self, record: RunRecord) {
        match self.records.iter_mut().find(|r| {
            r.design == record.design && r.property == record.property && r.mode == record.mode
        }) {
            Some(existing) => *existing = record,
            None => self.records.push(record),
        }
    }

    /// The most recent record for `(design, property)` in any mode;
    /// use [`FeatureStore::records`] for exact-mode lookups.
    pub fn get(&self, design: &str, property: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.design == design && r.property == property)
    }

    /// Every stored record, in insertion order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Every record for one design (by structural-hash hex key), in
    /// insertion order. Because
    /// records are keyed by [`japrove's structural hash`](RunRecord::design)
    /// rather than the file name, a renamed-but-identical design still
    /// finds its history.
    pub fn for_design<'a>(&'a self, design: &'a str) -> impl Iterator<Item = &'a RunRecord> + 'a {
        self.records.iter().filter(move |r| r.design == design)
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(property: &str, mode: &str, time_us: u64) -> RunRecord {
        RunRecord {
            design: "0123456789abcdef".into(),
            property: property.into(),
            mode: mode.into(),
            verdict: "holds".into(),
            time_us,
            frames: 2,
            conflicts: 10,
            decisions: 20,
            propagations: 200,
            restarts: 0,
        }
    }

    #[test]
    fn upsert_replaces_same_key_only() {
        let mut store = FeatureStore::default();
        store.upsert(record("p0", "ja", 100));
        store.upsert(record("p0", "clustered", 200));
        store.upsert(record("p0", "ja", 150));
        assert_eq!(store.len(), 2);
        let ja = store.records().iter().find(|r| r.mode == "ja").unwrap();
        assert_eq!(ja.time_us, 150);
    }

    #[test]
    fn load_save_round_trip() {
        let dir = std::env::temp_dir().join(format!("japrove_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        let mut store = FeatureStore::default();
        store.upsert(record("p0", "ja", 100));
        store.upsert(record("p1", "ja", 250));
        store.save(&path).unwrap();
        let loaded = FeatureStore::load(&path).unwrap();
        assert_eq!(loaded, store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saved_lines_are_checksummed_and_corruption_is_caught() {
        let dir = std::env::temp_dir().join(format!("japrove_store_crc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        let mut store = FeatureStore::default();
        store.upsert(record("p0", "ja", 100));
        store.upsert(record("p1", "ja", 250));
        store.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().all(|l| l.as_bytes()[8] == b' '),
            "every saved line carries a crc prefix"
        );
        // Flip a byte inside the second line's body: strict load names
        // the line, lossy load skips it and keeps the rest.
        std::fs::write(
            &path,
            text.replacen("\"time_us\":250", "\"time_us\":999", 1),
        )
        .unwrap();
        match FeatureStore::load(&path) {
            Err(StoreError::Checksum(2)) => {}
            other => panic!("expected a checksum error on line 2, got {other:?}"),
        }
        let (lossy, skipped) = FeatureStore::load_lossy(&path).unwrap();
        assert_eq!((lossy.len(), skipped), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_store() {
        let store = FeatureStore::load("/nonexistent/japrove/store.jsonl").unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let dir = std::env::temp_dir().join(format!("japrove_store_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{\"design\":\"x\"}\n").unwrap();
        match FeatureStore::load(&path) {
            Err(StoreError::Field(name)) => assert_eq!(name, "property"),
            other => panic!("expected a field error, got {other:?}"),
        }
        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(
            FeatureStore::load(&path),
            Err(StoreError::Json(1, _))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
