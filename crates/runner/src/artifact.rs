//! Run manifest and per-experiment JSON artifacts.
//!
//! A run writes one `<slug>.json` per **completed** experiment plus a
//! `manifest.json` tying them together. Every field except
//! `duration_ms` is a pure function of `(seed, experiment)`, so two
//! artifacts from the same seed compare equal once the duration key is
//! dropped — the property the determinism tests check.
//!
//! With the fault-tolerant suite runner, a manifest entry is no longer
//! always a success: each carries a [`RunStatus`] (`ok`, `failed`,
//! `timed_out`, `oom_killed`, `cpu_exceeded`, or `skipped`), failed
//! entries record the panic message, budget kills record the observed
//! peak RSS / CPU seconds against the limit, and [`ResumeState`] reads
//! a prior manifest back so `--resume` can re-run only the failures
//! and gaps — killed and budget-exceeded entries are all retryable.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use serde_json::Value;

use crate::table::{sorted_object, Table};

/// The default artifact directory, relative to the workspace root.
pub const DEFAULT_ARTIFACT_DIR: &str = "target/experiments";

/// How one experiment ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// Completed and produced its table.
    Ok,
    /// Panicked; the rendered panic payload.
    Failed {
        /// The panic message recorded in the manifest.
        message: String,
    },
    /// Exceeded its soft deadline.
    TimedOut {
        /// The deadline that was in force.
        deadline: Duration,
        /// In-process fallback only: the overtime worker thread was
        /// still running when the suite moved on (Rust cannot kill a
        /// thread, so it leaks until process exit). Always `false`
        /// under `--isolate on`, where the child is SIGKILLed for
        /// real.
        detached: bool,
    },
    /// Killed for crossing its peak-RSS budget (`--isolate on` only).
    OomKilled {
        /// Peak resident set observed before the kill (MiB).
        peak_rss_mb: u64,
        /// The budget in force (MiB).
        limit_mb: u64,
    },
    /// Killed for crossing its CPU-seconds budget (`--isolate on`
    /// only).
    CpuExceeded {
        /// CPU seconds observed before the kill.
        cpu_secs: f64,
        /// The budget in force (seconds).
        limit_secs: u64,
    },
    /// Skipped under `--resume`: the canonical artifact from a prior
    /// run already covers it.
    Skipped,
}

impl RunStatus {
    /// The manifest wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Failed { .. } => "failed",
            RunStatus::TimedOut { .. } => "timed_out",
            RunStatus::OomKilled { .. } => "oom_killed",
            RunStatus::CpuExceeded { .. } => "cpu_exceeded",
            RunStatus::Skipped => "skipped",
        }
    }

    /// Whether this entry counts as a suite failure (anything but `ok`
    /// and `skipped`). Failures are re-run by `--resume` and
    /// re-selectable via the `failed:` pseudo-filter.
    pub fn is_failure(&self) -> bool {
        !matches!(self, RunStatus::Ok | RunStatus::Skipped)
    }
}

/// One executed (or skipped / failed) experiment, ready to serialize.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Unique slug (artifact file stem).
    pub slug: String,
    /// Experiment group id.
    pub id: String,
    /// Wall-clock duration of the run (zero for skipped entries).
    pub duration: Duration,
    /// How the run ended.
    pub status: RunStatus,
    /// The produced table; present exactly when `status` is
    /// [`RunStatus::Ok`].
    pub table: Option<Table>,
}

impl ExperimentRecord {
    fn base(slug: &str, id: &str, duration: Duration, status: RunStatus) -> Self {
        Self {
            slug: slug.to_owned(),
            id: id.to_owned(),
            duration,
            status,
            table: None,
        }
    }

    /// A successful record.
    pub fn ok(slug: &str, id: &str, duration: Duration, table: Table) -> Self {
        Self {
            table: Some(table),
            ..Self::base(slug, id, duration, RunStatus::Ok)
        }
    }

    /// A failed (panicked or crashed) record carrying the message.
    pub fn failed(slug: &str, id: &str, duration: Duration, message: String) -> Self {
        Self::base(slug, id, duration, RunStatus::Failed { message })
    }

    /// An overtime record. `detached` marks the in-process fallback's
    /// leaked worker thread (see [`RunStatus::TimedOut`]).
    pub fn timed_out(
        slug: &str,
        id: &str,
        duration: Duration,
        deadline: Duration,
        detached: bool,
    ) -> Self {
        Self::base(
            slug,
            id,
            duration,
            RunStatus::TimedOut { deadline, detached },
        )
    }

    /// A record for a child killed over its peak-RSS budget.
    pub fn oom_killed(
        slug: &str,
        id: &str,
        duration: Duration,
        peak_rss_mb: u64,
        limit_mb: u64,
    ) -> Self {
        Self::base(
            slug,
            id,
            duration,
            RunStatus::OomKilled {
                peak_rss_mb,
                limit_mb,
            },
        )
    }

    /// A record for a child killed over its CPU-seconds budget.
    pub fn cpu_exceeded(
        slug: &str,
        id: &str,
        duration: Duration,
        cpu_secs: f64,
        limit_secs: u64,
    ) -> Self {
        Self::base(
            slug,
            id,
            duration,
            RunStatus::CpuExceeded {
                cpu_secs,
                limit_secs,
            },
        )
    }

    /// A resume-skip record (prior artifact reused).
    pub fn skipped(slug: &str, id: &str) -> Self {
        Self::base(slug, id, Duration::ZERO, RunStatus::Skipped)
    }

    /// The artifact body: id, seed, jobs, trials scale, duration, and
    /// the table.
    ///
    /// # Panics
    ///
    /// Panics if the record carries no table (only `ok` records have an
    /// artifact body; the manifest entry is the sole trace of the
    /// others).
    pub fn to_json(&self, seed: u64, jobs: usize, trials_scale: f64) -> Value {
        let table = self
            .table
            .as_ref()
            .expect("only ok records serialize to artifacts");
        sorted_object(vec![
            ("id", Value::from(self.id.as_str())),
            ("slug", Value::from(self.slug.as_str())),
            ("seed", Value::from(seed)),
            ("jobs", Value::from(jobs as u64)),
            ("trials_scale", Value::from(trials_scale)),
            (
                "duration_ms",
                Value::from(self.duration.as_secs_f64() * 1e3),
            ),
            ("rows", Value::from(table.rows.len() as u64)),
            ("table", table.to_json()),
        ])
    }

    /// The manifest entry for this record.
    fn manifest_entry(&self) -> Value {
        let mut pairs = vec![
            ("slug", Value::from(self.slug.as_str())),
            ("id", Value::from(self.id.as_str())),
            ("status", Value::from(self.status.as_str())),
            (
                "duration_ms",
                Value::from(self.duration.as_secs_f64() * 1e3),
            ),
        ];
        match &self.status {
            RunStatus::Ok => {
                let table = self.table.as_ref().expect("ok record has a table");
                pairs.push(("rows", Value::from(table.rows.len() as u64)));
                pairs.push(("artifact", Value::from(format!("{}.json", self.slug))));
            }
            RunStatus::Failed { message } => {
                pairs.push(("message", Value::from(message.as_str())));
            }
            RunStatus::TimedOut { deadline, detached } => {
                pairs.push(("deadline_secs", Value::from(deadline.as_secs_f64())));
                if *detached {
                    pairs.push(("overtime_detached", Value::from(true)));
                }
            }
            RunStatus::OomKilled {
                peak_rss_mb,
                limit_mb,
            } => {
                pairs.push(("peak_rss_mb", Value::from(*peak_rss_mb)));
                pairs.push(("rss_limit_mb", Value::from(*limit_mb)));
            }
            RunStatus::CpuExceeded {
                cpu_secs,
                limit_secs,
            } => {
                pairs.push(("cpu_secs", Value::from(*cpu_secs)));
                pairs.push(("cpu_limit_secs", Value::from(*limit_secs)));
            }
            RunStatus::Skipped => {
                pairs.push(("artifact", Value::from(format!("{}.json", self.slug))));
            }
        }
        sorted_object(pairs)
    }
}

/// The run-level manifest.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Master seed of the run.
    pub seed: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Monte-Carlo trial-count multiplier used (1.0 = published
    /// counts).
    pub trials_scale: f64,
    /// The `--filter` argument(s), if any (joined by `,`).
    pub filter: Option<String>,
    /// Executed experiments, in run order (all statuses).
    pub records: Vec<ExperimentRecord>,
}

impl RunManifest {
    /// The manifest body.
    pub fn to_json(&self) -> Value {
        let experiments: Vec<Value> = self.records.iter().map(|r| r.manifest_entry()).collect();
        let total: Duration = self.records.iter().map(|r| r.duration).sum();
        let failures = self
            .records
            .iter()
            .filter(|r| r.status.is_failure())
            .count();
        sorted_object(vec![
            ("seed", Value::from(self.seed)),
            ("jobs", Value::from(self.jobs as u64)),
            ("trials_scale", Value::from(self.trials_scale)),
            (
                "filter",
                self.filter
                    .as_deref()
                    .map(Value::from)
                    .unwrap_or(Value::Null),
            ),
            ("experiments", Value::Array(experiments)),
            ("failures", Value::from(failures as u64)),
            ("total_duration_ms", Value::from(total.as_secs_f64() * 1e3)),
        ])
    }
}

/// Writes artifacts under one directory.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
    canonical: bool,
}

impl ArtifactStore {
    /// Opens (and creates if needed) the artifact directory.
    pub fn create(dir: impl AsRef<Path>) -> io::Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(Self {
            dir: dir.as_ref().to_owned(),
            canonical: false,
        })
    }

    /// Switches the store to canonical mode: every written value is
    /// passed through [`strip_volatile`] first, so artifact trees from
    /// different `--jobs` values (or machines) diff clean.
    pub fn canonical(mut self) -> Self {
        self.canonical = true;
        self
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn render(&self, v: &Value) -> String {
        let stripped;
        let v = if self.canonical {
            stripped = strip_volatile(v);
            &stripped
        } else {
            v
        };
        serde_json::to_string_pretty(v).expect("value serialization is infallible")
    }

    /// Writes `<slug>.json` for one completed record; returns the path.
    pub fn write_record(
        &self,
        record: &ExperimentRecord,
        seed: u64,
        jobs: usize,
        trials_scale: f64,
    ) -> io::Result<PathBuf> {
        let path = self.dir.join(format!("{}.json", record.slug));
        std::fs::write(
            &path,
            self.render(&record.to_json(seed, jobs, trials_scale)),
        )?;
        Ok(path)
    }

    /// Writes an arbitrary JSON value as `<stem>.json`, honouring the
    /// store's canonical mode; returns the path. Used by non-table
    /// artifacts such as fleet snapshots, which must diff clean across
    /// `--shards` the same way tables diff clean across `--jobs`.
    pub fn write_json(&self, stem: &str, v: &Value) -> io::Result<PathBuf> {
        let path = self.dir.join(format!("{stem}.json"));
        std::fs::write(&path, self.render(v))?;
        Ok(path)
    }

    /// Writes (or rewrites) `manifest.json` for the run as recorded so
    /// far; returns the manifest path. Called after every experiment by
    /// the fault-tolerant suite, so an interrupted run leaves a
    /// resumable manifest behind.
    pub fn write_manifest(&self, manifest: &RunManifest) -> io::Result<PathBuf> {
        let path = self.dir.join("manifest.json");
        std::fs::write(&path, self.render(&manifest.to_json()))?;
        Ok(path)
    }

    /// Writes `manifest.json` plus every completed record's artifact in
    /// one shot; returns the manifest path.
    pub fn write_run(&self, manifest: &RunManifest) -> io::Result<PathBuf> {
        for record in &manifest.records {
            if record.status == RunStatus::Ok {
                self.write_record(record, manifest.seed, manifest.jobs, manifest.trials_scale)?;
            }
        }
        self.write_manifest(manifest)
    }
}

/// Canonical form of a filter set: lowercased, trimmed, deduplicated,
/// sorted, and joined by `,`. Two runs select the same experiments iff
/// their normalized filter strings are equal, which is what `--resume`
/// compares — the raw `filter` manifest key keeps the user's spelling.
pub fn normalize_filters<S: AsRef<str>>(filters: &[S]) -> String {
    let mut parts: Vec<String> = filters
        .iter()
        .map(|f| f.as_ref().trim().to_lowercase())
        .filter(|f| !f.is_empty())
        .collect();
    parts.sort();
    parts.dedup();
    parts.join(",")
}

/// A prior run's manifest, re-read for `--resume` and the `failed:`
/// pseudo-filter.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    /// Master seed of the prior run.
    pub seed: u64,
    /// Its trials scale.
    pub trials_scale: f64,
    /// Its raw filter string (as typed, joined by `,`).
    pub filter: Option<String>,
    /// Slugs that completed (`ok` or `skipped` — both mean the
    /// artifact on disk is current).
    pub completed: BTreeSet<String>,
    /// Slugs recorded with any failure status (`failed`, `timed_out`,
    /// `oom_killed`, `cpu_exceeded`, or a status this build does not
    /// know), in manifest order. All of them are retryable.
    pub failed: Vec<String>,
}

impl ResumeState {
    /// Reads `manifest.json` from an artifact directory. `None` when
    /// the manifest is absent, unparsable, or missing required keys —
    /// a partial/corrupt manifest never aborts the caller, it just
    /// disables resume.
    pub fn load(dir: impl AsRef<Path>) -> Option<Self> {
        Self::load_manifest(&dir.as_ref().join("manifest.json"))
    }

    /// Reads a specific manifest file (see [`ResumeState::load`]).
    pub fn load_manifest(path: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(path).ok()?;
        let v: Value = serde_json::from_str(&text).ok()?;
        let seed = v.get("seed")?.as_u64()?;
        let trials_scale = v.get("trials_scale")?.as_f64()?;
        let filter = v.get("filter").and_then(Value::as_str).map(str::to_owned);
        let mut completed = BTreeSet::new();
        let mut failed = Vec::new();
        for entry in v.get("experiments")?.as_array()? {
            let slug = entry.get("slug")?.as_str()?.to_owned();
            // Pre-fault-tolerance manifests had no status key; every
            // entry they recorded was a success.
            let status = entry.get("status").and_then(Value::as_str).unwrap_or("ok");
            match status {
                "ok" | "skipped" => {
                    completed.insert(slug);
                }
                _ => failed.push(slug),
            }
        }
        Some(Self {
            seed,
            trials_scale,
            filter,
            completed,
            failed,
        })
    }

    /// Whether a new run with these settings may reuse this manifest's
    /// artifacts: same seed, same trials scale, same normalized filter
    /// set.
    pub fn compatible_with<S: AsRef<str>>(
        &self,
        seed: u64,
        trials_scale: f64,
        filters: &[S],
    ) -> bool {
        let prior: Vec<&str> = self
            .filter
            .as_deref()
            .map(|f| f.split(',').collect())
            .unwrap_or_default();
        self.seed == seed
            && self.trials_scale == trials_scale
            && normalize_filters(&prior) == normalize_filters(filters)
    }

    /// Slugs whose artifact both completed **and** is still on disk in
    /// `dir` — the set `--resume` skips.
    pub fn reusable(&self, dir: &Path) -> BTreeSet<String> {
        self.completed
            .iter()
            .filter(|slug| dir.join(format!("{slug}.json")).exists())
            .cloned()
            .collect()
    }
}

/// Removes everything run-environment-specific (`duration_ms`,
/// `total_duration_ms`, `jobs`, `trials_scale`, and the fleet
/// throughput keys `vehicle_ticks_per_sec`/`shards`) from an artifact
/// or manifest value, recursively. Two canonicalized runs with the
/// same seed must be byte-identical even when produced with
/// *different* `--jobs` (or `--shards`) values — the cross-jobs
/// artifact diff CI runs. (`trials_scale` is a precision/runtime knob
/// like `jobs`; scaled tables differ in their Monte-Carlo cells, but
/// the key itself never belongs in a canonical artifact. Throughput
/// and shard count are wall-clock facts of one machine, not functions
/// of the seed.)
pub fn strip_volatile(v: &Value) -> Value {
    const VOLATILE: [&str; 6] = [
        "duration_ms",
        "total_duration_ms",
        "jobs",
        "trials_scale",
        "shards",
        "vehicle_ticks_per_sec",
    ];
    match v {
        Value::Object(map) => Value::Object(
            map.iter()
                .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
                .map(|(k, val)| (k.clone(), strip_volatile(val)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ms: u64) -> ExperimentRecord {
        let mut table = Table::new("E9", "demo", &["a"]);
        table.push_row(vec!["1".into()]);
        ExperimentRecord::ok("e9-demo", "E9", Duration::from_millis(ms), table)
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("autosec-runner-{name}"))
    }

    #[test]
    fn record_json_has_required_keys() {
        let v = record(12).to_json(7, 4, 1.0);
        assert_eq!(v["id"].as_str(), Some("E9"));
        assert_eq!(v["seed"].as_u64(), Some(7));
        assert_eq!(v["jobs"].as_u64(), Some(4));
        assert_eq!(v["rows"].as_u64(), Some(1));
        assert_eq!(v["trials_scale"].as_f64(), Some(1.0));
        assert!(v["duration_ms"].as_f64().is_some());
        assert!(v["table"]["rows"].as_array().is_some());
    }

    #[test]
    fn strip_durations_makes_timing_invisible() {
        let a = strip_volatile(&record(5).to_json(7, 1, 1.0));
        let b = strip_volatile(&record(5000).to_json(7, 1, 1.0));
        assert_eq!(a.to_string(), b.to_string());
        assert!(!a.to_string().contains("duration"));
    }

    #[test]
    fn strip_volatile_also_drops_jobs_and_trials_scale() {
        let a = strip_volatile(&record(5).to_json(7, 1, 1.0));
        let b = strip_volatile(&record(5000).to_json(7, 4, 2.0));
        assert_eq!(a.to_string(), b.to_string());
        assert!(!a.to_string().contains("jobs"));
        assert!(!a.to_string().contains("duration"));
        assert!(!a.to_string().contains("trials_scale"));
        // Everything else survives.
        assert_eq!(a["seed"].as_u64(), Some(7));
        assert_eq!(a["slug"].as_str(), Some("e9-demo"));
    }

    #[test]
    fn strip_volatile_descends_into_nested_arrays() {
        let v: Value = serde_json::from_str(
            r#"{"runs": [[{"jobs": 4, "keep": 1}, {"duration_ms": 9.0}], [{"trials_scale": 0.5}]], "jobs": 2}"#,
        )
        .expect("valid json");
        let stripped = strip_volatile(&v);
        let text = stripped.to_string();
        assert!(!text.contains("jobs"));
        assert!(!text.contains("duration_ms"));
        assert!(!text.contains("trials_scale"));
        assert_eq!(stripped["runs"][0][0]["keep"].as_i64(), Some(1));
        // Array shape untouched: empty objects remain as placeholders.
        assert_eq!(stripped["runs"][0].as_array().map(Vec::len), Some(2));
        assert_eq!(stripped["runs"].as_array().map(Vec::len), Some(2));
    }

    #[test]
    fn canonical_store_writes_jobs_invariant_artifacts() {
        let read = |jobs: usize| {
            let dir = tmp(&format!("canon-{jobs}"));
            let _ = std::fs::remove_dir_all(&dir);
            let store = ArtifactStore::create(&dir).expect("create dir").canonical();
            let m = RunManifest {
                seed: 9,
                jobs,
                trials_scale: jobs as f64,
                filter: None,
                records: vec![record(jobs as u64 * 11)],
            };
            let path = store.write_run(&m).expect("write");
            let manifest = std::fs::read_to_string(path).expect("read manifest");
            let rec =
                std::fs::read_to_string(store.dir().join("e9-demo.json")).expect("read record");
            let _ = std::fs::remove_dir_all(&dir);
            (manifest, rec)
        };
        assert_eq!(read(1), read(4));
    }

    #[test]
    fn write_json_honours_canonical_mode() {
        let v: Value = serde_json::from_str(
            r#"{"tick": 5, "shards": 4, "vehicle_ticks_per_sec": 123456.7, "census": {"healthy": 9}}"#,
        )
        .expect("valid json");
        let dir = tmp("write-json");
        let _ = std::fs::remove_dir_all(&dir);
        let plain = ArtifactStore::create(&dir).expect("create dir");
        let path = plain.write_json("fleet", &v).expect("write");
        assert!(path.ends_with("fleet.json"));
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains("shards"), "plain mode keeps everything");
        let canon = plain.clone().canonical();
        canon.write_json("fleet", &v).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(!text.contains("shards"));
        assert!(!text.contains("vehicle_ticks_per_sec"));
        assert!(text.contains("healthy"), "payload survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_lists_artifacts_and_statuses() {
        let m = RunManifest {
            seed: 1,
            jobs: 2,
            trials_scale: 1.0,
            filter: Some("E9".into()),
            records: vec![
                record(3),
                ExperimentRecord::failed(
                    "e1-depth",
                    "E1",
                    Duration::from_millis(4),
                    "index out of bounds".into(),
                ),
                ExperimentRecord::timed_out(
                    "e10-cascade",
                    "E10",
                    Duration::from_secs(31),
                    Duration::from_secs(30),
                    false,
                ),
                ExperimentRecord::skipped("e2-lrp-rounds", "E2"),
                ExperimentRecord::oom_killed("e5-mem", "E5", Duration::from_secs(2), 131, 64),
                ExperimentRecord::cpu_exceeded("e6-cpu", "E6", Duration::from_secs(9), 8.5, 8),
            ],
        };
        let v = m.to_json();
        let exps = v["experiments"].as_array().expect("array");
        assert_eq!(exps.len(), 6);
        assert_eq!(exps[0]["status"].as_str(), Some("ok"));
        assert_eq!(exps[0]["artifact"].as_str(), Some("e9-demo.json"));
        assert_eq!(exps[1]["status"].as_str(), Some("failed"));
        assert_eq!(exps[1]["message"].as_str(), Some("index out of bounds"));
        assert!(
            exps[1].get("artifact").is_none(),
            "failures have no artifact"
        );
        assert_eq!(exps[2]["status"].as_str(), Some("timed_out"));
        assert_eq!(exps[2]["deadline_secs"].as_f64(), Some(30.0));
        assert!(
            exps[2].get("overtime_detached").is_none(),
            "non-detached timeouts carry no flag"
        );
        assert_eq!(exps[3]["status"].as_str(), Some("skipped"));
        assert_eq!(exps[3]["artifact"].as_str(), Some("e2-lrp-rounds.json"));
        assert_eq!(exps[4]["status"].as_str(), Some("oom_killed"));
        assert_eq!(exps[4]["peak_rss_mb"].as_u64(), Some(131));
        assert_eq!(exps[4]["rss_limit_mb"].as_u64(), Some(64));
        assert_eq!(exps[5]["status"].as_str(), Some("cpu_exceeded"));
        assert_eq!(exps[5]["cpu_secs"].as_f64(), Some(8.5));
        assert_eq!(exps[5]["cpu_limit_secs"].as_u64(), Some(8));
        assert_eq!(v["failures"].as_u64(), Some(4));
        assert_eq!(v["filter"].as_str(), Some("E9"));
    }

    #[test]
    fn detached_timeouts_are_flagged_in_the_manifest() {
        let leaked = ExperimentRecord::timed_out(
            "e3-leak",
            "E3",
            Duration::from_secs(2),
            Duration::from_secs(1),
            true,
        );
        let m = RunManifest {
            seed: 1,
            jobs: 1,
            trials_scale: 1.0,
            filter: None,
            records: vec![leaked],
        };
        let entry = &m.to_json()["experiments"][0];
        assert_eq!(entry["status"].as_str(), Some("timed_out"));
        assert_eq!(entry["overtime_detached"].as_bool(), Some(true));
    }

    #[test]
    fn store_round_trips_via_disk() {
        let dir = tmp("artifact-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::create(&dir).expect("create dir");
        let m = RunManifest {
            seed: 9,
            jobs: 1,
            trials_scale: 1.0,
            filter: None,
            records: vec![record(1)],
        };
        let path = store.write_run(&m).expect("write");
        let text = std::fs::read_to_string(path).expect("read back");
        let v: Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(v["seed"].as_u64(), Some(9));
        assert!(store.dir().join("e9-demo.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_create_fails_under_a_file() {
        // A path whose parent is a regular file cannot become a
        // directory; the store must surface the io error, not panic.
        let file = tmp("not-a-dir");
        std::fs::write(&file, "x").expect("write file");
        let err = ArtifactStore::create(file.join("sub"));
        assert!(err.is_err(), "creating a dir under a file must fail");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn write_record_fails_when_dir_vanishes() {
        let dir = tmp("vanishing");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::create(&dir).expect("create dir");
        std::fs::remove_dir_all(&dir).expect("rm");
        assert!(store.write_record(&record(1), 1, 1, 1.0).is_err());
    }

    #[test]
    fn failed_records_never_serialize_artifacts() {
        let dir = tmp("no-fail-artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::create(&dir).expect("create dir");
        let m = RunManifest {
            seed: 1,
            jobs: 1,
            trials_scale: 1.0,
            filter: None,
            records: vec![ExperimentRecord::failed(
                "e1-depth",
                "E1",
                Duration::ZERO,
                "boom".into(),
            )],
        };
        store.write_run(&m).expect("manifest still written");
        assert!(!store.dir().join("e1-depth.json").exists());
        assert!(store.dir().join("manifest.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_state_round_trips() {
        let dir = tmp("resume-round-trip");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::create(&dir).expect("create dir");
        let m = RunManifest {
            seed: 7,
            jobs: 4,
            trials_scale: 0.5,
            filter: Some("E9,tag:parallel".into()),
            records: vec![
                record(3),
                ExperimentRecord::failed("e1-depth", "E1", Duration::ZERO, "boom".into()),
                ExperimentRecord::skipped("e2-lrp-rounds", "E2"),
            ],
        };
        store.write_run(&m).expect("write");
        let state = ResumeState::load(&dir).expect("loadable");
        assert_eq!(state.seed, 7);
        assert_eq!(state.trials_scale, 0.5);
        assert_eq!(state.filter.as_deref(), Some("E9,tag:parallel"));
        assert_eq!(state.failed, vec!["e1-depth".to_owned()]);
        assert!(state.completed.contains("e9-demo"));
        assert!(state.completed.contains("e2-lrp-rounds"));
        // Only e9-demo has its artifact on disk (skipped entries point
        // at artifacts this run never wrote).
        let reusable = state.reusable(&dir);
        assert!(reusable.contains("e9-demo"));
        assert!(!reusable.contains("e2-lrp-rounds"));
        assert!(state.compatible_with(7, 0.5, &["tag:PARALLEL", "e9"]));
        assert!(!state.compatible_with(8, 0.5, &["tag:parallel", "e9"]));
        assert!(!state.compatible_with(7, 1.0, &["tag:parallel", "e9"]));
        assert!(!state.compatible_with(7, 0.5, &["e9"]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_state_treats_killed_statuses_as_retryable() {
        // A manifest carrying the isolation-era statuses round-trips:
        // oom_killed / cpu_exceeded / timed_out(detached) entries all
        // land in `failed` (so --resume re-runs them), never in
        // `completed`.
        let dir = tmp("resume-killed");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::create(&dir).expect("create dir");
        let m = RunManifest {
            seed: 3,
            jobs: 2,
            trials_scale: 1.0,
            filter: None,
            records: vec![
                record(1),
                ExperimentRecord::oom_killed("e5-mem", "E5", Duration::from_secs(2), 131, 64),
                ExperimentRecord::cpu_exceeded("e6-cpu", "E6", Duration::from_secs(9), 8.5, 8),
                ExperimentRecord::timed_out(
                    "e3-leak",
                    "E3",
                    Duration::from_secs(2),
                    Duration::from_secs(1),
                    true,
                ),
            ],
        };
        store.write_run(&m).expect("write");
        let state = ResumeState::load(&dir).expect("loadable");
        assert_eq!(
            state.failed,
            vec![
                "e5-mem".to_owned(),
                "e6-cpu".to_owned(),
                "e3-leak".to_owned()
            ]
        );
        assert_eq!(state.completed.len(), 1);
        assert!(state.completed.contains("e9-demo"));
        // Statuses this build has never heard of are also retryable —
        // forward compatibility with future kill classes.
        std::fs::write(
            dir.join("manifest.json"),
            r#"{"seed": 3, "trials_scale": 1.0, "filter": null,
                "experiments": [{"slug": "e9-demo", "id": "E9",
                                 "status": "quarantined_by_mars_rover"}]}"#,
        )
        .expect("write");
        let state = ResumeState::load(&dir).expect("loadable");
        assert_eq!(state.failed, vec!["e9-demo".to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_state_rejects_partial_or_garbage_manifests() {
        let dir = tmp("resume-garbage");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert_eq!(ResumeState::load(&dir), None, "missing manifest");
        std::fs::write(dir.join("manifest.json"), "{ \"seed\": 4, ").expect("write");
        assert_eq!(ResumeState::load(&dir), None, "truncated manifest");
        std::fs::write(dir.join("manifest.json"), "{\"seed\": 4}").expect("write");
        assert_eq!(ResumeState::load(&dir), None, "missing keys");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_state_accepts_pre_status_manifests() {
        // Manifests written before this PR carried no status key; all
        // their entries were successes.
        let dir = tmp("resume-legacy");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join("manifest.json"),
            r#"{"seed": 42, "trials_scale": 1.0, "filter": null,
                "experiments": [{"slug": "e9-demo", "id": "E9", "rows": 1,
                                 "artifact": "e9-demo.json", "duration_ms": 2.0}]}"#,
        )
        .expect("write");
        let state = ResumeState::load(&dir).expect("loadable");
        assert!(state.completed.contains("e9-demo"));
        assert!(state.failed.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn normalize_filters_canonicalizes() {
        assert_eq!(
            normalize_filters(&["E10", "tag:Parallel"]),
            "e10,tag:parallel"
        );
        assert_eq!(
            normalize_filters(&["tag:parallel", " e10 "]),
            "e10,tag:parallel"
        );
        assert_eq!(normalize_filters(&["E10", "e10"]), "e10");
        assert_eq!(normalize_filters::<&str>(&[]), "");
    }
}
