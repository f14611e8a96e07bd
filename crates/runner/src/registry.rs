//! Experiments as data: id, slug, title, tags, cost, and a closure.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::artifact::{ResumeState, DEFAULT_ARTIFACT_DIR};
use crate::ctx::RunCtx;
use crate::table::Table;

/// Rough cost class of one experiment (drives scheduling hints, soft
/// deadlines, and lets callers pick cheap subsets for smoke tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cost {
    /// Milliseconds.
    Cheap,
    /// Tens to hundreds of milliseconds.
    Moderate,
    /// Monte-Carlo sweeps dominating the suite's runtime.
    Heavy,
}

impl Cost {
    /// The default soft deadline for one experiment of this class,
    /// used by the fault-tolerant suite runner (override with
    /// `--deadline-secs`). Generous on purpose: a healthy run never
    /// comes close, so tripping one means the experiment is hung or
    /// pathologically slow.
    pub fn deadline(self) -> Duration {
        match self {
            Cost::Cheap => Duration::from_secs(30),
            Cost::Moderate => Duration::from_secs(120),
            Cost::Heavy => Duration::from_secs(600),
        }
    }
}

impl std::fmt::Display for Cost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Cost::Cheap => "cheap",
            Cost::Moderate => "moderate",
            Cost::Heavy => "heavy",
        })
    }
}

type RunFn = Box<dyn Fn(&RunCtx) -> Table + Send + Sync>;

/// One registered experiment.
pub struct Experiment {
    /// Group id shared with sibling tables, e.g. `"E2"`.
    pub id: &'static str,
    /// Unique slug, e.g. `"e2-lrp-rounds"` (artifact file stem).
    pub slug: &'static str,
    /// Table title (paper anchor).
    pub title: &'static str,
    /// Free-form tags, e.g. `["phy", "ranging"]`.
    pub tags: &'static [&'static str],
    /// STRIDE classes the experiment exercises, as lowercase labels
    /// (e.g. `["spoofing", "tampering"]`). Empty when the experiment
    /// has no threat-class angle; drives the `stride:` filter and the
    /// `--list` stride column.
    pub strides: &'static [&'static str],
    /// Cost class.
    pub cost: Cost,
    run: RunFn,
}

impl Experiment {
    /// Registers an experiment body.
    pub fn new(
        id: &'static str,
        slug: &'static str,
        title: &'static str,
        tags: &'static [&'static str],
        cost: Cost,
        run: impl Fn(&RunCtx) -> Table + Send + Sync + 'static,
    ) -> Self {
        Self {
            id,
            slug,
            title,
            tags,
            strides: &[],
            cost,
            run: Box::new(run),
        }
    }

    /// Annotates the experiment with the STRIDE classes it exercises.
    pub fn with_strides(mut self, strides: &'static [&'static str]) -> Self {
        self.strides = strides;
        self
    }

    /// Produces the table under the given context.
    pub fn run(&self, ctx: &RunCtx) -> Table {
        (self.run)(ctx)
    }
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("slug", &self.slug)
            .field("title", &self.title)
            .field("tags", &self.tags)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

/// Why a filter list leaves nothing to run (see [`Registry::resolve`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoRun {
    /// A `failed:` filter names a manifest that is missing or
    /// unparsable.
    BadManifest {
        /// The filter as given.
        filter: String,
        /// The manifest path it read.
        manifest: PathBuf,
    },
    /// Every filter is `failed:`, and the manifests record no failures;
    /// carries the first manifest.
    NoFailures(PathBuf),
    /// No experiment matched.
    NoMatch,
}

/// The ordered experiment registry.
///
/// Experiments are stored behind [`Arc`] so the suite runner can hand
/// one to a deadline-supervised worker thread without tying the
/// thread's lifetime to the registry borrow.
#[derive(Debug, Default)]
pub struct Registry {
    experiments: Vec<Arc<Experiment>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an experiment, keeping registration order.
    ///
    /// # Panics
    ///
    /// Panics if the slug is already registered — slugs name artifact
    /// files, so they must be unique.
    pub fn register(&mut self, exp: Experiment) {
        assert!(
            self.experiments.iter().all(|e| e.slug != exp.slug),
            "duplicate experiment slug {:?}",
            exp.slug
        );
        self.experiments.push(Arc::new(exp));
    }

    /// All experiments, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Experiment> {
        self.experiments.iter().map(AsRef::as_ref)
    }

    /// Number of registered experiments.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// All experiments as shared handles, in registration order.
    pub fn all(&self) -> Vec<Arc<Experiment>> {
        self.experiments.clone()
    }

    /// Experiments whose group id **or** slug equals `filter`,
    /// case-insensitively. Exact match only: `"E1"` selects E1 and
    /// never E10–E13.
    ///
    /// Three pseudo-filter prefixes switch to other selection modes:
    ///
    /// - `tag:<tag>` returns every experiment carrying that exact tag
    ///   (also case-insensitive).
    /// - `stride:<class>` returns every experiment annotated with that
    ///   STRIDE class label (e.g. `stride:spoofing`).
    /// - `failed:<dir-or-manifest>` re-selects the experiments a prior
    ///   run's manifest recorded as `failed` or `timed_out` (an empty
    ///   path reads the default artifact directory). An unreadable or
    ///   corrupt manifest selects nothing; [`Registry::resolve`] tells
    ///   that case apart.
    pub fn select(&self, filter: &str) -> Vec<Arc<Experiment>> {
        self.select_many(&[filter])
    }

    /// Experiments matching **any** of `filters` (same syntax as
    /// [`Registry::select`]), in registration order; empty wherever
    /// [`Registry::resolve`] says why nothing runs.
    pub fn select_many<S: AsRef<str>>(&self, filters: &[S]) -> Vec<Arc<Experiment>> {
        self.resolve(filters).unwrap_or_default()
    }

    /// The experiments `filters` select, or why there is nothing to
    /// run.
    ///
    /// The registry is walked once and each experiment is tested
    /// against all filters, so an experiment matched by several of them
    /// — say a `tag:` filter plus its own slug — appears exactly once
    /// and never runs twice in one invocation.
    pub fn resolve<S: AsRef<str>>(&self, filters: &[S]) -> Result<Vec<Arc<Experiment>>, NoRun> {
        let mut lowered: Vec<String> = Vec::new();
        let mut first_manifest = None;
        let mut only_failed = true;
        for f in filters {
            let f = f.as_ref();
            let Some(path) = f.strip_prefix("failed:") else {
                only_failed = false;
                lowered.push(f.to_lowercase());
                continue;
            };
            let manifest = Self::manifest_path(path);
            let Some(state) = ResumeState::load_manifest(&manifest) else {
                let filter = f.to_owned();
                return Err(NoRun::BadManifest { filter, manifest });
            };
            // Paths stay case-sensitive; the slugs read from the
            // manifest fold like ordinary slug filters.
            lowered.extend(state.failed.iter().map(|s| s.to_lowercase()));
            first_manifest.get_or_insert(manifest);
        }
        let selected: Vec<_> = self
            .experiments
            .iter()
            .filter(|e| lowered.iter().any(|f| Self::matches(e, f)))
            .cloned()
            .collect();
        if !selected.is_empty() {
            return Ok(selected);
        }
        match first_manifest {
            Some(manifest) if only_failed && lowered.is_empty() => Err(NoRun::NoFailures(manifest)),
            _ => Err(NoRun::NoMatch),
        }
    }

    /// The manifest a `failed:` filter reads: `path` may name the
    /// artifact directory or the manifest file itself; empty means
    /// [`DEFAULT_ARTIFACT_DIR`].
    fn manifest_path(path: &str) -> PathBuf {
        let p = if path.is_empty() {
            Path::new(DEFAULT_ARTIFACT_DIR)
        } else {
            Path::new(path)
        };
        if p.is_dir() {
            p.join("manifest.json")
        } else {
            p.to_path_buf()
        }
    }

    /// Whether one already-lowercased filter selects `e`.
    fn matches(e: &Experiment, filter: &str) -> bool {
        if let Some(tag) = filter.strip_prefix("tag:") {
            return e.tags.iter().any(|t| t.to_lowercase() == tag);
        }
        if let Some(class) = filter.strip_prefix("stride:") {
            return e.strides.iter().any(|s| s.to_lowercase() == class);
        }
        e.id.to_lowercase() == filter || e.slug.to_lowercase() == filter
    }

    /// Unique group ids, in first-registration order (the "available
    /// ids" list for error messages).
    pub fn group_ids(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for e in &self.experiments {
            if !out.contains(&e.id) {
                out.push(e.id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactStore, ExperimentRecord, RunManifest};

    fn dummy(id: &'static str, slug: &'static str) -> Experiment {
        dummy_tagged(id, slug, &[])
    }

    fn dummy_tagged(
        id: &'static str,
        slug: &'static str,
        tags: &'static [&'static str],
    ) -> Experiment {
        Experiment::new(id, slug, "t", tags, Cost::Cheap, |_| {
            Table::new("X", "t", &["a"])
        })
    }

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.register(
            dummy_tagged("E1", "e1-depth", &["campaign", "parallel"])
                .with_strides(&["spoofing", "tampering"]),
        );
        r.register(
            dummy_tagged("E10", "e10-cascade", &["sos", "parallel"])
                .with_strides(&["denial-of-service"]),
        );
        r.register(dummy_tagged("E10", "e10-structure", &["sos"]));
        r
    }

    #[test]
    fn select_is_exact_not_substring() {
        let r = sample();
        // The old binary's `contains` filter made "E1" match E10 too.
        let hits = r.select("E1");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].slug, "e1-depth");
        assert_eq!(r.select("E10").len(), 2);
    }

    #[test]
    fn select_is_case_insensitive_and_takes_slugs() {
        let r = sample();
        assert_eq!(r.select("e10").len(), 2);
        assert_eq!(r.select("E10-CASCADE").len(), 1);
        assert!(r.select("e99").is_empty());
    }

    #[test]
    fn tag_prefix_selects_by_tag() {
        let r = sample();
        assert_eq!(r.select("tag:parallel").len(), 2);
        assert_eq!(r.select("tag:sos").len(), 2);
        assert_eq!(r.select("tag:campaign").len(), 1);
        assert_eq!(r.select("TAG:PARALLEL").len(), 2, "case-insensitive");
        assert!(r.select("tag:nope").is_empty());
        // The tag namespace never collides with ids/slugs.
        assert!(r.select("tag:e1-depth").is_empty());
        assert_eq!(r.select("e1-depth").len(), 1);
    }

    #[test]
    fn stride_prefix_selects_by_class() {
        let r = sample();
        assert_eq!(r.select("stride:spoofing").len(), 1);
        assert_eq!(r.select("stride:tampering").len(), 1);
        assert_eq!(r.select("stride:denial-of-service").len(), 1);
        assert_eq!(r.select("STRIDE:SPOOFING").len(), 1, "case-insensitive");
        assert!(r.select("stride:repudiation").is_empty());
        // Unannotated experiments never match any stride filter.
        assert!(r
            .select("stride:spoofing")
            .iter()
            .all(|e| e.slug != "e10-structure"));
        // The stride namespace never collides with tags.
        assert!(r.select("stride:parallel").is_empty());
        assert!(r.select("tag:spoofing").is_empty());
    }

    #[test]
    fn select_many_dedupes_overlapping_filters() {
        let r = sample();
        // "tag:parallel" and the explicit slug both match e1-depth; it
        // must still be selected exactly once.
        let hits = r.select_many(&["tag:parallel", "e1-depth"]);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].slug, "e1-depth");
        assert_eq!(hits[1].slug, "e10-cascade");
        // Same filter twice is also a single selection.
        assert_eq!(r.select_many(&["E10", "e10"]).len(), 2);
        // An id plus one of its slugs: the slug's experiment once, the
        // sibling once.
        let hits = r.select_many(&["E10", "e10-structure"]);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn select_many_keeps_registration_order() {
        let r = sample();
        // Filters listed in "reverse" order must not reorder results.
        let hits = r.select_many(&["e10-structure", "e1-depth"]);
        let slugs: Vec<&str> = hits.iter().map(|e| e.slug).collect();
        assert_eq!(slugs, vec!["e1-depth", "e10-structure"]);
    }

    #[test]
    fn select_many_empty_filter_list_selects_nothing() {
        let r = sample();
        assert!(r.select_many::<&str>(&[]).is_empty());
    }

    #[test]
    fn failed_pseudo_filter_reselects_manifest_failures() {
        let dir = std::env::temp_dir().join("autosec-runner-failed-filter");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::create(&dir).expect("create dir");
        let manifest = RunManifest {
            seed: 42,
            jobs: 1,
            trials_scale: 1.0,
            filter: None,
            records: vec![
                ExperimentRecord::ok(
                    "e10-structure",
                    "E10",
                    std::time::Duration::ZERO,
                    Table::new("E10", "t", &["a"]),
                ),
                ExperimentRecord::failed(
                    "e1-depth",
                    "E1",
                    std::time::Duration::ZERO,
                    "boom".into(),
                ),
                ExperimentRecord::timed_out(
                    "e10-cascade",
                    "E10",
                    std::time::Duration::from_secs(2),
                    std::time::Duration::from_secs(1),
                    false,
                ),
            ],
        };
        store.write_run(&manifest).expect("write");

        let r = sample();
        // Directory form, manifest-file form, and mixing with a normal
        // filter (dedup keeps registration order).
        let dir_filter = format!("failed:{}", dir.display());
        let hits = r.select(&dir_filter);
        let slugs: Vec<&str> = hits.iter().map(|e| e.slug).collect();
        assert_eq!(slugs, vec!["e1-depth", "e10-cascade"]);

        let file_filter = format!("failed:{}", dir.join("manifest.json").display());
        assert_eq!(r.select(&file_filter).len(), 2);

        let hits = r.select_many(&[dir_filter.as_str(), "e1-depth"]);
        assert_eq!(hits.len(), 2, "overlap dedupes");

        // Unreadable manifests select nothing rather than erroring.
        assert!(r.select("failed:/nonexistent/path").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_tells_a_bad_manifest_from_a_clean_one() {
        let dir = std::env::temp_dir().join("autosec-runner-resolve");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::create(&dir).expect("create dir");
        let r = sample();
        let filter = format!("failed:{}", dir.display());
        let manifest = dir.join("manifest.json");
        let why = |filters: &[&str]| r.resolve(filters).unwrap_err();
        let bad = NoRun::BadManifest {
            filter: filter.clone(),
            manifest: manifest.clone(),
        };
        assert_eq!(why(&[&filter]), bad, "missing");
        std::fs::write(&manifest, "{ \"seed\": 4, ").expect("write");
        assert_eq!(why(&[&filter]), bad, "corrupt");

        let table = Table::new("E1", "t", &["a"]);
        let clean = RunManifest {
            seed: 42,
            jobs: 1,
            trials_scale: 1.0,
            filter: None,
            records: vec![ExperimentRecord::ok(
                "e1-depth",
                "E1",
                Duration::ZERO,
                table,
            )],
        };
        store.write_manifest(&clean).expect("write");
        assert_eq!(why(&[&filter]), NoRun::NoFailures(manifest));
        // A plain filter beside it still runs; an unmatched one says so.
        assert_eq!(r.resolve(&[filter.as_str(), "E1"]).unwrap().len(), 1);
        assert_eq!(why(&[&filter, "E99"]), NoRun::NoMatch);
        assert_eq!(why(&["E99"]), NoRun::NoMatch);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_ids_are_unique_in_order() {
        assert_eq!(sample().group_ids(), vec!["E1", "E10"]);
    }

    #[test]
    #[should_panic(expected = "duplicate experiment slug")]
    fn duplicate_slug_rejected() {
        let mut r = sample();
        r.register(dummy("E2", "e1-depth"));
    }

    #[test]
    fn run_produces_table() {
        let r = sample();
        let t = r.select("E1")[0].run(&RunCtx::default());
        assert_eq!(t.id, "X");
    }

    #[test]
    fn deadlines_grow_with_cost() {
        assert!(Cost::Cheap.deadline() < Cost::Moderate.deadline());
        assert!(Cost::Moderate.deadline() < Cost::Heavy.deadline());
    }
}
