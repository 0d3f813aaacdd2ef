//! The on-disk check cache (`fearlessc check --cache <dir>`).
//!
//! Layout: one deterministic JSON document, `check-cache.json`, inside
//! the cache directory (schema `fearless-incr-cache/1`). Entries are
//! content-addressed by [`Fingerprint`] hex and store the per-function
//! check *summary* — verdict, derivation shape, and the span counter
//! map — not the derivation itself: enough to replay `fearlessc check`'s
//! report, diagnostics, and `--metrics json` spans byte-for-byte without
//! re-deriving anything. A `names` table maps the last fingerprint seen
//! per qualified function name, which is what turns a content change
//! into a counted *invalidation*.
//!
//! The document is a sealed [`fearless_trace::json`] envelope, rendered
//! and read back through that module. A missing or unreadable file
//! degrades to an empty cache, never an error.
//!
//! ## Crash safety
//!
//! The cache is a *cache*: it must survive any on-disk corruption —
//! truncation, bit flips, torn writes, schema drift — by silently
//! degrading to a cold start with byte-identical diagnostics. Two
//! mechanisms enforce that:
//!
//! * **Atomic save**: [`DiskCache::save`] writes a temp file in the
//!   cache directory and `rename`s it over `check-cache.json`, so a
//!   crash mid-save leaves either the old document or the new one,
//!   never a torn hybrid (a stray temp file is inert).
//! * **Content checksum**: the envelope embeds an FNV-1a 64 checksum of
//!   the canonical `{entries, names}` payload rendering. [`DiskCache::load`]
//!   re-renders the parsed payload and compares; any mismatch (or
//!   malformed JSON, or a schema-tag mismatch) discards the file and
//!   records a [`LoadOutcome::Recovered`] that drivers surface as the
//!   `cache_recoveries` stat and a `cache_recovery` trace event.
//! * **Advisory save lock**: long-lived processes (the `fearlessc
//!   serve` daemon) and batch invocations may share one cache
//!   directory. [`DiskCache::save`] takes a best-effort advisory lock
//!   (`check-cache.lock`, created with `O_EXCL`) so concurrent savers
//!   serialize instead of stampeding; a lock older than
//!   [`LOCK_STALE_SECS`] is presumed abandoned by a crashed holder and
//!   stolen. If the lock never frees, the save proceeds anyway —
//!   last-writer-wins is safe here because the atomic rename and the
//!   content checksum already guarantee every reader sees some
//!   complete, verified document; the lock only reduces wasted writes,
//!   it is not needed for correctness. The two-process drill in
//!   `fearless-chaos` (`run_concurrency_drill`) pins the contract:
//!   concurrent save/load cycles never observe a recovery.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use fearless_core::Fingerprint;
use fearless_trace::json::{read_sealed, seal, write_atomic};
use fearless_trace::Json;

/// File name inside the cache directory.
pub const CACHE_FILE: &str = "check-cache.json";

/// Advisory lock file serializing concurrent savers.
pub const LOCK_FILE: &str = "check-cache.lock";

/// Age (seconds) past which a lock file is presumed abandoned by a
/// crashed holder and stolen.
pub const LOCK_STALE_SECS: u64 = 30;

/// Schema tag of the cache document.
pub const SCHEMA: &str = "fearless-incr-cache/1";

/// A held (or deliberately skipped) advisory save lock. Dropping a held
/// lock removes the lock file.
struct SaveLock {
    path: PathBuf,
    held: bool,
}

/// What the staleness check sampled about a lock file, used to
/// re-verify the steal: the holder's pid (the file content) and the
/// modification timestamp. A lock whose identity changed between the
/// staleness check and the steal belongs to a *new*, live holder and
/// must not be stolen.
#[derive(Clone, PartialEq, Eq, Debug)]
struct LockSample {
    pid: String,
    modified: Option<std::time::SystemTime>,
}

impl LockSample {
    fn read(path: &Path) -> Option<LockSample> {
        let pid = std::fs::read_to_string(path).ok()?;
        let modified = std::fs::metadata(path).and_then(|m| m.modified()).ok();
        Some(LockSample { pid, modified })
    }
}

impl SaveLock {
    /// Tries to create the lock file exclusively, retrying `retries`
    /// times with `wait_millis` sleeps and stealing locks older than
    /// `stale_secs`. Never fails: on timeout the returned guard is
    /// simply not held and the caller proceeds last-writer-wins.
    fn acquire(dir: &Path, retries: u32, wait_millis: u64, stale_secs: u64) -> SaveLock {
        let path = dir.join(LOCK_FILE);
        let mut attempts = 0u32;
        // Stealing a stale lock retries the create immediately and has
        // its own small budget, so it never eats the wait schedule.
        let mut steals = 3u32;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use std::io::Write as _;
                    let _ = write!(f, "{}", std::process::id());
                    return SaveLock { path, held: true };
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let sample = LockSample::read(&path);
                    let stale = sample
                        .as_ref()
                        .and_then(|s| s.modified)
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age.as_secs() >= stale_secs);
                    if stale && steals > 0 {
                        steals -= 1;
                        if let Some(sample) = sample {
                            let _ = try_steal(&path, &sample);
                        }
                        continue;
                    }
                    if attempts >= retries {
                        return SaveLock { path, held: false };
                    }
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(wait_millis));
                }
                // The directory vanished or permissions broke: the save
                // itself will surface that; don't hold anything.
                Err(_) => return SaveLock { path, held: false },
            }
        }
    }
}

/// Steals a lock previously sampled as stale, closing the TOCTOU window
/// between the staleness check and the `create_new` retry: the lock is
/// first *renamed* to a private claim name (atomic — only one stealer
/// can win the rename), then its pid/timestamp are re-verified against
/// the sample. If they no longer match, a fresh holder re-created the
/// lock in the window; the claim is moved back (best effort) and the
/// steal is abandoned. Returns whether the stale lock was removed.
fn try_steal(path: &Path, sampled: &LockSample) -> bool {
    let claim = path.with_extension(format!("steal.{}", std::process::id()));
    if std::fs::rename(path, &claim).is_err() {
        // Someone else stole (or released) it first.
        return false;
    }
    let current = LockSample::read(&claim);
    if current.as_ref() == Some(sampled) {
        // Same pid, same timestamp: this is the abandoned lock we
        // sampled. Delete the claim; `create_new` now has a clear path.
        let _ = std::fs::remove_file(&claim);
        return true;
    }
    // The lock changed hands between the staleness check and the
    // rename — it belongs to a live holder. Put it back unless an even
    // newer lock already took the name (then the claim is just dropped;
    // the displaced holder's release will be a harmless no-op).
    if !path.exists() {
        let _ = std::fs::rename(&claim, path);
    } else {
        let _ = std::fs::remove_file(&claim);
    }
    false
}

impl Drop for SaveLock {
    fn drop(&mut self) {
        if self.held {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A cached per-function check outcome — the replayable summary of one
/// `check_fn` run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CachedOutcome {
    /// The function checked. Stores the derivation shape (for the check
    /// report) and the full span counter map (for metrics replay).
    Ok {
        /// Derivation nodes.
        nodes: u64,
        /// Virtual-transformation steps.
        vir_steps: u64,
        /// Backtracking-search states visited.
        search_nodes: u64,
        /// The `check` span's counters, keyed by counter name (names
        /// outside [`crate::counter_names::ALL`] are dropped on load).
        counters: BTreeMap<&'static str, u64>,
    },
    /// The function failed to check.
    Err {
        /// The checker's message (no function prefix; the driver
        /// re-attaches it).
        message: String,
        /// Span start byte.
        span_lo: u32,
        /// Span end byte.
        span_hi: u32,
    },
}

impl CachedOutcome {
    pub(crate) fn to_json(&self) -> Json {
        match self {
            CachedOutcome::Ok {
                nodes,
                vir_steps,
                search_nodes,
                counters,
            } => Json::obj([
                ("ok", Json::Bool(true)),
                ("nodes", Json::U64(*nodes)),
                ("vir_steps", Json::U64(*vir_steps)),
                ("search_nodes", Json::U64(*search_nodes)),
                (
                    "counters",
                    Json::Obj(
                        counters
                            .iter()
                            .map(|(k, v)| (k.to_string(), Json::U64(*v)))
                            .collect(),
                    ),
                ),
            ]),
            CachedOutcome::Err {
                message,
                span_lo,
                span_hi,
            } => Json::obj([
                ("ok", Json::Bool(false)),
                ("message", Json::str(message.clone())),
                ("span_lo", Json::U64(*span_lo as u64)),
                ("span_hi", Json::U64(*span_hi as u64)),
            ]),
        }
    }

    pub(crate) fn from_json(v: &Json) -> Option<CachedOutcome> {
        if v.get("ok")?.as_bool()? {
            let mut counters = BTreeMap::new();
            if let Some(Json::Obj(cs)) = v.get("counters") {
                for (k, n) in cs {
                    if let (Some(k), Some(n)) = (crate::counter_names::intern(k), n.as_u64()) {
                        counters.insert(k, n);
                    }
                }
            }
            Some(CachedOutcome::Ok {
                nodes: v.get("nodes")?.as_u64()?,
                vir_steps: v.get("vir_steps")?.as_u64()?,
                search_nodes: v.get("search_nodes")?.as_u64()?,
                counters,
            })
        } else {
            Some(CachedOutcome::Err {
                message: v.get("message")?.as_str()?.to_string(),
                span_lo: v.get("span_lo")?.as_u64()? as u32,
                span_hi: v.get("span_hi")?.as_u64()? as u32,
            })
        }
    }
}

/// How a [`DiskCache::load`] went.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LoadOutcome {
    /// No persistent document existed (first run, or an ephemeral
    /// cache) — an ordinary cold start.
    #[default]
    Cold,
    /// The document parsed and its checksum verified; entries are live.
    Warm,
    /// A document existed but was unusable; the cache degraded to a
    /// cold start. The payload says why (for the trace event) — it
    /// never changes diagnostics.
    Recovered(&'static str),
}

/// The persistent cache: content-addressed outcomes plus the name →
/// fingerprint table used for invalidation accounting.
#[derive(Debug, Default)]
pub struct DiskCache {
    dir: Option<PathBuf>,
    entries: BTreeMap<String, CachedOutcome>,
    names: BTreeMap<String, String>,
    load_outcome: LoadOutcome,
    /// When true, every mutation is mirrored into `dirty` as a WAL
    /// record (see [`crate::wal`]); drained by [`DiskCache::take_dirty`].
    log_dirty: bool,
    dirty: Vec<crate::wal::WalRecord>,
}

impl DiskCache {
    /// An in-memory cache that [`DiskCache::save`] will not persist
    /// (used by benchmarks and warm/cold comparisons inside one
    /// process).
    pub fn ephemeral() -> Self {
        DiskCache::default()
    }

    /// Loads the cache from `dir`, degrading to an empty cold-start
    /// cache on *any* read, parse, schema, or checksum failure (a cache
    /// must never turn into an error — the failure is recorded in
    /// [`DiskCache::load_outcome`] only).
    pub fn load(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let mut cache = DiskCache {
            dir: Some(dir.clone()),
            ..DiskCache::default()
        };
        let [entries, names] =
            match read_sealed(&dir.join(CACHE_FILE), SCHEMA, ["entries", "names"]) {
                Ok(Some(payload)) => payload,
                Ok(None) => return cache,
                Err(reason) => {
                    cache.load_outcome = LoadOutcome::Recovered(reason);
                    return cache;
                }
            };
        if let Json::Obj(entries) = entries {
            for (fp, v) in entries {
                if Fingerprint::from_hex(&fp).is_some() {
                    if let Some(outcome) = CachedOutcome::from_json(&v) {
                        cache.entries.insert(fp, outcome);
                    }
                }
            }
        }
        if let Json::Obj(names) = names {
            for (name, v) in names {
                if let Json::Str(fp) = v {
                    cache.names.insert(name, fp);
                }
            }
        }
        cache.load_outcome = LoadOutcome::Warm;
        cache
    }

    /// How the load went (checksum-verified, cold, or recovered from a
    /// corrupt document).
    pub fn load_outcome(&self) -> LoadOutcome {
        self.load_outcome
    }

    /// The recovery reason, when the persistent document existed but
    /// was discarded as corrupt.
    pub fn recovered_reason(&self) -> Option<&'static str> {
        match self.load_outcome {
            LoadOutcome::Recovered(reason) => Some(reason),
            _ => None,
        }
    }

    /// Like [`DiskCache::recovered_reason`], but one-shot: the marker is
    /// cleared so a driver running several batches over one cache counts
    /// the recovery exactly once.
    pub fn take_recovered_reason(&mut self) -> Option<&'static str> {
        let reason = self.recovered_reason();
        if reason.is_some() {
            self.load_outcome = LoadOutcome::Cold;
        }
        reason
    }

    /// Number of stored outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a cached outcome by fingerprint.
    pub fn lookup(&self, fp: Fingerprint) -> Option<&CachedOutcome> {
        self.entries.get(&fp.to_hex())
    }

    /// Stores an outcome under `fp`.
    pub fn insert(&mut self, fp: Fingerprint, outcome: CachedOutcome) {
        let hex = fp.to_hex();
        if self.log_dirty {
            self.dirty.push(crate::wal::WalRecord::Entry {
                fp: hex.clone(),
                outcome: outcome.clone(),
            });
        }
        self.entries.insert(hex, outcome);
    }

    /// Records the fingerprint now current for a qualified function
    /// name, returning `true` when this *changed* an existing record (an
    /// invalidation).
    pub fn note_name(&mut self, qualified: &str, fp: Fingerprint) -> bool {
        let hex = fp.to_hex();
        let prev = self.names.get(qualified);
        let invalidated = prev.is_some_and(|prev| prev != &hex);
        // Only *moves* (new name, or a fingerprint change) are logged:
        // re-noting a stable name on every warm hit would grow the WAL
        // without changing the recoverable state.
        if self.log_dirty && prev != Some(&hex) {
            self.dirty.push(crate::wal::WalRecord::Name {
                name: qualified.to_string(),
                fp: hex.clone(),
            });
        }
        self.names.insert(qualified.to_string(), hex);
        invalidated
    }

    /// Turns on the dirty log: from now on every [`DiskCache::insert`]
    /// and name move is mirrored as a [`crate::wal::WalRecord`] for a
    /// write-ahead journal, retrievable via [`DiskCache::take_dirty`].
    pub fn enable_dirty_log(&mut self) {
        self.log_dirty = true;
    }

    /// Drains the WAL records accumulated since the last call.
    pub fn take_dirty(&mut self) -> Vec<crate::wal::WalRecord> {
        std::mem::take(&mut self.dirty)
    }

    /// Applies replayed WAL records directly (bypassing the dirty log),
    /// returning how many actually changed the cache. Records with
    /// malformed fingerprints are skipped — replay must degrade, never
    /// error.
    pub fn apply_wal(&mut self, records: &[crate::wal::WalRecord]) -> usize {
        let mut applied = 0usize;
        for rec in records {
            match rec {
                crate::wal::WalRecord::Entry { fp, outcome } => {
                    if Fingerprint::from_hex(fp).is_none() {
                        continue;
                    }
                    if self.entries.get(fp) != Some(outcome) {
                        self.entries.insert(fp.clone(), outcome.clone());
                        applied += 1;
                    }
                }
                crate::wal::WalRecord::Name { name, fp } => {
                    if Fingerprint::from_hex(fp).is_none() {
                        continue;
                    }
                    if self.names.get(name) != Some(fp) {
                        self.names.insert(name.clone(), fp.clone());
                        applied += 1;
                    }
                }
            }
        }
        applied
    }

    /// Renders the cache document (deterministic bytes, embedded
    /// content checksum).
    pub fn to_json(&self) -> String {
        let mut entries = self.entries.iter().map(|(k, v)| (k.clone(), v.to_json()));
        let mut names = self.names.iter().map(|(k, v)| (k.clone(), Json::str(v)));
        seal(SCHEMA, [("entries", &mut entries), ("names", &mut names)])
    }

    /// Writes the cache back to its directory (creating it if needed).
    /// Ephemeral caches are a no-op.
    ///
    /// The write is atomic: the document lands in a temp file first and
    /// is `rename`d over [`CACHE_FILE`], so a crash mid-save leaves
    /// either the previous document or the new one, never a torn
    /// hybrid.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory or file cannot be written.
    pub fn save(&self) -> Result<(), String> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
        // Serialize concurrent savers (daemon + batch invocations over
        // one directory); on timeout proceed last-writer-wins — the
        // atomic rename plus checksum keep every reader safe.
        let _lock = SaveLock::acquire(dir, 100, 5, LOCK_STALE_SECS);
        let tmp = dir.join(format!(
            "{CACHE_FILE}.tmp.{}.{:x}",
            std::process::id(),
            std::ptr::from_ref(self) as usize
        ));
        write_atomic(&dir.join(CACHE_FILE), &tmp, &self.to_json())
    }

    /// The backing directory, if persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DiskCache {
        let mut c = DiskCache::ephemeral();
        let fp = Fingerprint::from_hex("00000000000000000000000000000abc").unwrap();
        let mut counters = BTreeMap::new();
        counters.insert("check.deriv_nodes", 7);
        counters.insert("vir.focus", 2);
        c.insert(
            fp,
            CachedOutcome::Ok {
                nodes: 7,
                vir_steps: 2,
                search_nodes: 0,
                counters,
            },
        );
        let fp2 = Fingerprint::from_hex("00000000000000000000000000000def").unwrap();
        c.insert(
            fp2,
            CachedOutcome::Err {
                message: "cannot \"unify\"\nbranches".to_string(),
                span_lo: 3,
                span_hi: 9,
            },
        );
        c.note_name("prog/f", fp);
        c.note_name("prog/g", fp2);
        c
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let c = sample();
        let text = c.to_json();
        let parsed = Json::parse(&text).expect("parses");
        // Re-render: byte identity proves the parser inverted the
        // renderer exactly.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fearless-incr-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = sample();
        c.dir = Some(dir.clone());
        c.save().unwrap();
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.to_json(), c.to_json());
        let fp = Fingerprint::from_hex("00000000000000000000000000000abc").unwrap();
        assert!(matches!(
            loaded.lookup(fp),
            Some(CachedOutcome::Ok { nodes: 7, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_corrupt_degrades_to_empty() {
        let dir =
            std::env::temp_dir().join(format!("fearless-incr-missing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(DiskCache::load(&dir).is_empty());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE), "{ not json").unwrap();
        assert!(DiskCache::load(&dir).is_empty());
        std::fs::write(
            dir.join(CACHE_FILE),
            "{\n  \"schema\": \"some-other/9\",\n  \"entries\": {}\n}\n",
        )
        .unwrap();
        assert!(DiskCache::load(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `c` into a fresh temp dir and returns the dir.
    fn saved_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fearless-incr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = sample();
        c.dir = Some(dir.clone());
        c.save().unwrap();
        dir
    }

    /// Asserts a corrupted document degrades to a cold start with the
    /// given recovery reason, then cleans up.
    fn assert_recovers(dir: &Path, reason: &str) {
        let loaded = DiskCache::load(dir);
        assert!(loaded.is_empty(), "corrupt cache must be empty");
        assert_eq!(
            loaded.recovered_reason(),
            Some(reason),
            "load outcome was {:?}",
            loaded.load_outcome()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_releases_the_advisory_lock() {
        let dir = saved_dir("lock-release");
        assert!(
            !dir.join(LOCK_FILE).exists(),
            "the lock file must be removed after a save"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_locks_are_stolen() {
        let dir = saved_dir("lock-stale");
        std::fs::write(dir.join(LOCK_FILE), "99999").unwrap();
        // A stale threshold of zero makes the fresh lock immediately
        // stealable; acquisition must succeed without waiting out the
        // retry budget.
        let lock = SaveLock::acquire(&dir, 0, 1, 0);
        assert!(lock.held, "a stale lock must be stolen");
        drop(lock);
        assert!(!dir.join(LOCK_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contended_save_proceeds_last_writer_wins() {
        let dir = saved_dir("lock-contended");
        // A fresh lock held by "another process" that never releases:
        // acquire times out unheld, and save still writes the document.
        std::fs::write(dir.join(LOCK_FILE), "99999").unwrap();
        let lock = SaveLock::acquire(&dir, 2, 1, LOCK_STALE_SECS);
        assert!(!lock.held, "a live lock must not be stolen");
        drop(lock);
        assert!(
            dir.join(LOCK_FILE).exists(),
            "dropping an unheld guard must not remove someone else's lock"
        );
        let mut c = sample();
        c.dir = Some(dir.clone());
        c.save().unwrap();
        assert_eq!(DiskCache::load(&dir).load_outcome(), LoadOutcome::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn intact_document_loads_warm() {
        let dir = saved_dir("warm");
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.load_outcome(), LoadOutcome::Warm);
        assert_eq!(loaded.recovered_reason(), None);
        assert_eq!(loaded.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_cold_not_recovered() {
        let dir = std::env::temp_dir().join(format!("fearless-incr-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let loaded = DiskCache::load(&dir);
        assert!(loaded.is_empty());
        assert_eq!(loaded.load_outcome(), LoadOutcome::Cold);
    }

    #[test]
    fn truncated_document_recovers() {
        let dir = saved_dir("trunc");
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_recovers(&dir, "malformed json");
    }

    #[test]
    fn bit_flip_in_payload_fails_checksum() {
        let dir = saved_dir("flip");
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside a stored value: the document still
        // parses, so only the checksum catches it.
        let flipped = text.replace("\"nodes\": 7", "\"nodes\": 8");
        assert_ne!(flipped, text, "payload digit present");
        std::fs::write(&path, flipped).unwrap();
        assert_recovers(&dir, "checksum mismatch");
    }

    #[test]
    fn torn_write_tail_recovers() {
        // Simulate a torn write: the first half of the new document
        // followed by the tail of a different (older) one — parseable
        // prefixes of torn files are exactly what the checksum exists
        // to reject.
        let dir = saved_dir("torn");
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut torn = text[..text.len() / 2].to_string();
        torn.push_str("garbage-tail\u{0}\u{0}\u{0}");
        std::fs::write(&path, torn).unwrap();
        assert_recovers(&dir, "malformed json");
    }

    #[test]
    fn schema_version_bump_recovers() {
        let dir = saved_dir("schema");
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace(SCHEMA, "fearless-incr-cache/2");
        std::fs::write(&path, text).unwrap();
        assert_recovers(&dir, "schema mismatch");
    }

    #[test]
    fn invalid_utf8_recovers() {
        let dir = saved_dir("utf8");
        std::fs::write(dir.join(CACHE_FILE), [0xff, 0xfe, b'{', b'}']).unwrap();
        assert_recovers(&dir, "invalid utf-8");
    }

    #[test]
    fn missing_checksum_field_recovers() {
        let dir = saved_dir("nochk");
        let path = dir.join(CACHE_FILE);
        // Strip the checksum line but keep valid JSON + schema.
        std::fs::write(
            &path,
            format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"entries\": {{}},\n  \"names\": {{}}\n}}"),
        )
        .unwrap();
        assert_recovers(&dir, "missing checksum");
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let dir = saved_dir("tmpclean");
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "temp files must be renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn steal_reverifies_the_lock_identity() {
        // Regression test for the stale-steal TOCTOU window: a lock that
        // changed hands between the staleness check and the steal must
        // NOT be removed, and must survive in place.
        let dir = saved_dir("lock-toctou");
        let path = dir.join(LOCK_FILE);
        std::fs::write(&path, "11111").unwrap();
        let stale_sample = LockSample::read(&path).unwrap();
        // A fresh holder re-creates the lock in the window (different
        // pid — the sampled identity no longer matches).
        std::fs::write(&path, "22222").unwrap();
        assert!(
            !try_steal(&path, &stale_sample),
            "a lock that changed identity must not be stolen"
        );
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "22222",
            "the fresh holder's lock must survive the aborted steal"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn steal_succeeds_when_the_sample_still_matches() {
        let dir = saved_dir("lock-steal-ok");
        let path = dir.join(LOCK_FILE);
        std::fs::write(&path, "99999").unwrap();
        let sample = LockSample::read(&path).unwrap();
        assert!(
            try_steal(&path, &sample),
            "an unchanged stale lock must be stolen"
        );
        assert!(!path.exists(), "the stolen lock must be removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_log_mirrors_inserts_and_name_moves() {
        use crate::wal::WalRecord;
        let mut c = DiskCache::ephemeral();
        let a = Fingerprint::from_hex("00000000000000000000000000000001").unwrap();
        let b = Fingerprint::from_hex("00000000000000000000000000000002").unwrap();
        // Mutations before the log is enabled are not recorded.
        c.insert(
            a,
            CachedOutcome::Err {
                message: "pre".to_string(),
                span_lo: 0,
                span_hi: 1,
            },
        );
        c.enable_dirty_log();
        assert!(c.take_dirty().is_empty());
        c.insert(
            b,
            CachedOutcome::Ok {
                nodes: 3,
                vir_steps: 1,
                search_nodes: 0,
                counters: BTreeMap::new(),
            },
        );
        c.note_name("p/f", b);
        c.note_name("p/f", b); // stable re-note: not logged
        let dirty = c.take_dirty();
        assert_eq!(dirty.len(), 2, "{dirty:?}");
        assert!(matches!(&dirty[0], WalRecord::Entry { fp, .. } if fp == &b.to_hex()));
        assert!(
            matches!(&dirty[1], WalRecord::Name { name, fp } if name == "p/f" && fp == &b.to_hex())
        );
        assert!(c.take_dirty().is_empty(), "take_dirty drains");

        // Replaying the records into a fresh cache reproduces the state.
        let mut fresh = DiskCache::ephemeral();
        assert_eq!(fresh.apply_wal(&dirty), 2);
        assert_eq!(fresh.apply_wal(&dirty), 0, "replay is idempotent");
        assert!(matches!(
            fresh.lookup(b),
            Some(CachedOutcome::Ok { nodes: 3, .. })
        ));
    }

    #[test]
    fn note_name_counts_moves_only() {
        let mut c = DiskCache::ephemeral();
        let a = Fingerprint::from_hex("00000000000000000000000000000001").unwrap();
        let b = Fingerprint::from_hex("00000000000000000000000000000002").unwrap();
        assert!(
            !c.note_name("p/f", a),
            "first sighting is not an invalidation"
        );
        assert!(!c.note_name("p/f", a), "same fingerprint is stable");
        assert!(c.note_name("p/f", b), "moved fingerprint invalidates");
    }
}
