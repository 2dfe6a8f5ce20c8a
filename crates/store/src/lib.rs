//! Content-addressed on-disk result store for `modsoc`.
//!
//! The DATE 2008 experiments re-run the same per-core ATPG jobs over and
//! over — every `modsoc experiment soc2` invocation regenerates the same
//! four cores from the same seeds and solves them from scratch. This
//! crate provides the bottom layer that makes those runs resumable and
//! cheap to repeat:
//!
//! * [`ResultStore`] — a directory of immutable JSON entries keyed by a
//!   SHA-256 content address ([`StoreKey`], computed by callers from a
//!   canonical serialization of the work unit). Writes are atomic
//!   (tmp file + rename); reads validate a payload checksum so a
//!   truncated or bit-flipped entry is *evicted and recomputed*, never
//!   trusted and never a crash.
//! * [`Journal`] — an append-style completion log used by the campaign
//!   runner: each finished unit is recorded with its key and a summary,
//!   and a re-invocation skips units whose `(unit, key)` pair is already
//!   journaled.
//! * [`sha256`] — the hand-rolled FIPS 180-4 digest both of the above
//!   are built on (the workspace vendors no crypto crate).
//! * [`backend`] — the transport seam: [`ResultStore`] owns envelope
//!   validation and accounting while a [`StoreBackend`] moves raw
//!   documents. [`LocalBackend`] is the original directory layout
//!   (byte-compatible with pre-trait stores); `modsoc_core::remote`
//!   adds an HTTP backend speaking to a `modsoc serve --store` daemon,
//!   plus the claim/lease primitive distributed campaigns partition
//!   work with.
//!
//! The store is size-bounded only on demand: [`ResultStore::gc`] is an
//! oldest-atime-first eviction pass (`modsoc store gc --max-bytes`).
//! Concurrent writers are safe at three levels: the atomic rename makes
//! individual entries torn-proof, entry and journal writes additionally
//! take a cross-process advisory [`lock::StoreLock`] (lock-file +
//! jittered backoff, see [`lock`]) so a `modsoc serve` daemon and a
//! sidecar campaign can share one store, and transient `create`/`rename`
//! failures are retried with bounded backoff rather than surfacing as
//! spurious errors.
//!
//! Cache traffic is observable through [`modsoc_metrics`]: every
//! [`ResultStore`] operation bumps a process-local counter *and* reports
//! through a [`MetricsSink`] (`store_hits`, `store_misses`,
//! `store_writes`, `store_evictions`, `store_retries`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod journal;
pub mod lock;
pub mod sha256;

pub use backend::{
    ClaimAction, ClaimOutcome, ClaimRequest, EntryMeta, LocalBackend, RawDoc, StoreBackend,
};
pub use journal::{Journal, JournalEntry};
pub use lock::{LockOptions, StoreLock};

use modsoc_metrics::json::{self, JsonValue};
use modsoc_metrics::{Counter, MetricsSink};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// On-disk schema version. Bumping it invalidates every existing entry:
/// `open` evicts objects whose manifest does not match, and `get`
/// rejects entries recorded under a different schema.
pub const STORE_SCHEMA: u64 = 1;

/// Identifying tag written into the manifest so a store directory is
/// recognizable (and a random directory is not mistaken for one).
pub const STORE_FORMAT: &str = "modsoc-store";

/// A 32-byte content address (SHA-256 digest) naming one store entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey(pub [u8; 32]);

impl StoreKey {
    /// Lowercase hex form — also the entry's file stem on disk.
    #[must_use]
    pub fn hex(&self) -> String {
        sha256::hex(&self.0)
    }

    /// Parse the 64-character lowercase hex form back into a key.
    /// Returns `None` for anything else (wrong length, uppercase,
    /// non-hex) — the strictness doubles as path-safety for keys that
    /// arrive over the wire.
    #[must_use]
    pub fn from_hex(hex: &str) -> Option<StoreKey> {
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            let nib = |c: u8| match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                _ => None,
            };
            let hi = nib(hex.as_bytes()[2 * i])?;
            let lo = nib(hex.as_bytes()[2 * i + 1])?;
            *byte = (hi << 4) | lo;
        }
        Some(StoreKey(out))
    }
}

impl fmt::Debug for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StoreKey({})", self.hex())
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Errors surfaced by store operations that the caller must handle
/// (directory creation, manifest writes, entry writes). Read-side
/// corruption is *not* an error — corrupt entries are evicted and the
/// read reports a miss.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// An I/O operation on the store directory failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// An advisory lock stayed held by a live owner past the acquire
    /// deadline.
    Contended {
        /// The lock file that could not be acquired.
        path: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O error at {}: {source}", path.display())
            }
            StoreError::Contended { path } => {
                write!(f, "store lock at {} is contended", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Contended { .. } => None,
        }
    }
}

pub(crate) fn io_err(path: &Path, source: io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Attempts (initial try + retries) before a write failure is final.
const WRITE_ATTEMPTS: u32 = 4;

/// Write `contents` to `path` atomically and durably: write a sibling
/// tmp file in the same directory, flush it, rename over the
/// destination, then fsync the parent directory so the rename itself
/// survives a power cut. Readers either see the old entry or the
/// complete new one, never a torn write.
///
/// Transient `create`/`rename` failures (e.g. an overloaded filesystem
/// or an antivirus-style scanner briefly pinning the tmp file) are
/// retried with jittered backoff up to [`WRITE_ATTEMPTS`]; the returned
/// count is how many retries were needed (0 on a clean first attempt),
/// reported upstream as `store_retries`.
pub(crate) fn atomic_write(path: &Path, contents: &str) -> Result<u64, StoreError> {
    atomic_write_with_faults(path, contents, &mut |_| None)
}

/// [`atomic_write`] with an injectable fault seam: `inject(attempt)`
/// may return an error to substitute for that attempt's rename, letting
/// tests exercise the retry path without a misbehaving filesystem.
pub(crate) fn atomic_write_with_faults(
    path: &Path,
    contents: &str,
    inject: &mut dyn FnMut(u32) -> Option<io::Error>,
) -> Result<u64, StoreError> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let stem = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "entry".to_string());
    let tmp = dir.join(format!(".tmp-{}-{stem}", std::process::id()));
    let mut rng = 0u64;
    let mut last_err = None;
    for attempt in 0..WRITE_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(lock::backoff_delay(attempt - 1, &mut rng));
        }
        match write_once(&tmp, path, contents, inject(attempt)) {
            Ok(()) => {
                // The rename is atomic but only durable once the parent
                // directory's own entry list reaches the disk; without
                // this fsync a power loss can resurrect the replaced
                // file (or un-create this one). Best-effort: not every
                // platform lets a directory be opened for syncing.
                if let Ok(d) = fs::File::open(dir) {
                    let _ = d.sync_all();
                }
                return Ok(u64::from(attempt));
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                last_err = Some(e);
            }
        }
    }
    Err(io_err(
        path,
        last_err.unwrap_or_else(|| io::Error::other("write failed")),
    ))
}

fn write_once(
    tmp: &Path,
    path: &Path,
    contents: &str,
    injected: Option<io::Error>,
) -> Result<(), io::Error> {
    let mut f = fs::File::create(tmp)?;
    f.write_all(contents.as_bytes())?;
    f.sync_all()?;
    drop(f);
    if let Some(e) = injected {
        return Err(e);
    }
    fs::rename(tmp, path)
}

/// Checksum guarding a JSON payload: the SHA-256 hex digest of its
/// compact serialization. Stored alongside the payload so byte flips
/// anywhere in the entry are detected on read.
#[must_use]
pub fn payload_check(payload: &JsonValue) -> String {
    sha256::hex(&sha256::digest(payload.to_compact().as_bytes()))
}

/// Validate one raw entry document against the envelope contract:
/// parseable JSON, current schema, a `key` field equal to `key_hex`,
/// and a `check` field equal to the payload's checksum. Returns the
/// payload on success and the taxonomy's eviction reason on failure.
///
/// This is *the* corruption taxonomy — [`ResultStore::get`] runs it on
/// every read regardless of backend, the serve daemon runs it before
/// ingesting a `/store/put`, and `verify_all` runs it per entry.
///
/// # Errors
///
/// The eviction reason: `"malformed JSON"`, `"schema mismatch"`,
/// `"key mismatch"`, `"missing payload"` or `"checksum mismatch"`.
pub fn validate_entry_doc(key_hex: &str, text: &str) -> Result<JsonValue, String> {
    let Ok(mut doc) = json::parse(text) else {
        return Err("malformed JSON".to_string());
    };
    if doc.get("schema").and_then(JsonValue::as_u64) != Some(STORE_SCHEMA) {
        return Err("schema mismatch".to_string());
    }
    if doc.get("key").and_then(JsonValue::as_str) != Some(key_hex) {
        return Err("key mismatch".to_string());
    }
    let Some(payload) = doc.take("payload") else {
        return Err("missing payload".to_string());
    };
    if doc.get("check").and_then(JsonValue::as_str) != Some(payload_check(&payload).as_str()) {
        return Err("checksum mismatch".to_string());
    }
    Ok(payload)
}

/// Why [`ResultStore::ingest`] or [`ResultStore::merge_journal_raw`]
/// refused a wire document.
#[derive(Debug)]
pub enum IngestError {
    /// The document failed validation; the payload is the reason
    /// (reported to the sender as a 422).
    Invalid(String),
    /// The document was valid but could not be stored.
    Store(StoreError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Invalid(why) => write!(f, "invalid document: {why}"),
            IngestError::Store(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for IngestError {}

/// Outcome of a [`ResultStore::gc`] sweep.
#[derive(Debug, Clone)]
pub struct GcReport {
    /// Entries present before the sweep.
    pub scanned: usize,
    /// Content addresses evicted, oldest-first.
    pub evicted: Vec<String>,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
    /// Entries kept.
    pub kept: usize,
    /// Bytes kept.
    pub kept_bytes: u64,
}

/// A content-addressed result store over a pluggable [`StoreBackend`].
///
/// The wrapper owns the store's *semantics* — envelope construction,
/// the read-side corruption taxonomy, hit/miss/write/eviction
/// accounting — and delegates raw document I/O to the backend:
/// [`LocalBackend`] (the original directory layout, the default from
/// [`ResultStore::open`]) or any other [`StoreBackend`] via
/// [`ResultStore::with_backend`].
#[derive(Debug)]
pub struct ResultStore {
    backend: Arc<dyn StoreBackend>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    retries: AtomicU64,
}

impl ResultStore {
    /// Open (creating if necessary) the directory-backed store rooted
    /// at `dir`.
    ///
    /// A missing directory is created and stamped with a manifest. An
    /// existing directory with a corrupt or schema-mismatched manifest
    /// is *reset*: every object and journal is evicted (counted) and a
    /// fresh manifest is written — stale-format entries must never be
    /// decoded as current-format ones.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory tree or manifest
    /// cannot be created.
    pub fn open(dir: &Path) -> Result<ResultStore, StoreError> {
        let (backend, reset_evictions) = LocalBackend::open(dir)?;
        let store = ResultStore::with_backend(Arc::new(backend));
        store
            .evictions
            .fetch_add(reset_evictions, Ordering::Relaxed);
        Ok(store)
    }

    /// Wrap an already-constructed backend (e.g. an HTTP client
    /// speaking to a `modsoc serve --store` daemon). The full read-side
    /// corruption taxonomy applies regardless of transport.
    #[must_use]
    pub fn with_backend(backend: Arc<dyn StoreBackend>) -> ResultStore {
        ResultStore {
            backend,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// The transport under this store.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn StoreBackend> {
        &self.backend
    }

    /// Human-readable locator of the backing storage (directory path or
    /// base URL), for logs.
    #[must_use]
    pub fn describe(&self) -> String {
        self.backend.describe()
    }

    /// Remove the entry for `key` because the caller could not use it —
    /// e.g. the envelope checksum held but the payload did not decode
    /// into the expected result shape. Logged and counted as an
    /// eviction; a no-op when no entry exists.
    pub fn evict(&self, key: &StoreKey, why: &str, sink: &dyn MetricsSink) {
        if self.backend.remove_entry(&key.hex(), why) {
            self.note_eviction(sink);
        }
    }

    /// Fetch the payload stored under `key`, or `None` on a miss.
    ///
    /// Every failure mode — missing file, unreadable file, malformed
    /// JSON, schema mismatch, key mismatch, checksum mismatch — is a
    /// miss; validation failures additionally evict the entry so the
    /// next write replaces it. This is the corruption-tolerance
    /// contract: a damaged store degrades to recomputation, it does not
    /// crash or serve garbage. The taxonomy runs *here*, on the
    /// consuming side, whatever the backend — a remote store serving
    /// damaged bytes is observed as a client-side eviction.
    pub fn get(&self, key: &StoreKey, sink: &dyn MetricsSink) -> Option<JsonValue> {
        let hex = key.hex();
        if self.backend.is_remote() {
            sink.add(Counter::StoreRemoteGets, 1);
        }
        let miss = || {
            self.misses.fetch_add(1, Ordering::Relaxed);
            sink.add(Counter::StoreMisses, 1);
        };
        let text = match self.backend.load_entry(&hex) {
            RawDoc::Missing => {
                miss();
                return None;
            }
            RawDoc::Unreadable(why) => {
                if self.backend.remove_entry(&hex, &why) {
                    self.note_eviction(sink);
                }
                miss();
                return None;
            }
            RawDoc::Present(text) => text,
        };
        match validate_entry_doc(&hex, &text) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                sink.add(Counter::StoreHits, 1);
                Some(payload)
            }
            Err(why) => {
                if self.backend.remove_entry(&hex, &why) {
                    self.note_eviction(sink);
                }
                miss();
                None
            }
        }
    }

    /// Store `payload` under `key` (atomically, replacing any previous
    /// entry for the key). The write holds the key's cross-process
    /// advisory lock, so a daemon and a sidecar campaign sharing this
    /// store never interleave writes to one entry.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the entry cannot be written and
    /// [`StoreError::Contended`] when another live process holds the
    /// entry lock past the deadline; callers treat both as non-fatal
    /// (the result was computed, only the cache write failed).
    pub fn put(
        &self,
        key: &StoreKey,
        payload: &JsonValue,
        sink: &dyn MetricsSink,
    ) -> Result<(), StoreError> {
        let doc = JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::Number(STORE_SCHEMA as f64)),
            ("key".to_string(), JsonValue::String(key.hex())),
            (
                "check".to_string(),
                JsonValue::String(payload_check(payload)),
            ),
            ("payload".to_string(), payload.clone()),
        ]);
        if self.backend.is_remote() {
            sink.add(Counter::StoreRemotePuts, 1);
        }
        let retries = self.backend.store_entry(&key.hex(), &doc.to_compact())?;
        self.note_retries(retries, sink);
        self.writes.fetch_add(1, Ordering::Relaxed);
        sink.add(Counter::StoreWrites, 1);
        Ok(())
    }

    /// Read the raw entry document under `key_hex` without validating
    /// or counting — the serve daemon's `/store/get` uses this so
    /// validation happens exactly once, on the consuming client.
    #[must_use]
    pub fn load_entry_raw(&self, key_hex: &str) -> RawDoc {
        self.backend.load_entry(key_hex)
    }

    /// Store an already-enveloped wire document under `key_hex` after
    /// validating it — the serve daemon's `/store/put`. The received
    /// bytes are stored verbatim (no re-serialization), so the entry a
    /// client wrote through the daemon is byte-identical to one it
    /// would have written to a local store.
    ///
    /// # Errors
    ///
    /// [`IngestError::Invalid`] when `key_hex` is not a well-formed key
    /// or the document fails the envelope contract;
    /// [`IngestError::Store`] when the write itself fails.
    pub fn ingest(
        &self,
        key_hex: &str,
        doc: &str,
        sink: &dyn MetricsSink,
    ) -> Result<(), IngestError> {
        if StoreKey::from_hex(key_hex).is_none() {
            return Err(IngestError::Invalid("malformed key".to_string()));
        }
        validate_entry_doc(key_hex, doc).map_err(IngestError::Invalid)?;
        let retries = self
            .backend
            .store_entry(key_hex, doc)
            .map_err(IngestError::Store)?;
        self.note_retries(retries, sink);
        self.writes.fetch_add(1, Ordering::Relaxed);
        sink.add(Counter::StoreWrites, 1);
        Ok(())
    }

    /// Corruption sweep: validate every object in the store — parseable
    /// JSON, current schema, key matching the file stem, checksum
    /// matching the payload — and report `(valid, corrupt)` counts
    /// without evicting anything. A store that survived a crash, kill
    /// or drain must sweep with zero corrupt entries (atomic renames
    /// mean an entry either fully exists or does not); the serve/chaos
    /// suites and the CI serve gate assert exactly that.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] only when the store cannot be
    /// enumerated (remote backends never can — sweeps run where the
    /// bytes live); unreadable *entries* count as corrupt.
    pub fn verify_all(&self) -> Result<(usize, usize), StoreError> {
        self.backend.verify_all()
    }

    /// Size-bounded eviction pass: while the store's total entry size
    /// exceeds `max_bytes`, evict the least-recently-accessed entry
    /// (oldest atime first, mtime where atime is not tracked, key hex
    /// as the deterministic tiebreak). Journals are never collected —
    /// only objects, which are recomputable by construction. Each
    /// eviction is logged and counted like any other.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the store cannot be enumerated
    /// (remote backends included — GC runs where the bytes live, e.g.
    /// `modsoc store gc` on the serve daemon's directory).
    pub fn gc(&self, max_bytes: u64, sink: &dyn MetricsSink) -> Result<GcReport, StoreError> {
        let mut metas = self.backend.entry_meta()?;
        metas.sort_by(|a, b| {
            a.last_access
                .cmp(&b.last_access)
                .then_with(|| a.key_hex.cmp(&b.key_hex))
        });
        let scanned = metas.len();
        let mut total: u64 = metas.iter().map(|m| m.bytes).sum();
        let mut evicted = Vec::new();
        let mut evicted_bytes = 0u64;
        for meta in &metas {
            if total <= max_bytes {
                break;
            }
            if self.backend.remove_entry(&meta.key_hex, "gc: size bound") {
                self.note_eviction(sink);
                total -= meta.bytes;
                evicted_bytes += meta.bytes;
                evicted.push(meta.key_hex.clone());
            }
        }
        Ok(GcReport {
            scanned,
            kept: scanned - evicted.len(),
            kept_bytes: total,
            evicted,
            evicted_bytes,
        })
    }

    /// Acquire the `(journal, unit)` claim for `owner` with the given
    /// lease — the compare-and-swap distributed campaigns partition
    /// work with. A claim whose lease has expired (holder killed) is
    /// broken and re-offered; re-acquiring one's own live claim renews
    /// it.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on transport failure or unresolved CAS races.
    pub fn claim_unit(
        &self,
        journal: &str,
        unit: &str,
        key: &str,
        owner: &str,
        lease: Duration,
    ) -> Result<ClaimOutcome, StoreError> {
        self.backend.claim(&ClaimRequest {
            journal,
            unit,
            key,
            owner,
            lease,
            action: ClaimAction::Acquire,
        })
    }

    /// Refresh `owner`'s live claim on `(journal, unit)`, extending its
    /// lease. Returns [`ClaimOutcome::NotOwner`] when the claim expired
    /// and was taken by someone else.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on transport failure.
    pub fn renew_claim(
        &self,
        journal: &str,
        unit: &str,
        owner: &str,
    ) -> Result<ClaimOutcome, StoreError> {
        self.backend.claim(&ClaimRequest {
            journal,
            unit,
            key: "",
            owner,
            lease: Duration::ZERO,
            action: ClaimAction::Renew,
        })
    }

    /// Drop `owner`'s claim on `(journal, unit)` so the unit is
    /// immediately re-offerable. Idempotent: releasing an absent claim
    /// is [`ClaimOutcome::Released`].
    ///
    /// # Errors
    ///
    /// [`StoreError`] on transport failure.
    pub fn release_claim(
        &self,
        journal: &str,
        unit: &str,
        owner: &str,
    ) -> Result<ClaimOutcome, StoreError> {
        self.backend.claim(&ClaimRequest {
            journal,
            unit,
            key: "",
            owner,
            lease: Duration::ZERO,
            action: ClaimAction::Release,
        })
    }

    /// Cache hits since this handle was opened.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since this handle was opened.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entry writes since this handle was opened.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Evictions (corrupt/stale entries removed) since this handle was
    /// opened.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Transient write failures retried away since this handle was
    /// opened (each retry that eventually succeeded counts once).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    pub(crate) fn note_retries(&self, retries: u64, sink: &dyn MetricsSink) {
        if retries > 0 {
            self.retries.fetch_add(retries, Ordering::Relaxed);
            sink.add(Counter::StoreRetries, retries);
        }
    }

    /// One-line human summary of cache traffic, e.g.
    /// `5 hits, 0 misses, 0 writes, 0 evictions`.
    #[must_use]
    pub fn traffic_summary(&self) -> String {
        format!(
            "{} hits, {} misses, {} writes, {} evictions",
            self.hits(),
            self.misses(),
            self.writes(),
            self.evictions()
        )
    }

    pub(crate) fn note_eviction(&self, sink: &dyn MetricsSink) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        sink.add(Counter::StoreEvictions, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_metrics::{NullSink, RecordingSink};

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("modsoc_store_test_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key_of(data: &[u8]) -> StoreKey {
        StoreKey(sha256::digest(data))
    }

    fn entry_path(root: &Path, key: &StoreKey) -> PathBuf {
        root.join("objects").join(format!("{}.json", key.hex()))
    }

    fn sample_payload() -> JsonValue {
        json::parse(r#"{"patterns":["01X","1X0"],"coverage":0.875}"#).unwrap()
    }

    #[test]
    fn round_trip_hit() {
        let root = temp_root("round_trip");
        let store = ResultStore::open(&root).unwrap();
        let key = key_of(b"unit-1");
        let sink = RecordingSink::new();
        assert!(store.get(&key, &sink).is_none());
        store.put(&key, &sample_payload(), &sink).unwrap();
        assert_eq!(store.get(&key, &sink), Some(sample_payload()));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.writes(), 1);
        assert_eq!(store.evictions(), 0);
        let snap = sink.snapshot();
        assert_eq!(snap.counter(Counter::StoreHits), 1);
        assert_eq!(snap.counter(Counter::StoreMisses), 1);
        assert_eq!(snap.counter(Counter::StoreWrites), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_entry_is_evicted_not_fatal() {
        let root = temp_root("truncated");
        let store = ResultStore::open(&root).unwrap();
        let key = key_of(b"unit-2");
        store.put(&key, &sample_payload(), &NullSink).unwrap();
        let path = entry_path(&root, &key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(store.get(&key, &NullSink).is_none());
        assert_eq!(store.evictions(), 1);
        assert!(!path.exists(), "corrupt entry must be removed");
        // The slot is reusable after eviction.
        store.put(&key, &sample_payload(), &NullSink).unwrap();
        assert!(store.get(&key, &NullSink).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn byte_flip_in_payload_is_detected() {
        let root = temp_root("byteflip");
        let store = ResultStore::open(&root).unwrap();
        let key = key_of(b"unit-3");
        store.put(&key, &sample_payload(), &NullSink).unwrap();
        let path = entry_path(&root, &key);
        // Flip a digit inside the payload; the envelope stays
        // well-formed JSON but the checksum no longer matches.
        let text = fs::read_to_string(&path).unwrap();
        let flipped = text.replace("0.875", "0.975");
        assert_ne!(text, flipped, "test must actually change the payload");
        fs::write(&path, flipped).unwrap();
        assert!(store.get(&key, &NullSink).is_none());
        assert_eq!(store.evictions(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_key_in_envelope_is_rejected() {
        let root = temp_root("wrongkey");
        let store = ResultStore::open(&root).unwrap();
        let a = key_of(b"a");
        let b = key_of(b"b");
        store.put(&a, &sample_payload(), &NullSink).unwrap();
        // Copy a's entry into b's slot: self-consistent, but addressed
        // wrong — must be rejected.
        fs::copy(entry_path(&root, &a), entry_path(&root, &b)).unwrap();
        assert!(store.get(&b, &NullSink).is_none());
        assert_eq!(store.evictions(), 1);
        assert!(store.get(&a, &NullSink).is_some(), "a is untouched");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_mismatch_resets_the_store() {
        let root = temp_root("manifest");
        let store = ResultStore::open(&root).unwrap();
        let key = key_of(b"unit-4");
        store.put(&key, &sample_payload(), &NullSink).unwrap();
        drop(store);
        fs::write(
            root.join("manifest.json"),
            "{\"format\":\"modsoc-store\",\"schema\":999}",
        )
        .unwrap();
        let store = ResultStore::open(&root).unwrap();
        assert_eq!(store.evictions(), 1, "old entry evicted on reset");
        assert!(store.get(&key, &NullSink).is_none());
        // Manifest is rewritten to the current schema.
        let text = fs::read_to_string(root.join("manifest.json")).unwrap();
        assert!(text.contains("\"schema\":1"), "{text}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_preserves_entries() {
        let root = temp_root("reopen");
        let key = key_of(b"unit-5");
        {
            let store = ResultStore::open(&root).unwrap();
            store.put(&key, &sample_payload(), &NullSink).unwrap();
        }
        let store = ResultStore::open(&root).unwrap();
        assert_eq!(store.get(&key, &NullSink), Some(sample_payload()));
        assert_eq!(store.evictions(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn transient_write_failures_are_retried() {
        let root = temp_root("retry");
        fs::create_dir_all(&root).unwrap();
        let path = root.join("entry.json");
        let mut injected = 0u32;
        let retries = atomic_write_with_faults(&path, "{\"ok\":true}", &mut |attempt| {
            if attempt < 2 {
                injected += 1;
                Some(io::Error::other("transient rename failure"))
            } else {
                None
            }
        })
        .unwrap();
        assert_eq!(retries, 2);
        assert_eq!(injected, 2);
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"ok\":true}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn persistent_write_failure_is_final_and_leaves_no_tmp() {
        let root = temp_root("retry_exhaust");
        fs::create_dir_all(&root).unwrap();
        let path = root.join("entry.json");
        let err = atomic_write_with_faults(&path, "x", &mut |_| {
            Some(io::Error::other("permanent failure"))
        })
        .unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(!path.exists());
        let leftovers: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(leftovers.is_empty(), "tmp files leaked: {leftovers:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn put_counts_retries_through_the_sink() {
        let root = temp_root("retry_sink");
        let store = ResultStore::open(&root).unwrap();
        let sink = RecordingSink::new();
        store
            .put(&key_of(b"clean"), &sample_payload(), &sink)
            .unwrap();
        assert_eq!(store.retries(), 0, "clean writes retry nothing");
        assert_eq!(sink.snapshot().counter(Counter::StoreRetries), 0);
        store.note_retries(3, &sink);
        assert_eq!(store.retries(), 3);
        assert_eq!(sink.snapshot().counter(Counter::StoreRetries), 3);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_puts_to_one_key_serialize_cleanly() {
        let root = temp_root("put_race");
        let store = ResultStore::open(&root).unwrap();
        let key = key_of(b"contended");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10 {
                        store.put(&key, &sample_payload(), &NullSink).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.get(&key, &NullSink), Some(sample_payload()));
        assert_eq!(store.evictions(), 0);
        // The lock must be released afterwards: a fresh put succeeds fast.
        store.put(&key, &sample_payload(), &NullSink).unwrap();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_display_is_hex() {
        let key = key_of(b"abc");
        assert_eq!(
            key.to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(format!("{key:?}"), format!("StoreKey({key})"));
    }
}
