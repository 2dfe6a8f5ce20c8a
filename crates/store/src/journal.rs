//! Completion journal for resumable campaigns.
//!
//! A [`Journal`] is the campaign runner's durable memory: every unit
//! that ran to *completion* is recorded as `(unit name, content key,
//! summary)`. On re-invocation the runner looks each unit up before
//! running it — a match means "already done with these exact inputs"
//! and the unit is skipped, its report row rebuilt from the summary.
//!
//! The key half of the pair is what makes resumption safe: a unit is
//! only skipped when its *content address* (circuit + options hash)
//! matches the journaled one, so editing a campaign spec invalidates
//! exactly the units it changes.
//!
//! The journal file shares the store's corruption contract: it is
//! rewritten atomically on every record, carries a payload checksum,
//! and a damaged journal is evicted (logged, counted) and treated as
//! empty — the campaign recomputes instead of crashing.

use crate::backend::{RawDoc, StoreBackend};
use crate::{payload_check, IngestError, ResultStore, StoreError, STORE_SCHEMA};
use modsoc_metrics::json::{self, JsonValue};
use modsoc_metrics::MetricsSink;
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// One journaled completion.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Campaign-unique unit name.
    pub unit: String,
    /// Content address (hex) of the unit's inputs when it completed.
    pub key: String,
    /// Caller-defined summary of the result (report row material).
    pub summary: JsonValue,
}

/// A durable list of completed units, merged-and-rewritten atomically
/// on every [`Journal::record`] under the backend's cross-process
/// advisory lock: two processes journaling the same campaign merge
/// their completions instead of losing them to a read-modify-write
/// race. The merge itself runs *backend-side* — on the local directory
/// for [`crate::LocalBackend`], on the serve daemon for the HTTP
/// backend — so N workers on separate machines share one journal.
#[derive(Debug)]
pub struct Journal {
    backend: Arc<dyn StoreBackend>,
    stem: String,
    entries: Vec<JournalEntry>,
}

/// Map a journal name to a safe file stem (alphanumerics, `-`, `_`).
pub(crate) fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn entry_to_json(e: &JournalEntry) -> JsonValue {
    JsonValue::Object(vec![
        ("unit".to_string(), JsonValue::String(e.unit.clone())),
        ("key".to_string(), JsonValue::String(e.key.clone())),
        ("summary".to_string(), e.summary.clone()),
    ])
}

fn entry_from_json(item: &JsonValue) -> Option<JournalEntry> {
    Some(JournalEntry {
        unit: item.get("unit")?.as_str()?.to_string(),
        key: item.get("key")?.as_str()?.to_string(),
        summary: item.get("summary")?.clone(),
    })
}

fn entries_to_json(entries: &[JournalEntry]) -> JsonValue {
    JsonValue::Array(entries.iter().map(entry_to_json).collect())
}

fn entries_from_json(doc: &JsonValue) -> Option<Vec<JournalEntry>> {
    if doc.get("schema").and_then(JsonValue::as_u64) != Some(STORE_SCHEMA) {
        return None;
    }
    let payload = doc.get("entries")?;
    if doc.get("check").and_then(JsonValue::as_str) != Some(payload_check(payload).as_str()) {
        return None;
    }
    let mut entries = Vec::new();
    for item in payload.as_array()? {
        entries.push(entry_from_json(item)?);
    }
    Some(entries)
}

fn entries_from_text(text: &str) -> Option<Vec<JournalEntry>> {
    json::parse(text).ok().as_ref().and_then(entries_from_json)
}

/// Serialize `entries` into the checksummed journal envelope.
fn journal_doc(entries: &[JournalEntry]) -> String {
    let payload = entries_to_json(entries);
    JsonValue::Object(vec![
        ("schema".to_string(), JsonValue::Number(STORE_SCHEMA as f64)),
        (
            "check".to_string(),
            JsonValue::String(payload_check(&payload)),
        ),
        ("entries".to_string(), payload),
    ])
    .to_compact()
}

/// The backend-side merge step for [`crate::LocalBackend`]: read the
/// on-disk journal at `path` (a corrupt or absent one contributes
/// nothing — `open_journal` owns corruption accounting), replace any
/// entry with the incoming entry's unit name, append the incoming
/// entry, and return the serialized merged document. Call with the
/// journal lock held.
pub(crate) fn merge_entry_into(path: &Path, entry_doc: &str) -> String {
    let mut entries = fs::read_to_string(path)
        .ok()
        .as_deref()
        .and_then(entries_from_text)
        .unwrap_or_default();
    if let Some(incoming) = json::parse(entry_doc)
        .ok()
        .as_ref()
        .and_then(entry_from_json)
    {
        entries.retain(|e| e.unit != incoming.unit);
        entries.push(incoming);
    }
    journal_doc(&entries)
}

impl Journal {
    /// Entries recorded so far, oldest first.
    #[must_use]
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Look up a completion by unit name *and* content key. A name
    /// match with a different key means the unit's inputs changed since
    /// it was journaled — not a completion.
    #[must_use]
    pub fn find(&self, unit: &str, key: &str) -> Option<&JournalEntry> {
        self.entries.iter().find(|e| e.unit == unit && e.key == key)
    }

    /// Record a completion and persist the journal atomically and
    /// durably (the local rewrite fsyncs both the file and its parent
    /// directory). An existing entry with the same unit name is
    /// replaced (re-run after a spec change).
    ///
    /// The merge-and-rewrite runs backend-side under the journal's
    /// cross-process advisory lock, and the merged document it returns
    /// — this entry plus every completion any other process has
    /// journaled — is adopted as this handle's entry list, so two
    /// campaign runners sharing one journal each keep the other's
    /// progress. Write retries are reported through `sink` as
    /// `store_retries`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the journal cannot be rewritten
    /// and [`StoreError::Contended`] when another process holds the
    /// journal lock past the deadline; the in-memory entry is kept
    /// either way so the current process still sees the completion.
    pub fn record(
        &mut self,
        entry: JournalEntry,
        sink: &dyn MetricsSink,
    ) -> Result<(), StoreError> {
        let entry_doc = entry_to_json(&entry).to_compact();
        self.entries.retain(|e| e.unit != entry.unit);
        self.entries.push(entry);
        let (merged, retries) = self.backend.merge_journal(&self.stem, &entry_doc)?;
        if retries > 0 {
            sink.add(modsoc_metrics::Counter::StoreRetries, retries);
        }
        if let Some(entries) = entries_from_text(&merged) {
            self.entries = entries;
        }
        Ok(())
    }

    /// Reload the journal from the backend, adopting completions other
    /// workers recorded since this handle last synced. Entries this
    /// handle knows that are missing from the backend copy (e.g. a
    /// record whose persist failed) are kept. A corrupt or unreadable
    /// backend copy changes nothing — the next `record` supersedes it.
    pub fn refresh(&mut self) {
        let RawDoc::Present(text) = self.backend.load_journal(&self.stem) else {
            return;
        };
        let Some(mut disk) = entries_from_text(&text) else {
            return;
        };
        for own in std::mem::take(&mut self.entries) {
            if !disk.iter().any(|e| e.unit == own.unit) {
                disk.push(own);
            }
        }
        self.entries = disk;
    }
}

impl ResultStore {
    /// Open the journal named `name` (created empty if absent). A
    /// corrupt journal — unreadable, malformed, schema-mismatched, or
    /// checksum-failed — is evicted and replaced by an empty one; the
    /// campaign then re-runs everything rather than trusting a damaged
    /// completion log.
    #[must_use]
    pub fn open_journal(&self, name: &str, sink: &dyn MetricsSink) -> Journal {
        let stem = sanitize(name);
        let mut journal = Journal {
            backend: Arc::clone(self.backend()),
            stem: stem.clone(),
            entries: Vec::new(),
        };
        // An absent journal is a fresh campaign; a present-but-unreadable
        // one (e.g. invalid UTF-8 from a torn write) is corruption, not
        // absence, and must be evicted like any other damage.
        match self.backend().load_journal(&stem) {
            RawDoc::Missing => {}
            RawDoc::Present(text) => match entries_from_text(&text) {
                Some(entries) => journal.entries = entries,
                None => {
                    if self.backend().remove_journal(&stem, "corrupt or stale") {
                        self.note_eviction(sink);
                    }
                }
            },
            RawDoc::Unreadable(why) => {
                if self.backend().remove_journal(&stem, &why) {
                    self.note_eviction(sink);
                }
            }
        }
        journal
    }

    /// Read the raw journal document named `name` without validating —
    /// the serve daemon's `GET /store/journal`.
    #[must_use]
    pub fn load_journal_raw(&self, name: &str) -> RawDoc {
        self.backend().load_journal(&sanitize(name))
    }

    /// Merge one wire completion entry (`{"unit":…,"key":…,
    /// "summary":…}`) into the journal named `name` and return the
    /// merged journal document — the serve daemon's
    /// `POST /store/journal`. Write retries are reported through
    /// `sink`.
    ///
    /// # Errors
    ///
    /// [`IngestError::Invalid`] when the entry document is malformed;
    /// [`IngestError::Store`] when the journal cannot be rewritten.
    pub fn merge_journal_raw(
        &self,
        name: &str,
        entry_doc: &str,
        sink: &dyn MetricsSink,
    ) -> Result<String, IngestError> {
        if json::parse(entry_doc)
            .ok()
            .as_ref()
            .and_then(entry_from_json)
            .is_none()
        {
            return Err(IngestError::Invalid(
                "journal entry must have unit, key and summary".to_string(),
            ));
        }
        let (merged, retries) = self
            .backend()
            .merge_journal(&sanitize(name), entry_doc)
            .map_err(IngestError::Store)?;
        self.note_retries(retries, sink);
        Ok(merged)
    }

    /// Remove the journal named `name` (corruption eviction requested
    /// by a remote reader — the serve daemon's journal evict). Counted
    /// when a file was actually removed.
    pub fn remove_journal(&self, name: &str, why: &str, sink: &dyn MetricsSink) -> bool {
        let removed = self.backend().remove_journal(&sanitize(name), why);
        if removed {
            self.note_eviction(sink);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_metrics::NullSink;
    use std::path::{Path, PathBuf};

    fn temp_store(tag: &str) -> (PathBuf, ResultStore) {
        let dir =
            std::env::temp_dir().join(format!("modsoc_journal_test_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        (dir, store)
    }

    fn entry(unit: &str, key: &str, patterns: u64) -> JournalEntry {
        JournalEntry {
            unit: unit.to_string(),
            key: key.to_string(),
            summary: JsonValue::Object(vec![(
                "patterns".to_string(),
                JsonValue::Number(patterns as f64),
            )]),
        }
    }

    /// Apply `(offset, op, payload)` edits to `base`: XOR a byte, delete
    /// it, or insert a raw byte before it, then recover a string lossily,
    /// as a reader of a damaged journal file would.
    fn mutate(base: &str, edits: &[(usize, u8, u8)]) -> String {
        let mut bytes = base.as_bytes().to_vec();
        for &(offset, op, payload) in edits {
            if bytes.is_empty() {
                break;
            }
            let at = offset % bytes.len();
            match op % 3 {
                0 => bytes[at] ^= payload,
                1 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, payload),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        #[test]
        fn mutated_journals_never_panic_the_decoder(
            edits in proptest::collection::vec((0usize..512, 0u8..=255, 0u8..=255), 1..24)
        ) {
            let entries = vec![entry("core1_s713", "ab12", 42), entry("core2_s953", "cd34", 59)];
            let text = journal_doc(&entries);
            // A mutation the decoder accepts must decode to the journal
            // as written: the checksum refuses any other.
            if let Some(decoded) = entries_from_text(&mutate(&text, &edits)) {
                proptest::prop_assert_eq!(decoded, entries);
            }
        }
    }

    #[test]
    fn record_and_reload() {
        let (dir, store) = temp_store("reload");
        let mut j = store.open_journal("campaign", &NullSink);
        j.record(entry("u1", "k1", 10), &NullSink).unwrap();
        j.record(entry("u2", "k2", 20), &NullSink).unwrap();
        let j2 = store.open_journal("campaign", &NullSink);
        assert_eq!(j2.entries().len(), 2);
        assert!(j2.find("u1", "k1").is_some());
        assert!(j2.find("u1", "wrong-key").is_none(), "key must match too");
        assert!(j2.find("u3", "k1").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rerecording_a_unit_replaces_it() {
        let (dir, store) = temp_store("replace");
        let mut j = store.open_journal("c", &NullSink);
        j.record(entry("u1", "old", 1), &NullSink).unwrap();
        j.record(entry("u1", "new", 2), &NullSink).unwrap();
        assert_eq!(j.entries().len(), 1);
        assert!(j.find("u1", "old").is_none());
        assert!(j.find("u1", "new").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_is_evicted_and_empty() {
        let (dir, store) = temp_store("corrupt");
        let mut j = store.open_journal("c", &NullSink);
        j.record(entry("u1", "k1", 10), &NullSink).unwrap();
        // Truncate the file mid-document.
        let path = dir.join("journals").join("c.json");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 5]).unwrap();
        let j2 = store.open_journal("c", &NullSink);
        assert!(j2.entries().is_empty());
        assert_eq!(store.evictions(), 1);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_entry_fails_the_checksum() {
        let (dir, store) = temp_store("tamper");
        let mut j = store.open_journal("c", &NullSink);
        j.record(entry("u1", "k1", 10), &NullSink).unwrap();
        let path = dir.join("journals").join("c.json");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("\"k1\"", "\"kX\"")).unwrap();
        let j2 = store.open_journal("c", &NullSink);
        assert!(j2.entries().is_empty(), "tampered journal must not load");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_handles_merge_instead_of_losing_entries() {
        // Two handles of the same journal — the shape of two campaign
        // processes sharing a store. Each records its own unit; the
        // read-merge-rewrite under the lock must keep both.
        let (dir, store) = temp_store("merge");
        let mut a = store.open_journal("shared", &NullSink);
        let mut b = store.open_journal("shared", &NullSink);
        a.record(entry("unit-a", "ka", 1), &NullSink).unwrap();
        b.record(entry("unit-b", "kb", 2), &NullSink).unwrap();
        let reloaded = store.open_journal("shared", &NullSink);
        assert!(reloaded.find("unit-a", "ka").is_some(), "a's entry lost");
        assert!(reloaded.find("unit-b", "kb").is_some(), "b's entry lost");
        // b's handle also adopted a's entry during its merge.
        assert!(b.find("unit-a", "ka").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_does_not_resurrect_a_replaced_unit() {
        let (dir, store) = temp_store("merge_replace");
        let mut a = store.open_journal("shared", &NullSink);
        a.record(entry("u1", "old", 1), &NullSink).unwrap();
        // A second handle (loaded after the first write) re-records u1
        // under a new key; the on-disk old entry must not win the merge.
        let mut b = store.open_journal("shared", &NullSink);
        b.record(entry("u1", "new", 2), &NullSink).unwrap();
        let reloaded = store.open_journal("shared", &NullSink);
        assert_eq!(reloaded.entries().len(), 1);
        assert!(reloaded.find("u1", "new").is_some());
        assert!(reloaded.find("u1", "old").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_names_are_sanitized() {
        let (dir, store) = temp_store("sanitize");
        let mut j = store.open_journal("weird name/../x", &NullSink);
        j.record(entry("u", "k", 1), &NullSink).unwrap();
        // Everything must stay inside journals/.
        let files: Vec<_> = fs::read_dir(dir.join("journals"))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, vec!["weird_name____x.json".to_string()]);
        assert!(!Path::new(&dir).join("x.json").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
