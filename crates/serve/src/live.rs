//! Merge-on-read serving over base snapshot + ingest segments.
//!
//! [`LiveIndex`] is the generation-swappable overlay a [`ServeState`]
//! carries when it serves an ingest directory instead of a single
//! snapshot: the merged (sorted-union) vocabulary, a per-component term
//! map, summed df stats, and the union of tombstones. Components cover
//! disjoint, ascending document ranges — base `[0, base_docs)`, then
//! each segment `[doc_base, doc_base + doc_count)` in manifest order —
//! so a merged posting list is the plain concatenation of component
//! lists, already doc-sorted. That makes every merged answer
//! bit-identical to a from-scratch rebuild of the same logical corpus:
//! same postings in the same order, same df sums, same total_docs, and
//! therefore the same scores and bytes.
//!
//! Lower-bounded reads (`LiveIndex::postings_from`, the boolean AND
//! seek path) skip whole components whose doc range lies below the
//! bound and use the block skip-pointers inside the one component the
//! bound lands in.
//!
//! Deletes are tombstones: postings of tombstoned documents are
//! filtered out of every merged list, while df/tf stats and total_docs
//! intentionally keep counting them (LSM semantics — stats converge
//! when a future full rebuild folds the base). Compaction preserves
//! exactly these semantics, so a generation flip never changes bytes.
//!
//! A reload builds a new overlay over shared, already-verified
//! components. The base (its snapshot and everything derived from it)
//! and each segment (with its reconstructed `/similar` signatures) come
//! from one private table of `Weak` handles, keyed by path plus the
//! `(dev, ino, len, mtime)` of the file the bytes were read from. A hit
//! reads nothing; a miss reads the file and verifies every checksum. The
//! table keeps nothing alive: while any served state holds a component,
//! the next generation shares it, and once every state is dropped the
//! next load reads and verifies everything again. A file replaced
//! through tmp+rename has a new inode and is verified again. The merged
//! vocabulary is one linear merge of the component tables, which are
//! already sorted.

use crate::state::{Base, ServeState};
use inspire_core::index::Posting;
use inspire_core::query::SearchIndex;
use inspire_core::{EngineSnapshot, TermId};
use inspire_ingest::{Manifest, Segment};
use inspire_store::Snapshot;
use intern::TermTable;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError, Weak};
use std::time::SystemTime;

/// "This component does not contain the merged term."
const ABSENT: u32 = u32::MAX;

/// Manifests a reload reads at most when compaction keeps unlinking the
/// segments the last one listed.
const LOAD_ATTEMPTS: usize = 3;

/// A verified segment plus the `/similar` signatures reconstructed for
/// its documents. Shared by every generation that lists the segment.
pub(crate) struct LiveSegment {
    seg: Segment,
    /// `doc_count × m` signatures in local doc order (empty when the
    /// base has no ANN sections).
    sigs: Vec<f64>,
    /// The base the signatures were built against.
    base: Weak<Base>,
}

impl LiveSegment {
    pub(crate) fn signatures(&self) -> &[f64] {
        &self.sigs
    }
}

impl std::ops::Deref for LiveSegment {
    type Target = Segment;
    fn deref(&self) -> &Segment {
        &self.seg
    }
}

/// The merge-on-read overlay. Built by [`load_live_state`]; owned by a
/// [`ServeState`] whose `terms` is the merged vocabulary.
pub struct LiveIndex {
    segments: Vec<Arc<LiveSegment>>,
    /// Per merged term id: base-local term id, or [`ABSENT`].
    base_map: Vec<u32>,
    /// Per segment, per merged term id: segment-local id or [`ABSENT`].
    seg_maps: Vec<Vec<u32>>,
    /// Merged document frequency: base + segment deltas.
    df: Vec<u32>,
    /// Documents in the base component.
    base_docs: u32,
    /// Documents across base + segments (tombstones still counted).
    total_docs: u32,
    /// Sorted union of segment tombstones (global doc ids).
    tombstones: Vec<u32>,
    /// Components (base and segments) taken from a live generation.
    reused: usize,
}

fn bad(dir: &Path, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", dir.display()),
    )
}

/// Identity of the file a component's bytes were read from. Rewriting
/// a file in place changes its `len` or `mtime`; replacing it through
/// tmp+rename changes its `ino`.
#[derive(PartialEq, Eq, Hash)]
struct FileKey {
    path: PathBuf,
    dev: u64,
    ino: u64,
    len: u64,
    mtime: SystemTime,
}

impl FileKey {
    #[cfg(unix)]
    fn of(path: &Path, m: &std::fs::Metadata) -> Option<FileKey> {
        use std::os::unix::fs::MetadataExt;
        Some(FileKey {
            path: path.to_path_buf(),
            dev: m.dev(),
            ino: m.ino(),
            len: m.len(),
            mtime: m.modified().ok()?,
        })
    }

    /// Without inode numbers a replaced file cannot be told from the
    /// original, so nothing is shared.
    #[cfg(not(unix))]
    fn of(_: &Path, _: &std::fs::Metadata) -> Option<FileKey> {
        None
    }
}

/// An already-open, fully verified component: a [`Base`] or a
/// [`LiveSegment`].
type Shared = Weak<dyn Any + Send + Sync>;

/// Every component some served state still holds, by file identity.
/// Only `Weak` handles: the table keeps nothing alive, so once every
/// state over a component is dropped the next load reads and verifies
/// it again.
static OPEN: LazyLock<Mutex<HashMap<FileKey, Shared>>> = LazyLock::new(Default::default);

/// Lock [`OPEN`]. Any contents are valid (a lost entry only costs one
/// re-read), so the guard is taken back even from a poisoned lock.
fn open_table() -> MutexGuard<'static, HashMap<FileKey, Shared>> {
    OPEN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The component at `path`, and whether it was reused: the open one,
/// if `reusable` accepts it and the file is still the one its bytes
/// came from; otherwise the file read and checksum-verified in full and
/// derived by `open`.
fn component<T: Any + Send + Sync>(
    path: &Path,
    reusable: impl Fn(&T) -> bool,
    open: impl FnOnce(Snapshot) -> io::Result<T>,
) -> io::Result<(Arc<T>, bool)> {
    if let Some(key) = FileKey::of(path, &std::fs::metadata(path)?) {
        let held = open_table().get(&key).and_then(Weak::upgrade);
        if let Some(hit) = held.and_then(|c| c.downcast::<T>().ok()) {
            if reusable(&hit) {
                return Ok((hit, true));
            }
        }
    }
    let file = std::fs::File::open(path)?;
    let key = FileKey::of(path, &file.metadata()?);
    let fresh = Arc::new(open(Snapshot::read_file(file, path)?)?);
    if let Some(key) = key {
        let mut table = open_table();
        table.retain(|_, c| c.strong_count() > 0);
        table.insert(key, Arc::downgrade(&fresh) as Shared);
    }
    Ok((fresh, false))
}

fn read_manifest(dir: &Path) -> io::Result<Manifest> {
    Manifest::load(dir)?.ok_or_else(|| bad(dir, "not an ingest directory (no manifest)".into()))
}

/// Build a serving state over an ingest directory: base snapshot plus
/// every manifest-listed segment, merged at read time. The base is
/// required — merge-on-read unions postings with it — and must carry an
/// inverted index. The base and every segment some live state already
/// holds are shared, not read again.
pub fn load_live_state(dir: &Path) -> io::Result<ServeState> {
    load_latest(dir, read_manifest(dir)?)
}

/// Load the generation `manifest` lists. Compaction flips the manifest
/// and then unlinks its input segments, so a manifest read just before
/// a compaction can list files that are gone: then read the manifest
/// again and, if its generation moved, load that one.
fn load_latest(dir: &Path, mut manifest: Manifest) -> io::Result<ServeState> {
    let mut attempt = 1;
    loop {
        match load_generation(dir, &manifest) {
            Err(e) if e.kind() == io::ErrorKind::NotFound && attempt < LOAD_ATTEMPTS => {
                let next = read_manifest(dir)?;
                if next.generation == manifest.generation {
                    return Err(e);
                }
                manifest = next;
                attempt += 1;
            }
            done => return done,
        }
    }
}

fn load_generation(dir: &Path, manifest: &Manifest) -> io::Result<ServeState> {
    let base_path = manifest
        .base
        .as_deref()
        .ok_or_else(|| bad(dir, "live serving requires a base snapshot".into()))?;
    let (base, base_reused) = component(
        base_path,
        |_: &Base| true,
        |snap| Base::new(EngineSnapshot::from_store(snap)?),
    )?;
    let mut state = ServeState::over(Arc::clone(&base))?;
    if !state.has_index() {
        return Err(bad(
            dir,
            format!(
                "base snapshot {} predates the Index stage; cannot merge postings",
                base_path.display()
            ),
        ));
    }
    if state.meta.total_docs != manifest.base_docs {
        return Err(bad(
            dir,
            format!(
                "manifest says the base has {} documents, snapshot has {}",
                manifest.base_docs, state.meta.total_docs
            ),
        ));
    }
    let mut reused = usize::from(base_reused);
    let mut segments = Vec::with_capacity(manifest.segments.len());
    for r in &manifest.segments {
        let (seg, seg_reused) = component(
            &dir.join(&r.file),
            |seg: &LiveSegment| std::ptr::eq(seg.base.as_ptr(), Arc::as_ptr(&base)),
            |snap| {
                let seg = Segment::from_store(snap)?;
                Ok(LiveSegment {
                    sigs: base.segment_signatures(&seg),
                    base: Arc::downgrade(&base),
                    seg,
                })
            },
        )?;
        if seg.doc_base() != r.doc_base || seg.doc_count() != r.doc_count {
            return Err(bad(
                dir,
                format!(
                    "segment {} covers docs [{}, {}) but the manifest says [{}, {})",
                    r.file,
                    seg.doc_base(),
                    seg.doc_end(),
                    r.doc_base,
                    r.doc_base + r.doc_count
                ),
            ));
        }
        reused += usize::from(seg_reused);
        segments.push(seg);
    }

    let vocab = merge_vocab(&base, &segments);
    let mut tombstones: Vec<u32> = segments
        .iter()
        .flat_map(|s| s.tombstones().iter().copied())
        .collect();
    tombstones.sort_unstable();
    tombstones.dedup();
    let total_docs = manifest.base_docs + segments.iter().map(|s| s.doc_count()).sum::<u32>();

    state.terms = Arc::new(vocab.terms);
    state.live = Some(LiveIndex {
        segments,
        base_map: vocab.base_map,
        seg_maps: vocab.seg_maps,
        df: vocab.df,
        base_docs: manifest.base_docs,
        total_docs,
        tombstones,
        reused,
    });
    state.generation = manifest.generation;
    state.last_seal_unix = manifest.last_seal_unix;
    state.ingest_dir = Some(dir.to_path_buf());
    Ok(state)
}

/// The merged vocabulary and where each component holds each term.
struct MergedVocab {
    terms: TermTable,
    base_map: Vec<u32>,
    seg_maps: Vec<Vec<u32>>,
    df: Vec<u32>,
}

/// One linear merge of the already-sorted base and segment
/// vocabularies. Segment cursors wait in a min-heap; the run of base
/// terms below the smallest segment term is copied as one block, then
/// that term takes the next merged id, joined with an equal base term
/// and every segment head equal to it.
fn merge_vocab(base: &Base, segments: &[Arc<LiveSegment>]) -> MergedVocab {
    let (bt, bdf) = (base.terms(), base.df());
    let cap = bt.len() + segments.iter().map(|s| s.vocab()).sum::<usize>();
    let mut vocab: Vec<&str> = Vec::with_capacity(cap);
    let mut base_map: Vec<u32> = Vec::with_capacity(cap);
    let mut df: Vec<u32> = Vec::with_capacity(cap);
    // Per segment, the merged id of each local term, in local order.
    let mut merged_ids: Vec<Vec<u32>> = segments
        .iter()
        .map(|s| Vec::with_capacity(s.vocab()))
        .collect();
    let mut heads: BinaryHeap<Reverse<(&str, usize)>> = segments
        .iter()
        .enumerate()
        .filter(|(_, s)| s.vocab() > 0)
        .map(|(si, s)| Reverse((s.terms().get(0), si)))
        .collect();
    let mut b = 0usize;
    loop {
        let next = heads.peek().map(|h| h.0 .0);
        let run_end = match next {
            Some(t) => (b..bt.len())
                .find(|&i| bt.get_bytes(i) >= t.as_bytes())
                .unwrap_or(bt.len()),
            None => bt.len(),
        };
        vocab.extend((b..run_end).map(|i| bt.get(i)));
        base_map.extend(b as u32..run_end as u32);
        df.extend_from_slice(&bdf[b..run_end]);
        b = run_end;
        let Some(term) = next else { break };

        let id = vocab.len() as u32;
        vocab.push(term);
        let mut d = 0u32;
        if b < bt.len() && bt.get_bytes(b) == term.as_bytes() {
            base_map.push(b as u32);
            d += bdf[b];
            b += 1;
        } else {
            base_map.push(ABSENT);
        }
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((t, si)) = *head;
            if t != term {
                break;
            }
            let (seg, local) = (&segments[si], merged_ids[si].len());
            merged_ids[si].push(id);
            d += seg.df(local as u32);
            if local + 1 < seg.vocab() {
                *head = Reverse((seg.terms().get(local + 1), si));
            } else {
                PeekMut::pop(head);
            }
        }
        df.push(d);
    }

    let n = vocab.len();
    let seg_maps = merged_ids
        .iter()
        .map(|ids| {
            let mut map = vec![ABSENT; n];
            for (local, &id) in ids.iter().enumerate() {
                map[id as usize] = local as u32;
            }
            map
        })
        .collect();
    MergedVocab {
        terms: TermTable::from_sorted(vocab),
        base_map,
        seg_maps,
        df,
    }
}

impl LiveIndex {
    pub fn segments_open(&self) -> usize {
        self.segments.len()
    }

    pub(crate) fn segments(&self) -> &[Arc<LiveSegment>] {
        &self.segments
    }

    pub(crate) fn reused(&self) -> usize {
        self.reused
    }

    /// The segment holding global doc `doc`, if any.
    pub(crate) fn segment_of(&self, doc: u32) -> Option<&LiveSegment> {
        let i = self.segments.partition_point(|s| s.doc_end() <= doc);
        let seg = self.segments.get(i)?;
        (seg.doc_base() <= doc).then_some(&**seg)
    }

    pub fn total_docs(&self) -> u32 {
        self.total_docs
    }

    pub fn df(&self, term: TermId) -> u32 {
        self.df[term as usize]
    }

    /// Sorted union of segment tombstones (global doc ids).
    pub(crate) fn tombstones(&self) -> &[u32] {
        &self.tombstones
    }

    /// Is `doc` tombstoned?
    pub(crate) fn is_deleted(&self, doc: u32) -> bool {
        self.tombstones.binary_search(&doc).is_ok()
    }

    /// Drop tombstoned postings from `out[from..]` (which is sorted by
    /// doc; the filter is order-preserving).
    fn filter_tombstones(&self, out: &mut Vec<Posting>, from: usize) {
        if self.tombstones.is_empty() {
            return;
        }
        let mut w = from;
        for r in from..out.len() {
            if self.tombstones.binary_search(&out[r].doc).is_err() {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
    }

    /// Merged full posting list: base component, then each segment in
    /// doc order. Component ranges are disjoint and ascending, so the
    /// concatenation is the doc-sorted list a rebuild would store.
    pub(crate) fn postings_into(&self, base: &Base, term: TermId, out: &mut Vec<Posting>) {
        let from = out.len();
        let b = self.base_map[term as usize];
        if b != ABSENT {
            base.postings_into(b, out);
        }
        for (si, seg) in self.segments.iter().enumerate() {
            let local = self.seg_maps[si][term as usize];
            if local != ABSENT {
                seg.postings_into(local, out);
            }
        }
        self.filter_tombstones(out, from);
    }

    /// Merged lower-bounded read: components entirely below `min_doc`
    /// are skipped without touching their bytes; the one the bound
    /// lands in seeks through its skip pointers.
    pub(crate) fn postings_from(
        &self,
        base: &Base,
        term: TermId,
        min_doc: u32,
        out: &mut Vec<Posting>,
    ) {
        let from = out.len();
        let b = self.base_map[term as usize];
        if b != ABSENT && min_doc < self.base_docs {
            base.postings_from(b, min_doc, out);
        }
        for (si, seg) in self.segments.iter().enumerate() {
            let local = self.seg_maps[si][term as usize];
            if local == ABSENT || min_doc >= seg.doc_end() {
                continue;
            }
            if min_doc <= seg.doc_base() {
                seg.postings_into(local, out);
            } else {
                seg.postings_from(local, min_doc, out);
            }
        }
        self.filter_tombstones(out, from);
    }
}

/// Merged-view invariant check used by tests: every posting stream a
/// [`SearchIndex`] hands out must be strictly doc/field-sorted.
pub fn assert_sorted(state: &ServeState, term: TermId) {
    let posts = state.postings_of(term);
    assert!(
        posts.windows(2).all(|w| w[0] < w[1]),
        "merged postings out of order for term {term}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::CorpusSpec;
    use inspire_core::pipeline::run_engine;
    use inspire_core::EngineConfig;
    use inspire_ingest::IngestDir;
    use perfmodel::CostModel;

    /// A manifest read just before a compaction lists segments the
    /// compaction then unlinks. Loading it alone fails; the reload
    /// re-reads the manifest and serves the compacted generation.
    #[test]
    fn reload_racing_compaction_loads_the_new_generation() {
        let dir = std::env::temp_dir().join(format!("va-live-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let set = CorpusSpec::pubmed(48 * 1024, 41).generate();
        let half = set.sources.len() / 2;
        let base_path = dir.join("base.isnap");
        let cfg = EngineConfig {
            snapshot_out: Some(base_path.clone()),
            ..EngineConfig::for_testing()
        };
        let base_set = corpus::SourceSet {
            sources: set.sources[..half].to_vec(),
        };
        run_engine(1, Arc::new(CostModel::zero()), &base_set, &cfg);
        let live = dir.join("live");
        let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
        for src in &set.sources[half..half + 3] {
            ing.append(src.clone()).expect("append");
        }

        let stale = read_manifest(&live).expect("manifest");
        let report = ing.compact().expect("compact").expect("folds");
        assert!(report.generation > stale.generation);
        let err = load_generation(&live, &stale)
            .err()
            .expect("the stale manifest lists unlinked segments");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);

        let state = load_latest(&live, stale).expect("reload follows the manifest");
        assert_eq!(state.generation, report.generation);
        assert_eq!(state.segments_open(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
