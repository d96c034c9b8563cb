//! Context-free serving state over an engine snapshot.
//!
//! The engine's query path works against rank-resident state
//! (`ScanOutput` + `InvertedIndex`) through an SPMD context, which is
//! `!Send` by design: it pins one rank's virtual clock and communication
//! accounting to one thread. A long-lived server needs the opposite — an
//! immutable, `Send + Sync` view of the same data that any worker thread
//! can read concurrently with no coordination. [`ServeState`] is that
//! view: it holds the validated snapshot (in a `Base` that live
//! generations share) and serves queries straight from its section
//! views. Postings stay in their block-compressed on-disk form; each
//! query decodes only the blocks it touches into a per-thread scratch
//! buffer (with skip-pointer seeks for lower-bounded reads), so load
//! time is directory parsing plus the small per-term stats — not a full
//! postings materialization. Queries run through the exact same
//! algorithms as the CLI path via [`inspire_core::query::SearchIndex`].

use inspire_core::ann::{self, AnnIndexView, SearchStats};
use inspire_core::index::Posting;
use inspire_core::query::{Hit, SearchIndex};
use inspire_core::snapshot::{pair_to_posting, EngineMeta, PostingsDir};
use inspire_core::{EngineSnapshot, Stage, TermId};
use inspire_ingest::Segment;
use inspire_store::codec;
use intern::TermTable;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

thread_local! {
    /// Reusable per-thread decode buffer: one query's block decodes land
    /// here before conversion to [`Posting`]s, so steady-state serving
    /// does no per-query pair allocations.
    static PAIR_SCRATCH: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };

    /// Per-thread postings-decode accumulator for request tracing:
    /// `None` when no request is being timed (the common case — one
    /// `Cell` read per postings call), `Some(ns)` between
    /// [`decode_timer_begin`] and [`decode_timer_take`].
    static DECODE_NS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Arm the per-thread postings-decode timer for the current request.
/// Every [`SearchIndex::postings_into`]/[`SearchIndex::postings_from`]
/// call on this thread accumulates its wall time until
/// [`decode_timer_take`] disarms it.
pub fn decode_timer_begin() {
    DECODE_NS.with(|c| c.set(Some(0)));
}

/// Disarm the decode timer and return the accumulated nanoseconds
/// (0 when it was never armed).
pub fn decode_timer_take() -> u64 {
    DECODE_NS.with(|c| c.take()).unwrap_or(0)
}

/// Run `f`, charging its wall time to the armed decode timer (or just
/// running it when the timer is off). Only the two [`SearchIndex`] entry
/// points call this, so overlay-to-base delegation is never counted
/// twice.
fn decode_timed<R>(f: impl FnOnce() -> R) -> R {
    DECODE_NS.with(|c| match c.get() {
        None => f(),
        Some(acc) => {
            let t0 = std::time::Instant::now();
            let out = f();
            let spent = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            c.set(Some(acc.saturating_add(spent)));
            out
        }
    })
}

/// ANN serving state derived from the snapshot's IVF sections at load:
/// the per-list-position code sums the affine kernel expansion needs and
/// the major-term rows that embed free text into signature space.
struct AnnState {
    /// Precomputed [`ann::code_sums`] over the `qsig` section, list
    /// order.
    sums: Vec<u32>,
    /// Major-term string → association-matrix row index. Keyed by
    /// string (not term id) so free-text embedding survives the live
    /// overlay's merged vocabulary, whose ids differ from the base's.
    rows: HashMap<String, usize>,
}

/// How the owned snapshot stores its postings.
enum IndexLayout {
    /// Format v2: block-compressed lists read zero-copy from the
    /// `postblk`/`postskp` sections, located via the parsed directory.
    Compressed(PostingsDir),
    /// Legacy fixed-width `postoff`/`postdat` sections (pre-bump
    /// snapshots keep serving through the sniffing reader).
    Legacy,
}

/// What a [`ServeState`] derives from its snapshot at open to answer
/// queries: the validated snapshot, its vocabulary, postings directory
/// and df, and the ANN state. Immutable once built, so every
/// generation a live ingest directory serves over the same base shares
/// one `Arc<Base>` (see [`crate::live`]) instead of re-reading and
/// re-verifying it.
pub(crate) struct Base {
    /// The validated snapshot; posting bytes are read from its sections
    /// on demand.
    snap: EngineSnapshot,
    /// The snapshot's own sorted vocabulary (base-local term ids).
    terms: Arc<TermTable>,
    /// Postings layout + per-term document frequency; `None` when the
    /// snapshot predates the Index stage.
    index: Option<(IndexLayout, Vec<u32>)>,
    /// IVF similarity-search state; `None` when the snapshot predates
    /// the ANN sections.
    ann: Option<AnnState>,
}

impl Base {
    /// Derive the serving state of a validated snapshot. Cheap: the
    /// vocabulary, postings directory, and df stats are materialized
    /// (all small); posting lists are not touched until queried.
    pub(crate) fn new(snap: EngineSnapshot) -> io::Result<Base> {
        let meta = snap.meta();
        let terms = Arc::new(snap.terms()?);
        let index = if meta.stage >= Stage::Index {
            let layout = if snap.has_compressed_index() {
                IndexLayout::Compressed(snap.postings_dir()?)
            } else {
                IndexLayout::Legacy
            };
            Some((layout, snap.decode_df()?))
        } else {
            None
        };
        let ann = if snap.has_ann() {
            let m = meta.m_dims;
            let codes = snap.store().require("qsig")?.as_records(m)?;
            let major = snap.store().require("major")?.as_u32s()?;
            let rows = major
                .iter()
                .enumerate()
                .map(|(i, &t)| (terms.get(t as usize).to_string(), i))
                .collect();
            Some(AnnState {
                sums: ann::code_sums(codes, m),
                rows,
            })
        } else {
            None
        };
        Ok(Base {
            terms,
            index,
            snap,
            ann,
        })
    }

    pub(crate) fn meta(&self) -> &EngineMeta {
        self.snap.meta()
    }

    pub(crate) fn terms(&self) -> &TermTable {
        &self.terms
    }

    /// Borrow a section validated at open. Sections were checked for
    /// presence, kind, and CRC by [`EngineSnapshot::from_store`], so a
    /// miss here is a programming error, not a data error.
    fn packed(&self, name: &str) -> &[u8] {
        self.snap
            .store()
            .section(name)
            .expect("section validated at open")
            .as_packed()
            .expect("section kind validated at open")
    }

    /// Borrow an `f64` section validated at open.
    fn f64s(&self, name: &str) -> &[f64] {
        self.snap
            .store()
            .section(name)
            .expect("section validated at open")
            .as_f64s()
            .expect("section kind validated at open")
    }

    /// Assemble the borrowed ANN view over the snapshot's validated
    /// sections plus the precomputed code sums.
    fn ann_view<'a>(&'a self, ann: &'a AnnState) -> AnnIndexView<'a> {
        let m = self.meta().m_dims;
        AnnIndexView {
            k: self.meta().k,
            m,
            centroids: self.f64s("centroid"),
            ivfoff: self
                .snap
                .store()
                .section("ivfoff")
                .expect("section validated at open")
                .as_u64s()
                .expect("section kind validated at open"),
            ivfdoc: self
                .snap
                .store()
                .section("ivfdoc")
                .expect("section validated at open")
                .as_u32s()
                .expect("section kind validated at open"),
            codes: self
                .snap
                .store()
                .section("qsig")
                .expect("section validated at open")
                .as_records(m)
                .expect("section record size validated at open"),
            scale: self.f64s("qscale"),
            offset: self.f64s("qoff"),
            norm: self.f64s("signrm"),
            sums: &ann.sums,
            exact: self.f64s("sigs"),
        }
    }

    /// Reconstruct `/similar` signatures (`doc_count × m`, local doc
    /// order) for a live segment's documents: per-term
    /// frequency-weighted association rows, L1-normalized — the same
    /// semantics as the engine's signature stage, rebuilt from segment
    /// postings because segments carry no signature sections. Empty when
    /// the base has no ANN sections.
    pub(crate) fn segment_signatures(&self, seg: &Segment) -> Vec<f64> {
        let Some(ann) = &self.ann else {
            return Vec::new();
        };
        let m = self.meta().m_dims;
        let assoc = self.f64s("assoc");
        let base = seg.doc_base();
        let count = seg.doc_count() as usize;
        let mut sigs = vec![0.0; count * m];
        let mut posts: Vec<Posting> = Vec::new();
        for (local, term) in seg.terms().iter().enumerate() {
            let Some(&row) = ann.rows.get(term) else {
                continue;
            };
            let arow = &assoc[row * m..(row + 1) * m];
            posts.clear();
            seg.postings_into(local as u32, &mut posts);
            // Summing per-(doc, field) postings weights each term by its
            // doc-total frequency — the signature-stage rule.
            for p in &posts {
                let d = (p.doc - base) as usize;
                let w = p.freq as f64;
                for (s, &a) in sigs[d * m..(d + 1) * m].iter_mut().zip(arow) {
                    *s += w * a;
                }
            }
        }
        for d in 0..count {
            let sig = &mut sigs[d * m..(d + 1) * m];
            let l1: f64 = sig.iter().map(|x| x.abs()).sum();
            if l1 > 0.0 {
                for s in sig.iter_mut() {
                    *s /= l1;
                }
            }
        }
        sigs
    }

    /// Postings of a **base-local** term id, straight from the snapshot.
    /// The live overlay calls this for the base component of a merged
    /// list.
    pub(crate) fn postings_into(&self, term: TermId, out: &mut Vec<Posting>) {
        let Some((layout, _)) = &self.index else {
            return;
        };
        match layout {
            IndexLayout::Compressed(dir) => {
                let blk = self.packed("postblk");
                let n = dir.count(term) as usize;
                PAIR_SCRATCH.with(|s| {
                    let mut pairs = s.borrow_mut();
                    pairs.clear();
                    codec::decode_list(&blk[dir.byte_range(term)], n, &mut pairs)
                        .expect("CRC-verified postings decode");
                    out.extend(pairs.iter().map(|&(k, v)| pair_to_posting(k, v)));
                });
            }
            IndexLayout::Legacy => {
                let offsets = self.legacy_offsets();
                let postdat = self.legacy_postings();
                let lo = offsets[term as usize] as usize;
                let hi = offsets[term as usize + 1] as usize;
                // Same unpack + deterministic sort as
                // `InvertedIndex::postings_of` (scatter order is
                // schedule-dependent in legacy snapshots).
                let from = out.len();
                out.extend(
                    postdat[lo..hi]
                        .iter()
                        .map(|&e| inspire_core::index::unpack_posting(e)),
                );
                out[from..].sort_unstable();
            }
        }
    }

    /// Lower-bounded postings of a **base-local** term id.
    pub(crate) fn postings_from(&self, term: TermId, min_doc: u32, out: &mut Vec<Posting>) {
        let Some((layout, _)) = &self.index else {
            return;
        };
        match layout {
            IndexLayout::Compressed(dir) => {
                let blk = self.packed("postblk");
                let skips = self
                    .snap
                    .store()
                    .section("postskp")
                    .expect("section validated at open")
                    .as_skips()
                    .expect("section kind validated at open");
                let n = dir.count(term) as usize;
                PAIR_SCRATCH.with(|s| {
                    let mut pairs = s.borrow_mut();
                    pairs.clear();
                    codec::decode_from(
                        &blk[dir.byte_range(term)],
                        n,
                        &skips[dir.skip_range(term)],
                        min_doc,
                        &mut pairs,
                    )
                    .expect("CRC-verified postings decode");
                    out.extend(pairs.iter().map(|&(k, v)| pair_to_posting(k, v)));
                });
            }
            IndexLayout::Legacy => {
                // Decode + sort the full list, then drop the sorted
                // prefix below `min_doc`.
                let from = out.len();
                self.postings_into(term, out);
                let below = out[from..].partition_point(|p| p.doc < min_doc);
                out.drain(from..from + below);
            }
        }
    }

    /// Per-term document frequency, indexed by **base-local** term id
    /// (empty when the snapshot has no index).
    pub(crate) fn df(&self) -> &[u32] {
        self.index.as_ref().map_or(&[], |(_, df)| df)
    }

    fn legacy_offsets(&self) -> &[i64] {
        self.snap
            .store()
            .section("postoff")
            .expect("section validated at open")
            .as_i64s()
            .expect("section kind validated at open")
    }

    fn legacy_postings(&self) -> &[u64] {
        self.snap
            .store()
            .section("postdat")
            .expect("section validated at open")
            .as_u64s()
            .expect("section kind validated at open")
    }
}

/// Immutable, shareable query-serving state from one engine snapshot.
///
/// A shared `Base` (the snapshot and its query-serving derivations) plus
/// this state's own fields: the snapshot metadata, the Final-stage
/// layout — the projected coordinates, cluster assignments, labels, and
/// sizes — the vocabulary it serves, and, for live serving, the
/// generation overlay.
pub struct ServeState {
    base: Arc<Base>,
    /// Snapshot metadata (stage, fingerprints, corpus shape).
    pub meta: EngineMeta,
    /// Canonical sorted vocabulary.
    pub terms: Arc<TermTable>,
    /// 2-D document coordinates (Final stage only).
    pub coords: Option<Vec<(f64, f64)>>,
    /// Cluster assignment per document (Final stage only).
    pub assignments: Option<Vec<u32>>,
    /// Topic labels per cluster (Final stage only).
    pub cluster_labels: Vec<Vec<String>>,
    /// Documents per cluster (Final stage only).
    pub cluster_sizes: Vec<u64>,
    /// Merge-on-read overlay: ingest segments unioned with the base
    /// snapshot at query time. `None` for plain snapshot serving. When
    /// set, `terms` is the merged vocabulary and every [`SearchIndex`]
    /// method routes through the overlay.
    pub(crate) live: Option<crate::live::LiveIndex>,
    /// Ingest-manifest generation this state was built from (0 for
    /// plain snapshots).
    pub generation: u64,
    /// `last_seal_unix` of the manifest (0 for plain snapshots).
    pub last_seal_unix: u64,
    /// The ingest directory this state was built from, when live
    /// serving ([`crate::live::load_live_state`]); lets `/metrics`
    /// compute WAL backlog gauges and read the ingest metrics sidecar.
    pub ingest_dir: Option<PathBuf>,
}

impl ServeState {
    /// Open `path`, verify it (every checksum, via [`EngineSnapshot`]),
    /// and build the serving state. The snapshot may have been written
    /// at any processor count; queries read only partition-independent
    /// state.
    pub fn load(path: &Path) -> io::Result<ServeState> {
        Self::from_snapshot(EngineSnapshot::open(path)?)
    }

    /// Build serving state over an already opened snapshot.
    pub fn from_snapshot(snap: EngineSnapshot) -> io::Result<ServeState> {
        Self::over(Arc::new(Base::new(snap)?))
    }

    /// A plain-snapshot state over a (possibly shared) base, with the
    /// Final-stage layout decoded from its snapshot.
    pub(crate) fn over(base: Arc<Base>) -> io::Result<ServeState> {
        let (coords, assignments, cluster_labels, cluster_sizes) =
            if base.meta().stage == Stage::Final {
                let dims = base.meta().projection_dims;
                let coordnd = base.snap.store().require("coordnd")?.as_f64s()?;
                let coords: Vec<(f64, f64)> = coordnd.chunks(dims).map(|r| (r[0], r[1])).collect();
                let assignments = base.snap.store().require("assign")?.as_u32s()?.to_vec();
                let cluster_sizes = base.snap.store().require("csize")?.as_u64s()?.to_vec();
                (
                    Some(coords),
                    Some(assignments),
                    base.snap.labels()?,
                    cluster_sizes,
                )
            } else {
                (None, None, Vec::new(), Vec::new())
            };
        Ok(ServeState {
            meta: base.meta().clone(),
            terms: Arc::clone(&base.terms),
            coords,
            assignments,
            cluster_labels,
            cluster_sizes,
            base,
            live: None,
            generation: 0,
            last_seal_unix: 0,
            ingest_dir: None,
        })
    }

    /// Does this snapshot hold an inverted index (term/boolean/search)?
    pub fn has_index(&self) -> bool {
        self.base.index.is_some()
    }

    /// Number of ingest segments merged into this view (0 for plain
    /// snapshot serving).
    pub fn segments_open(&self) -> usize {
        self.live.as_ref().map_or(0, |l| l.segments_open())
    }

    /// Components (the base and each segment) this live view took from
    /// an earlier generation that was still alive instead of reading and
    /// verifying them again (0 for plain snapshot serving).
    pub fn components_reused(&self) -> usize {
        self.live.as_ref().map_or(0, |l| l.reused())
    }

    /// Does this snapshot hold clustering + projection (cluster/rect)?
    pub fn has_layout(&self) -> bool {
        self.coords.is_some() && self.assignments.is_some()
    }

    /// Borrow the underlying validated snapshot (postings directory,
    /// section sizes — what benches and diagnostics need). Every
    /// generation built over the same base returns the same snapshot.
    pub fn snapshot(&self) -> &EngineSnapshot {
        &self.base.snap
    }

    /// Does this snapshot carry the IVF + quantized-signature sections
    /// (`/similar` queries)?
    pub fn has_ann(&self) -> bool {
        self.base.ann.is_some()
    }

    /// Is `doc` tombstoned by the live overlay?
    pub fn is_deleted(&self, doc: u32) -> bool {
        self.live.as_ref().is_some_and(|l| l.is_deleted(doc))
    }

    /// Exact signature of a document: base documents read their `sigs`
    /// row, live-segment documents their reconstructed row. `None` for
    /// unknown doc ids or when the snapshot has no ANN sections.
    pub fn doc_signature(&self, doc: u32) -> Option<&[f64]> {
        self.base.ann.as_ref()?;
        let m = self.base.meta().m_dims;
        let doc = doc as usize;
        if doc < self.base.meta().total_docs as usize {
            return Some(&self.base.f64s("sigs")[doc * m..(doc + 1) * m]);
        }
        let seg = self.live.as_ref()?.segment_of(doc as u32)?;
        let d = doc - seg.doc_base() as usize;
        Some(&seg.signatures()[d * m..(d + 1) * m])
    }

    /// Embed free text into signature space: tokenize, map tokens onto
    /// major-term association rows, and combine them exactly like the
    /// engine's signature stage ([`ann::embed_rows`]). Rows accumulate
    /// in ascending row order so the float sum is deterministic. `None`
    /// when the snapshot has no ANN sections.
    pub fn embed_text(&self, text: &str) -> Option<Vec<f64>> {
        let ann = self.base.ann.as_ref()?;
        let tokenizer = inspire_core::tokenize::Tokenizer::default();
        let mut freqs: HashMap<usize, f64> = HashMap::new();
        tokenizer.tokenize_into(text, |t| {
            if let Some(&r) = ann.rows.get(t) {
                *freqs.entry(r).or_insert(0.0) += 1.0;
            }
        });
        let mut pairs: Vec<(usize, f64)> = freqs.into_iter().collect();
        pairs.sort_unstable_by_key(|&(r, _)| r);
        Some(ann::embed_rows(
            pairs.into_iter(),
            self.base.f64s("assoc"),
            self.base.meta().m_dims,
        ))
    }

    /// IVF similarity search over the base snapshot, merged with a
    /// brute-force scan of each live segment's signatures and filtered
    /// for tombstones. Returns the top hits (exact `f64` cosine, score
    /// descending then doc ascending) plus the probe/candidate
    /// counters. Empty when the snapshot has no ANN sections.
    pub fn similar(&self, query: &[f64], top: usize, nprobe: usize) -> (Vec<Hit>, SearchStats) {
        let mut stats = SearchStats::default();
        let Some(ann) = &self.base.ann else {
            return (Vec::new(), stats);
        };
        let tombs: &[u32] = self.live.as_ref().map_or(&[], |l| l.tombstones());
        // Over-fetch by the tombstone count: deletions can knock at most
        // that many hits out of any top list.
        let fetch = top + tombs.len();
        let view = self.base.ann_view(ann);
        let mut hits = ann::search(&view, query, fetch, nprobe, &mut stats);
        let m = self.base.meta().m_dims;
        for seg in self.live.iter().flat_map(|l| l.segments()) {
            // Each segment's top `fetch` contains its share of the
            // global top `fetch`, so the per-segment scans merge exactly.
            stats.candidates += seg.doc_count() as usize;
            let seg_hits = ann::exhaustive(seg.signatures(), m, query, fetch);
            hits.extend(seg_hits.into_iter().map(|h| Hit {
                doc: seg.doc_base() + h.doc,
                score: h.score,
            }));
        }
        if !tombs.is_empty() {
            hits.retain(|h| tombs.binary_search(&h.doc).is_err());
        }
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(top);
        (hits, stats)
    }
}

impl SearchIndex for ServeState {
    fn term_id(&self, term: &str) -> Option<TermId> {
        self.terms.position(term).map(|i| i as TermId)
    }

    fn postings_of(&self, term: TermId) -> Vec<Posting> {
        let mut out = Vec::new();
        self.postings_into(term, &mut out);
        out
    }

    fn postings_into(&self, term: TermId, out: &mut Vec<Posting>) {
        decode_timed(|| match &self.live {
            Some(live) => live.postings_into(&self.base, term, out),
            None => self.base.postings_into(term, out),
        })
    }

    fn postings_from(&self, term: TermId, min_doc: u32, out: &mut Vec<Posting>) {
        decode_timed(|| match &self.live {
            Some(live) => live.postings_from(&self.base, term, min_doc, out),
            None => self.base.postings_from(term, min_doc, out),
        })
    }

    fn df(&self, term: TermId) -> u32 {
        match &self.live {
            Some(live) => live.df(term),
            None if self.has_index() => self.base.df()[term as usize],
            None => 0,
        }
    }

    fn total_docs(&self) -> u32 {
        match &self.live {
            Some(live) => live.total_docs(),
            None => self.meta.total_docs,
        }
    }
}
