//! Crash-recovery and merge-on-read equivalence tests for the live
//! ingestion subsystem.
//!
//! The contracts under test, end to end:
//!
//! 1. **Durable prefix, exactly** — for a WAL truncated at every record
//!    boundary and at every byte of its final record, replay recovers
//!    precisely the records whose frames survive intact and truncates
//!    the rest; no crash point loses a durable record or resurrects a
//!    torn one.
//! 2. **Kill-mid-ingest ≡ clean run** — after a crash between WAL
//!    durability and sealing (and a second crash tearing the WAL tail),
//!    reopening the directory seals the durable prefix, and the merged
//!    view serves bodies byte-identical to a from-scratch rebuild of
//!    that prefix — with the rebuild run at P=1 **and** P=4.
//! 3. **Compaction is invisible** — folding all segments into one
//!    changes no served byte, and stray files from a simulated
//!    compaction crash are removed on the next open.
//! 4. **Tombstones** — a deleted document vanishes from every posting
//!    enumeration (term, boolean, ranked) before and after compaction,
//!    while df/total_docs keep LSM stats semantics (unchanged until a
//!    full rebuild folds the base).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use visual_analytics::engine::pipeline::run_engine;
use visual_analytics::engine::query::{Query, SearchIndex};
use visual_analytics::engine::EngineConfig;
use visual_analytics::ingest::{IngestDir, Wal, WalRecord, WAL_FILE};
use visual_analytics::perfmodel::CostModel;
use visual_analytics::prelude::{CorpusSpec, SourceSet};
use visual_analytics::serve::{execute, load_live_state, ServeRequest, ServeState};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("va-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Full pipeline at processor count `procs` with `snapshot_out` set.
fn build_snapshot(set: &SourceSet, out: &Path, procs: usize) {
    let cfg = EngineConfig {
        snapshot_out: Some(out.to_path_buf()),
        ..EngineConfig::for_testing()
    };
    let run = run_engine(procs, Arc::new(CostModel::zero()), set, &cfg);
    assert!(
        run.master().snapshot_report.is_some(),
        "snapshot write failed"
    );
}

/// Mixed term/boolean/search requests over the state's vocabulary.
fn build_requests(state: &ServeState) -> Vec<ServeRequest> {
    let len = state.terms.len();
    let mut terms: Vec<String> = Vec::new();
    for k in 0..len * 2 {
        let t = state.terms.get((len / 7 + k) % len);
        if t.len() >= 2
            && t.chars().all(|c| c.is_ascii_alphanumeric())
            && !matches!(t, "and" | "or" | "not")
            && !terms.iter().any(|o| o == t)
        {
            terms.push(t.to_string());
            if terms.len() == 8 {
                break;
            }
        }
    }
    assert!(terms.len() >= 2, "vocabulary too small for query mix");
    let mut out = Vec::new();
    for pair in terms.chunks(2) {
        out.push(ServeRequest::Term {
            term: pair[0].clone(),
            top: 10,
        });
        if pair.len() == 2 {
            let expr = Query::parse(&format!("{} AND {}", pair[0], pair[1])).unwrap();
            out.push(ServeRequest::Boolean { expr, top: 10 });
            out.push(ServeRequest::Search {
                text: format!("{} {}", pair[0], pair[1]),
                top: 5,
            });
        }
    }
    out
}

fn bodies(state: &ServeState, requests: &[ServeRequest]) -> Vec<String> {
    requests
        .iter()
        .map(|r| execute(state, r).expect("request executes"))
        .collect()
}

fn medline(name: &str, text: &str) -> corpus::Source {
    corpus::Source {
        name: name.into(),
        data: text.as_bytes().to_vec(),
        format: corpus::FormatKind::Medline,
    }
}

/// Contract 1: sweep every crash point of a multi-record WAL — each
/// record boundary, plus every byte inside the final record — and check
/// that reopening recovers exactly the durable prefix.
#[test]
fn replay_recovers_exact_durable_prefix_at_every_crash_point() {
    let template = tmp_dir("sweep-template");
    let mut ing = IngestDir::create(&template, None).expect("create");
    let batches = [
        medline("a", "TI  - alpha beta gamma\nAB  - alpha words here\n\n"),
        medline("b", "TI  - delta beta\nAB  - more delta text\n\n"),
        medline("c", "TI  - epsilon gamma\nAB  - epsilon body\n\n"),
        medline("d", "TI  - zeta alpha\nAB  - zeta tail record\n\n"),
    ];
    let mut ends: Vec<u64> = Vec::new();
    for src in &batches {
        ends.push(
            ing.append_wal(&WalRecord::AddBatch(src.clone()))
                .expect("wal append"),
        );
    }
    drop(ing);
    let wal_bytes = std::fs::read(template.join(WAL_FILE)).expect("read wal");
    let manifest_bytes =
        std::fs::read(template.join(inspire_ingest::MANIFEST_FILE)).expect("read manifest");

    // Crash points: every record boundary (including 0 and EOF), plus
    // every byte offset inside the last record's frame.
    let mut cuts: Vec<u64> = vec![0];
    cuts.extend_from_slice(&ends);
    cuts.extend(ends[2] + 1..ends[3]);
    let trial = tmp_dir("sweep-trial");
    for cut in cuts {
        let _ = std::fs::remove_dir_all(&trial);
        std::fs::create_dir_all(&trial).unwrap();
        std::fs::write(trial.join(inspire_ingest::MANIFEST_FILE), &manifest_bytes).unwrap();
        std::fs::write(trial.join(WAL_FILE), &wal_bytes[..cut as usize]).unwrap();

        let durable = ends.iter().filter(|&&e| e <= cut).count();
        let ing = IngestDir::open(&trial).expect("recovery open");
        assert_eq!(
            ing.recovery.sealed_records, durable,
            "crash at byte {cut}: wrong durable prefix"
        );
        assert_eq!(ing.total_docs(), durable as u32);
        assert_eq!(ing.manifest().segments.len(), durable);
        // The torn tail is gone: the WAL now ends at the last durable
        // record, and a second open has nothing left to repair.
        let expect_len = ends.get(durable.wrapping_sub(1)).copied().unwrap_or(0);
        assert_eq!(Wal::new(trial.join(WAL_FILE)).len().unwrap(), expect_len);
        drop(ing);
        let again = IngestDir::open(&trial).expect("idempotent reopen");
        assert_eq!(again.recovery.sealed_records, 0);
        assert_eq!(again.recovery.torn_bytes, 0);
    }
    let _ = std::fs::remove_dir_all(&template);
    let _ = std::fs::remove_dir_all(&trial);
}

/// Contracts 2 and 3: the flagship kill-mid-ingest scenario, then
/// compaction on top of it.
#[test]
fn killed_ingest_replays_to_clean_rebuild_bodies() {
    let dir = tmp_dir("kill");
    let set = CorpusSpec::pubmed(96 * 1024, 11).generate();
    let n = set.sources.len();
    assert!(n >= 8, "need at least 8 sources, got {n}");
    let base_half = n / 2;
    let base_set = SourceSet {
        sources: set.sources[..base_half].to_vec(),
    };
    let base_path = dir.join("base.isnap");
    build_snapshot(&base_set, &base_path, 1);

    // Batch 1 ingests cleanly; batch 2 crashes after WAL durability
    // (records never sealed); batch 3 lands, then the tail of its last
    // record is torn off mid-frame.
    let rest = &set.sources[base_half..];
    let third = rest.len().div_ceil(3);
    let (b1, b23) = rest.split_at(third);
    let (b2, b3) = b23.split_at(third.min(b23.len()));
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
    for src in b1 {
        ing.append(src.clone()).expect("sealed append");
    }
    for src in b2 {
        ing.append_wal(&WalRecord::AddBatch(src.clone()))
            .expect("durable append");
    }
    let mut last_end = 0;
    for src in b3 {
        last_end = ing
            .append_wal(&WalRecord::AddBatch(src.clone()))
            .expect("durable append");
    }
    drop(ing); // crash: b2 + b3 durable but unsealed
    let wal_path = live.join(WAL_FILE);
    let wal = std::fs::read(&wal_path).unwrap();
    assert_eq!(wal.len() as u64, last_end);
    std::fs::write(&wal_path, &wal[..wal.len() - 7]).unwrap(); // torn tail

    let ing = IngestDir::open(&live).expect("recovery");
    assert_eq!(
        ing.recovery.sealed_records,
        b2.len() + b3.len() - 1,
        "replay must seal every durable record and only those"
    );
    assert!(ing.recovery.torn_bytes > 0);
    drop(ing);

    // The logical corpus after recovery: everything except the torn
    // final record. A clean rebuild of it — at P=1 and at P=4 — must
    // serve the same bytes the merged view serves.
    let survived = SourceSet {
        sources: set.sources[..n - 1].to_vec(),
    };
    let live_state = load_live_state(&live).expect("merged view");
    assert_eq!(live_state.total_docs(), {
        let clean: u32 = survived
            .sources
            .iter()
            .map(|s| s.record_ranges().len() as u32)
            .sum();
        clean
    });
    let requests = build_requests(&live_state);
    let live_bodies = bodies(&live_state, &requests);
    for procs in [1usize, 4] {
        let clean_path = dir.join(format!("clean-p{procs}.isnap"));
        build_snapshot(&survived, &clean_path, procs);
        let clean_state = ServeState::load(&clean_path).expect("clean load");
        assert_eq!(
            bodies(&clean_state, &requests),
            live_bodies,
            "merged view diverged from the P={procs} rebuild"
        );
    }

    // Contract 3: compaction changes nothing; strays vanish on reopen.
    let mut ing = IngestDir::open(&live).expect("reopen");
    let before = ing.manifest().segments.len();
    assert!(before > 1);
    ing.compact().expect("compact").expect("folds");
    assert_eq!(ing.manifest().segments.len(), 1);
    drop(ing);
    let compacted = load_live_state(&live).expect("compacted view");
    assert_eq!(compacted.segments_open(), 1);
    assert_eq!(
        bodies(&compacted, &requests),
        live_bodies,
        "compaction changed served bytes"
    );

    std::fs::write(live.join("seg-999999.iseg"), b"stray").unwrap();
    std::fs::write(live.join("seg-000001.iseg.tmp"), b"half-written").unwrap();
    let ing = IngestDir::open(&live).expect("stray cleanup open");
    assert_eq!(ing.recovery.removed_strays, 2);
    assert!(!live.join("seg-999999.iseg").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 2 without any crash: plain incremental ingestion equals the
/// full rebuild, at P=1 and P=4.
#[test]
fn merge_on_read_matches_full_rebuild() {
    let dir = tmp_dir("merge");
    let set = CorpusSpec::pubmed(96 * 1024, 23).generate();
    let half = set.sources.len() / 2;
    let base_set = SourceSet {
        sources: set.sources[..half].to_vec(),
    };
    let base_path = dir.join("base.isnap");
    build_snapshot(&base_set, &base_path, 1);
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
    for src in &set.sources[half..] {
        ing.append(src.clone()).expect("append");
    }
    drop(ing);

    let live_state = load_live_state(&live).expect("merged view");
    let requests = build_requests(&live_state);
    let live_bodies = bodies(&live_state, &requests);
    for procs in [1usize, 4] {
        let clean_path = dir.join(format!("clean-p{procs}.isnap"));
        build_snapshot(&set, &clean_path, procs);
        let clean_state = ServeState::load(&clean_path).expect("clean load");
        assert_eq!(
            bodies(&clean_state, &requests),
            live_bodies,
            "merged view diverged from the P={procs} rebuild"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 4: tombstoned documents disappear from enumeration while
/// stats keep LSM semantics, before and after compaction.
#[test]
fn tombstones_hide_deleted_docs_across_compaction() {
    let dir = tmp_dir("tomb");
    let base_set = SourceSet {
        sources: vec![
            medline(
                "base0",
                "TI  - shared topic alpha\nAB  - alpha base words\n\n",
            ),
            medline(
                "base1",
                "TI  - shared topic beta\nAB  - beta base words\n\n",
            ),
        ],
    };
    let base_path = dir.join("base.isnap");
    build_snapshot(&base_set, &base_path, 1);
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
    ing.append(medline(
        "inc0",
        "TI  - shared topic gamma\nAB  - gamma incoming words\n\n",
    ))
    .expect("append");

    let before = load_live_state(&live).expect("view");
    let topic = before.term_id("topic").expect("'topic' indexed");
    let victim = before.total_docs() - 1; // the ingested doc
    let pre_docs: Vec<u32> = before.postings_of(topic).iter().map(|p| p.doc).collect();
    assert!(pre_docs.contains(&victim));
    let df_before = before.df(topic);
    let total_before = before.total_docs();

    ing.delete(vec![victim]).expect("delete");
    drop(ing);
    for compacted in [false, true] {
        if compacted {
            let mut ing = IngestDir::open(&live).expect("reopen");
            ing.compact().expect("compact").expect("folds");
        }
        let after = load_live_state(&live).expect("view");
        let docs: Vec<u32> = after.postings_of(topic).iter().map(|p| p.doc).collect();
        assert!(
            !docs.contains(&victim),
            "tombstoned doc still served (compacted={compacted})"
        );
        let hits = visual_analytics::engine::query::search_in(&after, "shared topic", 10);
        assert!(hits.iter().all(|h| h.doc != victim));
        // LSM stats semantics: deletion rescales nothing until a full
        // rebuild folds the base.
        assert_eq!(after.df(topic), df_before);
        assert_eq!(after.total_docs(), total_before);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A logical corpus prefix: the first `n` sources of `set`.
fn prefix(set: &SourceSet, n: usize) -> SourceSet {
    SourceSet {
        sources: set.sources[..n].to_vec(),
    }
}

/// `/similar` by a document and by free text: the requests whose
/// answers read reconstructed segment signatures.
fn similar_requests(state: &ServeState) -> Vec<ServeRequest> {
    vec![
        ServeRequest::Similar {
            doc: Some(state.total_docs() - 1),
            text: None,
            top: 10,
            nprobe: 4,
        },
        ServeRequest::Similar {
            doc: None,
            text: Some(state.terms.get(state.terms.len() / 3).to_string()),
            top: 10,
            nprobe: 4,
        },
    ]
}

/// Flip one byte of a section payload (the first section starts right
/// after the 64-byte container header).
fn corrupt(bytes: &mut [u8]) {
    bytes[64] ^= 0x5a;
}

fn assert_checksum_error(res: std::io::Result<ServeState>, what: &str) {
    let err = match res {
        Ok(_) => panic!("{what}: a corrupted segment loaded"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    assert!(
        err.to_string().contains("checksum mismatch"),
        "{what}: not a checksum error: {err}"
    );
}

/// A reload shares the base and every segment a live generation holds:
/// generation g+1 reads only its new segment, g keeps answering the same
/// bytes, and both match clean rebuilds of their logical corpora.
#[test]
fn live_generations_share_verified_components() {
    let dir = tmp_dir("share");
    let set = CorpusSpec::pubmed(96 * 1024, 31).generate();
    let n = set.sources.len();
    let half = n / 2;
    assert!(n - half >= 2, "need at least 2 sources to append");
    let base_path = dir.join("base.isnap");
    build_snapshot(&prefix(&set, half), &base_path, 1);
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
    for src in &set.sources[half..n - 1] {
        ing.append(src.clone()).expect("append");
    }

    let g = load_live_state(&live).expect("generation g");
    assert_eq!(g.components_reused(), 0, "nothing was alive before g");
    let mut g_requests = build_requests(&g);
    g_requests.extend(similar_requests(&g));
    let g_bodies = bodies(&g, &g_requests);

    ing.append(set.sources[n - 1].clone()).expect("append");
    let next = load_live_state(&live).expect("generation g+1");
    assert!(next.generation > g.generation);
    assert!(
        std::ptr::eq(g.snapshot(), next.snapshot()),
        "g+1 re-read the base snapshot g holds"
    );
    assert_eq!(next.segments_open(), g.segments_open() + 1);
    assert_eq!(
        next.components_reused(),
        1 + g.segments_open(),
        "g+1 must reuse the base and every segment of g"
    );
    assert_eq!(
        bodies(&g, &g_requests),
        g_bodies,
        "g changed its answers when g+1 loaded"
    );
    bodies(&next, &similar_requests(&next));
    // Every segment document's reconstructed signature finds the
    // document itself, in the generation that read the segment and in
    // the one that shares it.
    for state in [&g, &next] {
        for doc in state.meta.total_docs..g.total_docs() {
            let sig = state.doc_signature(doc).expect("segment doc signature");
            if sig.iter().all(|&x| x == 0.0) {
                continue;
            }
            let (hits, _) = state.similar(sig, 3, 4);
            assert!(
                hits.iter().any(|h| h.doc == doc && h.score > 1.0 - 1e-9),
                "doc {doc} does not find itself: {hits:?}"
            );
        }
    }

    let next_requests = build_requests(&next);
    let next_bodies = bodies(&next, &next_requests);
    let g_index_requests = build_requests(&g);
    let g_index_bodies = bodies(&g, &g_index_requests);
    for procs in [1usize, 4] {
        let g_clean = dir.join(format!("g-p{procs}.isnap"));
        build_snapshot(&prefix(&set, n - 1), &g_clean, procs);
        let g_clean = ServeState::load(&g_clean).expect("clean load");
        assert_eq!(
            bodies(&g_clean, &g_index_requests),
            g_index_bodies,
            "g diverged from its P={procs} rebuild"
        );
        let next_clean = dir.join(format!("next-p{procs}.isnap"));
        build_snapshot(&set, &next_clean, procs);
        let next_clean = ServeState::load(&next_clean).expect("clean load");
        assert_eq!(
            bodies(&next_clean, &next_requests),
            next_bodies,
            "g+1 diverged from its P={procs} rebuild"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharing never serves bytes that were not verified: once every state
/// is dropped a load reads everything again, and a segment replaced
/// through tmp+rename while a state holds the old one is read again.
#[test]
fn reload_verifies_what_it_does_not_share() {
    let dir = tmp_dir("verify");
    let set = CorpusSpec::pubmed(64 * 1024, 37).generate();
    let half = set.sources.len() / 2;
    let base_path = dir.join("base.isnap");
    build_snapshot(&prefix(&set, half), &base_path, 1);
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
    for src in &set.sources[half..half + 2] {
        ing.append(src.clone()).expect("append");
    }
    let seg_path = live.join(&ing.manifest().segments[0].file);
    drop(ing);
    let pristine = std::fs::read(&seg_path).expect("read segment");
    let mut bad = pristine.clone();
    corrupt(&mut bad);

    // All states dropped: a byte flipped in place is caught.
    drop(load_live_state(&live).expect("clean load"));
    std::fs::write(&seg_path, &bad).unwrap();
    assert_checksum_error(load_live_state(&live), "cold load");
    std::fs::write(&seg_path, &pristine).unwrap();

    // A state is alive, then the segment is replaced by corrupt bytes
    // through tmp+rename: the reload reads the new file and fails.
    let alive = load_live_state(&live).expect("clean load");
    assert_eq!(alive.components_reused(), 0, "every state was dropped");
    let requests = build_requests(&alive);
    let before = bodies(&alive, &requests);
    let tmp = seg_path.with_extension("iseg.tmp");
    std::fs::write(&tmp, &bad).unwrap();
    std::fs::rename(&tmp, &seg_path).unwrap();
    assert_checksum_error(load_live_state(&live), "reload after replace");
    assert_eq!(bodies(&alive, &requests), before);
    let _ = std::fs::remove_dir_all(&dir);
}
