//! A crash between a publish's fsync and its rename leaves a complete or
//! torn `<name>.tmp` beside the old file. Readers must keep seeing the
//! old generation, and the next publish must succeed over the stale
//! tmp. Every file below is published by `inspire_store::publish_atomic`
//! (its byte-level fault sweep lives in that module's unit tests).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use visual_analytics::engine::pipeline::run_engine;
use visual_analytics::engine::snapshot::EngineSnapshot;
use visual_analytics::engine::EngineConfig;
use visual_analytics::ingest::{IngestDir, MANIFEST_FILE, METRICS_FILE};
use visual_analytics::perfmodel::CostModel;
use visual_analytics::prelude::{CorpusSpec, SourceSet};
use visual_analytics::serve::{execute, load_live_state, ServeRequest, ServeState};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("va-publish-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn build_snapshot(set: &SourceSet, out: &Path) {
    let cfg = EngineConfig {
        snapshot_out: Some(out.to_path_buf()),
        ..EngineConfig::for_testing()
    };
    let run = run_engine(2, Arc::new(CostModel::zero()), set, &cfg);
    assert!(
        run.master().snapshot_report.is_some(),
        "snapshot publish failed"
    );
}

fn corpus_fp(path: &Path) -> u64 {
    EngineSnapshot::open(path)
        .expect("snapshot opens")
        .meta()
        .corpus_fp
}

fn tmp_beside(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn stale_snapshot_tmp_is_invisible_and_overwritten() {
    let dir = tmp_dir("snapshot");
    let old_set = CorpusSpec::pubmed(64 * 1024, 11).generate();
    let new_set = CorpusSpec::pubmed(64 * 1024, 12).generate();
    let old_path = dir.join("old.isnap");
    let new_path = dir.join("new.isnap");
    build_snapshot(&old_set, &old_path);
    build_snapshot(&new_set, &new_path);
    let (old_fp, new_fp) = (corpus_fp(&old_path), corpus_fp(&new_path));
    assert_ne!(old_fp, new_fp);
    let old = std::fs::read(&old_path).unwrap();
    let new = std::fs::read(&new_path).unwrap();

    let target = dir.join("engine.isnap");
    for (label, stale) in [("complete", &new[..]), ("torn", &new[..new.len() / 2])] {
        std::fs::write(&target, &old).unwrap();
        std::fs::write(tmp_beside(&target), stale).unwrap();
        assert_eq!(corpus_fp(&target), old_fp, "{label} tmp became visible");

        build_snapshot(&new_set, &target);
        assert_eq!(
            corpus_fp(&target),
            new_fp,
            "{label}: publish over stale tmp"
        );
        assert!(!tmp_beside(&target).exists(), "{label}: tmp left behind");
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn medline(name: &str, text: &str) -> corpus::Source {
    corpus::Source {
        name: name.into(),
        data: text.as_bytes().to_vec(),
        format: corpus::FormatKind::Medline,
    }
}

fn term_bodies(state: &ServeState, terms: &[&str]) -> Vec<String> {
    terms
        .iter()
        .map(|t| {
            let req = ServeRequest::Term {
                term: t.to_string(),
                top: 10,
            };
            execute(state, &req).expect("request executes")
        })
        .collect()
}

#[test]
fn stale_ingest_tmps_keep_the_old_generation_until_the_next_seal() {
    let dir = tmp_dir("ingest");
    let base = dir.join("base.isnap");
    build_snapshot(&CorpusSpec::pubmed(64 * 1024, 21).generate(), &base);
    let first = medline("a", "TI  - zyzzyva quokka\nAB  - quokka burrow words\n\n");
    let second = medline("b", "TI  - zyzzyva axolotl\nAB  - axolotl pond\n\n");
    let terms = ["zyzzyva", "quokka", "axolotl"];

    for (label, torn) in [("complete", false), ("torn", true)] {
        let live = dir.join(format!("live-{label}"));
        let mut ing = IngestDir::create(&live, Some(&base)).expect("create");
        ing.append(first.clone()).expect("first append");
        let old_gen = ing.manifest().generation;
        let old_bodies = term_bodies(&load_live_state(&live).unwrap(), &terms);

        // The files the second seal publishes, as a copy of the
        // directory that did seal it has them.
        let ahead = dir.join(format!("ahead-{label}"));
        std::fs::create_dir_all(&ahead).unwrap();
        for name in file_names(&live) {
            std::fs::copy(live.join(&name), ahead.join(&name)).unwrap();
        }
        let mut ing_ahead = IngestDir::open(&ahead).expect("open copy");
        let seg = ing_ahead
            .append(second.clone())
            .expect("copy seals")
            .segment_file;
        let new_bodies = term_bodies(&load_live_state(&ahead).unwrap(), &terms);
        assert_ne!(old_bodies, new_bodies);

        // Crash between fsync and rename of every one of them.
        for name in [seg.as_str(), MANIFEST_FILE, METRICS_FILE] {
            let bytes = std::fs::read(ahead.join(name)).unwrap();
            let stale = if torn {
                &bytes[..bytes.len() / 2]
            } else {
                &bytes[..]
            };
            std::fs::write(tmp_beside(&live.join(name)), stale).unwrap();
        }
        let state = load_live_state(&live).expect("old generation loads");
        assert_eq!(state.generation, old_gen, "{label} tmp became visible");
        assert_eq!(term_bodies(&state, &terms), old_bodies, "{label}");

        // The writer's next seal publishes over the stale tmps.
        ing.append(second.clone()).expect("seal over stale tmps");
        let state = load_live_state(&live).expect("new generation loads");
        assert_eq!(state.generation, old_gen + 1, "{label}");
        assert_eq!(term_bodies(&state, &terms), new_bodies, "{label}");
        let leftovers: Vec<String> = file_names(&live)
            .into_iter()
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{label}: {leftovers:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
