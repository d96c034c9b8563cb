//! `vaengine query` against the HTTP executor.
//!
//! The CLI builds its requests through `ServeRequest::parse` and renders
//! the one `evaluate` answer, so for every query kind:
//!
//! 1. `--json` stdout is byte-identical to `execute` of the same HTTP
//!    target — the body `vaengine serve` returns for it;
//! 2. text-mode stdout ends with `Answer::to_human` of that answer;
//! 3. input the server rejects with a 400 fails the CLI in both modes:
//!    exit status 1 and `query failed:` on stderr.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Arc, OnceLock};
use visual_analytics::engine::pipeline::run_engine;
use visual_analytics::engine::query::SearchIndex;
use visual_analytics::engine::EngineConfig;
use visual_analytics::perfmodel::CostModel;
use visual_analytics::prelude::CorpusSpec;
use visual_analytics::serve::request::split_target;
use visual_analytics::serve::{evaluate, execute, ServeRequest, ServeState};

/// One Final-stage snapshot shared by every test in this file.
fn snapshot() -> &'static Path {
    static SNAP: OnceLock<PathBuf> = OnceLock::new();
    SNAP.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("va-cli-query-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        let out = dir.join("engine.isnap");
        let cfg = EngineConfig {
            snapshot_out: Some(out.clone()),
            ..EngineConfig::for_testing()
        };
        let set = CorpusSpec::pubmed(96 * 1024, 42).generate();
        let run = run_engine(2, Arc::new(CostModel::zero()), &set, &cfg);
        assert!(
            run.master().snapshot_report.is_some(),
            "snapshot write failed"
        );
        out
    })
}

fn query(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vaengine"))
        .arg("query")
        .arg("--snapshot")
        .arg(snapshot())
        .args(args)
        .output()
        .expect("run vaengine")
}

/// The two highest-df terms of the snapshot, so every retrieval kind
/// answers with non-empty results.
fn frequent_terms(state: &ServeState) -> (String, String) {
    let mut ids: Vec<u32> = (0..state.terms.len() as u32).collect();
    ids.sort_by_key(|&t| std::cmp::Reverse(state.df(t)));
    let term = |i: usize| state.terms.get(ids[i] as usize).to_string();
    (term(0), term(1))
}

#[test]
fn every_kind_matches_the_http_executor() {
    let state = ServeState::load(snapshot()).expect("load snapshot");
    let (t1, t2) = frequent_terms(&state);
    let (either, both) = (format!("{t1} OR {t2}"), format!("{t1} {t2}"));
    let cases: Vec<(Vec<&str>, String)> = vec![
        (vec!["--term", &t1], format!("/term?t={t1}")),
        (
            vec!["--query", &either, "--top", "5"],
            format!("/query?q={t1}+OR+{t2}&top=5"),
        ),
        (vec!["--search", &both], format!("/search?q={t1}+{t2}")),
        (
            vec!["--cluster", "1", "--top", "4"],
            "/cluster?c=1&top=4".into(),
        ),
        (
            vec!["--rect", "0.5,0.5,-0.5,-0.5"],
            "/rect?x0=0.5&y0=0.5&x1=-0.5&y1=-0.5".into(),
        ),
        (vec!["--similar", "3"], "/similar?doc=3".into()),
        (
            vec!["--similar-text", &both, "--nprobe", "2", "--top", "3"],
            format!("/similar?text={t1}+{t2}&nprobe=2&top=3"),
        ),
    ];
    for (flags, target) in &cases {
        let (path, params) = split_target(target);
        let req = ServeRequest::parse(path, &params).expect("target parses");
        let body = execute(&state, &req).expect("target answers");
        assert!(body.len() > 40, "{target}: near-empty body {body}");

        let mut json_flags = flags.clone();
        json_flags.push("--json");
        let out = query(&json_flags);
        assert!(out.status.success(), "{flags:?} --json failed: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            body,
            "{flags:?} --json"
        );

        let human = evaluate(&state, &req).expect("target answers").to_human();
        let out = query(flags);
        assert!(out.status.success(), "{flags:?} failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.ends_with(&human),
            "{flags:?}: {stdout:?} lacks {human:?}"
        );
    }
}

#[test]
fn rejected_input_fails_in_both_modes() {
    let bad: [&[&str]; 6] = [
        &["--cluster", "999"],
        &["--rect", "0,0,abc,1,1"],
        &["--rect", "nan,0,1,1"],
        &["--term", "protein", "--top", "abc"],
        &["--term", "protein", "--top", "0"],
        &["--term", ""],
    ];
    for flags in bad {
        for json in [false, true] {
            let mut args = flags.to_vec();
            if json {
                args.push("--json");
            }
            let out = query(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?} exit: {stderr}");
            assert!(stderr.contains("query failed:"), "{args:?}: {stderr}");
        }
    }
}
