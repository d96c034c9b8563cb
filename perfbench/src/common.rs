//! Pieces every workload shares: the scratch directory, the corpus and
//! snapshot build, the server start, and the host fingerprint.

use crate::client;
use crate::Args;
use corpus::{CorpusSpec, SourceSet};
use inspire_core::pipeline::{run_engine, EngineRun};
use inspire_core::{EngineConfig, SnapshotReport};
use inspire_serve::{ServeConfig, ServeState, Server};
use perfmodel::CostModel;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Corpus size every workload builds from: the scale at which the
/// pipeline takes about a second at P=2 on a 2-CPU host.
pub const CORPUS_BYTES: u64 = 16 << 20;
/// SPMD ranks for every pipeline run.
pub const PROCS: usize = 2;
/// Closed-loop HTTP clients (one per CPU of the reference host).
pub const CLIENTS: usize = 2;
/// Set-up is repeated this many times and `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Snapshot loads behind `first_answer_ms`.
pub const FIRST_ANSWER_LOADS: usize = 30;

/// A fresh per-process directory under `.perfbench_work/` in the
/// current directory, removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(args: &Args) -> WorkDir {
        let path = PathBuf::from(".perfbench_work").join(format!(
            "{}-{}",
            args.workload,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create .perfbench_work directory");
        WorkDir { path }
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind; fails harmlessly while another
        // run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// The PubMed-flavoured corpus of a workload.
pub fn corpus(seed: u64) -> SourceSet {
    CorpusSpec::pubmed(CORPUS_BYTES, seed).generate()
}

/// The engine configuration every build uses: defaults, plus the
/// snapshot destination.
pub fn engine_config(out: &Path) -> EngineConfig {
    EngineConfig {
        snapshot_out: Some(out.to_path_buf()),
        ..EngineConfig::default()
    }
}

/// The cost model the CLI uses.
pub fn model() -> Arc<CostModel> {
    Arc::new(CostModel::pnnl_2007())
}

/// Corpus → published snapshot through `run_engine` at `procs` ranks.
/// Returns the run and its wall time in seconds.
pub fn build_snapshot(set: &SourceSet, out: &Path, procs: usize) -> (EngineRun, f64) {
    build_with(set, &engine_config(out), procs)
}

/// [`build_snapshot`] under a given configuration (`snapshot_out` set).
pub fn build_with(set: &SourceSet, cfg: &EngineConfig, procs: usize) -> (EngineRun, f64) {
    let t0 = Instant::now();
    let run = run_engine(procs, model(), set, cfg);
    let secs = t0.elapsed().as_secs_f64();
    assert!(
        run.master().snapshot_report.is_some(),
        "snapshot {:?} was not written",
        cfg.snapshot_out
    );
    (run, secs)
}

/// Child-process side of [`build_in_child`]: build the snapshot of the
/// seed's corpus at `out` and print its size report as one JSON line.
pub fn emit_snapshot(seed: u64, out: &Path) {
    let set = corpus(seed);
    let (run, _) = build_snapshot(&set, out, PROCS);
    let rep = run
        .master()
        .snapshot_report
        .as_ref()
        .expect("snapshot report");
    let sections: Vec<String> = rep
        .sections
        .iter()
        .map(|(n, b)| format!("[\"{}\",{b}]", inspire_trace::json::escape(n)))
        .collect();
    println!(
        "{{\"corpus_bytes\":{},\"total_bytes\":{},\"sections\":[{}]}}",
        set.total_bytes(),
        rep.total_bytes,
        sections.join(",")
    );
}

/// Build the snapshot of the seed's corpus at `out` (as [`build_snapshot`]
/// at P=2) in a child process of this executable, and wait for it. The
/// serving workloads use this so their own process holds only what
/// serving needs, as a `vaengine serve` process would. Returns the
/// snapshot's size report and the corpus size in bytes.
pub fn build_in_child(seed: u64, out: &Path) -> (SnapshotReport, u64) {
    let exe = std::env::current_exe().expect("path of the running executable");
    let output = std::process::Command::new(exe)
        .arg("--emit-snapshot")
        .arg(out)
        .args(["--seed", &seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("snapshot build process runs");
    assert!(output.status.success(), "snapshot build process failed");
    let line = String::from_utf8_lossy(&output.stdout);
    let v = inspire_trace::json::parse(line.trim()).expect("snapshot report is JSON");
    let num = |k: &str| v.get(k).and_then(|x| x.as_f64()).expect("report field") as u64;
    let sections = v
        .get("sections")
        .and_then(|s| s.as_arr())
        .expect("report sections")
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().expect("section pair");
            let name = pair[0].as_str().expect("section name").to_string();
            (name, pair[1].as_f64().expect("section bytes") as u64)
        })
        .collect();
    let rep = SnapshotReport {
        write_seconds: 0.0,
        total_bytes: num("total_bytes"),
        sections,
    };
    (rep, num("corpus_bytes"))
}

/// Serve `state` on an ephemeral port with otherwise default settings.
/// Returns the server and the time from `Server::start` to the first
/// 200 from `/healthz`, in seconds.
pub fn start_server(state: Arc<ServeState>) -> (Server, f64) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let server = Server::start(state, &cfg).expect("server starts on an ephemeral port");
    client::get_ok(server.local_addr(), "/healthz").expect("/healthz answers 200");
    (server, t0.elapsed().as_secs_f64())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The host's aggregate CPU time counters (the `cpu` line of
/// `/proc/stat`, in clock ticks), when readable.
pub fn host_cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect()
}

/// Share of the host's CPU time between two [`host_cpu_ticks`] readings
/// that the hypervisor gave to other guests (steal, the eighth field),
/// in percent: how contended the machine was while the run measured.
pub fn steal_pct(before: &[u64], after: &[u64]) -> Option<f64> {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    // guest and guest_nice (fields 9 and 10) are already counted in user.
    let total: u64 = delta.iter().take(8).sum();
    (total > 0 && delta.len() >= 8).then(|| delta[7] as f64 / total as f64 * 100.0)
}

fn command_line(cmd: &str, args: &[&str], envs: &[(&str, &str)]) -> Option<String> {
    let mut c = std::process::Command::new(cmd);
    c.args(args).stderr(std::process::Stdio::null());
    for (k, v) in envs {
        c.env(k, v);
    }
    let out = c.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host fingerprint and run parameters for the detail record: CPUs,
/// `rustc -V`, the git revision (when the checkout is a git work
/// tree), the seed and the workload's fixed sizes.
pub fn fingerprint(args: &Args) -> BTreeMap<String, String> {
    let q = |s: &str| format!("\"{}\"", inspire_trace::json::escape(s));
    let cwd = std::env::current_dir().unwrap_or_default();
    // Keep git from finding a repository above the checkout.
    let ceiling = cwd
        .parent()
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    let rev = command_line(
        "git",
        &["rev-parse", "HEAD"],
        &[("GIT_CEILING_DIRECTORIES", ceiling.as_str())],
    )
    .unwrap_or_else(|| "none (not a git work tree)".into());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut m = BTreeMap::new();
    m.insert("workload".into(), q(&args.workload));
    m.insert("seed".into(), args.seed.to_string());
    m.insert("seconds".into(), crate::num(args.seconds));
    m.insert("trace".into(), args.trace.to_string());
    m.insert("host_cpus".into(), cpus.to_string());
    m.insert(
        "rustc".into(),
        q(&command_line("rustc", &["-V"], &[]).unwrap_or_else(|| "unknown".into())),
    );
    m.insert("git_rev".into(), q(&rev));
    m.insert("corpus_bytes_target".into(), CORPUS_BYTES.to_string());
    m.insert("procs".into(), PROCS.to_string());
    m.insert("clients".into(), CLIENTS.to_string());
    m.insert("setup_repeats".into(), SETUP_REPEATS.to_string());
    m
}
