//! Seeded request targets: the traffic mixes the serving workloads send.
//!
//! Targets are drawn from the snapshot itself (its vocabulary, document
//! ids, cluster ids and layout bounds) with a generator seeded from the
//! benchmark's `--seed`, so the same seed and snapshot give the same
//! list. Every target is a request the server answers with 200.
//!
//! The weights of the mix are assumptions: nothing in the repository
//! records how analysts actually use the server. Each kind is drawn
//! with equal weight (AND and OR share one draw, `/similar` splits
//! evenly between a document and a text), boolean and ranked queries
//! use the 4,096 most frequent terms, and rectangles cover 5-20% of
//! each axis. Because the weights decide which layer a tail regression
//! points at, every run records the share and the latency percentiles
//! of each class, and each class's share of the tail (see
//! `serve::class_breakdown`).

use inspire_core::query::SearchIndex;
use inspire_serve::request::split_target;
use inspire_serve::{ServeRequest, ServeState};
use std::collections::HashSet;

/// SplitMix64: a small seeded generator, so inputs depend only on the
/// seed the benchmark was given.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One request target and the query terms it names.
#[derive(Debug, Clone)]
pub struct Target {
    pub url: String,
    /// Route kind, as `ServeRequest::kind` names it.
    pub kind: &'static str,
    /// Index terms the request looks up (for `query.postings_touched`).
    pub terms: Vec<String>,
}

impl Target {
    /// The traffic class the generator drew: the route kind, with the
    /// boolean operator and the `/similar` input told apart.
    pub fn class(&self) -> &'static str {
        match self.kind {
            "query" if self.url.contains("+AND+") => "and",
            "query" => "or",
            "similar" if self.url.contains("doc=") => "similar_doc",
            "similar" => "similar_text",
            k => k,
        }
    }

    pub fn request(&self) -> ServeRequest {
        let (path, params) = split_target(&self.url);
        ServeRequest::parse(path, &params).expect("generated targets parse")
    }
}

/// The six request kinds, plus `/cluster` for the hot mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// term, AND, OR, search, similar, rect and cluster.
    WithCluster,
    /// term, AND, OR, search, similar and rect: cluster ids are too few
    /// to give thousands of distinct targets.
    NoCluster,
}

/// Vocabulary pools the generator draws from.
struct Pools {
    /// Every indexed plain-word term.
    all: Vec<String>,
    /// The most frequent plain-word terms, the ones an analyst clicks
    /// on in ThemeView; boolean and ranked queries draw from these so
    /// they decode long postings lists.
    frequent: Vec<String>,
}

const FREQUENT: usize = 4096;

fn pools(state: &ServeState) -> Pools {
    let mut scored: Vec<(u32, String)> = state
        .terms
        .iter()
        .filter(|t| {
            t.len() >= 3
                && t.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
                && !matches!(*t, "and" | "not")
        })
        .filter_map(|t| {
            let df = state.term_id(t).map(|id| state.df(id)).unwrap_or(0);
            (df > 0).then(|| (df, t.to_string()))
        })
        .collect();
    assert!(scored.len() >= 64, "snapshot vocabulary too small");
    let all: Vec<String> = scored.iter().map(|(_, t)| t.clone()).collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let frequent = scored.into_iter().take(FREQUENT).map(|(_, t)| t).collect();
    Pools { all, frequent }
}

fn pick(rng: &mut Rng, pool: &[String]) -> String {
    pool[rng.below(pool.len())].clone()
}

/// `count` targets with distinct cache keys, in seeded random order.
pub fn generate(state: &ServeState, seed: u64, count: usize, mix: Mix) -> Vec<Target> {
    let pools = pools(state);
    let mut rng = Rng::new(seed);
    let total_docs = state.meta.total_docs as usize;
    let mut docs: Vec<u32> = (0..total_docs as u32).collect();
    rng.shuffle(&mut docs);
    let bounds = state.coords.as_ref().map(|c| {
        c.iter().fold(
            (f64::MAX, f64::MAX, f64::MIN, f64::MIN),
            |(x0, y0, x1, y1), &(x, y)| (x0.min(x), y0.min(y), x1.max(x), y1.max(y)),
        )
    });
    let clusters = state.cluster_sizes.len();
    let kinds = match mix {
        Mix::WithCluster if clusters > 0 => 7,
        _ => 6,
    };

    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut next_doc = 0usize;
    let mut attempts = 0usize;
    while out.len() < count {
        attempts += 1;
        assert!(
            attempts < 50 * count + 1000,
            "cannot draw {count} distinct targets from this snapshot"
        );
        let t = match rng.below(kinds) {
            0 => {
                let a = pick(&mut rng, &pools.all);
                Target {
                    url: format!("/term?t={a}&top=10"),
                    kind: "term",
                    terms: vec![a],
                }
            }
            k @ (1 | 2) => {
                let (a, b) = (
                    pick(&mut rng, &pools.frequent),
                    pick(&mut rng, &pools.frequent),
                );
                let op = if k == 1 { "AND" } else { "OR" };
                Target {
                    url: format!("/query?q={a}+{op}+{b}&top=10"),
                    kind: "query",
                    terms: vec![a, b],
                }
            }
            3 => {
                let (a, b, c) = (
                    pick(&mut rng, &pools.frequent),
                    pick(&mut rng, &pools.frequent),
                    pick(&mut rng, &pools.frequent),
                );
                Target {
                    url: format!("/search?q={a}+{b}+{c}&top=10"),
                    kind: "search",
                    terms: vec![a, b, c],
                }
            }
            4 if next_doc < docs.len() && rng.below(2) == 0 => {
                next_doc += 1;
                Target {
                    url: format!("/similar?doc={}&top=10", docs[next_doc - 1]),
                    kind: "similar",
                    terms: Vec::new(),
                }
            }
            4 => {
                let (a, b) = (
                    pick(&mut rng, &pools.frequent),
                    pick(&mut rng, &pools.frequent),
                );
                Target {
                    url: format!("/similar?text={a}+{b}&top=10"),
                    kind: "similar",
                    terms: Vec::new(),
                }
            }
            5 => {
                let Some((x0, y0, x1, y1)) = bounds else {
                    continue;
                };
                let (w, h) = (x1 - x0, y1 - y0);
                let (rw, rh) = (
                    w * (0.05 + 0.15 * rng.unit()),
                    h * (0.05 + 0.15 * rng.unit()),
                );
                let (cx, cy) = (x0 + w * rng.unit(), y0 + h * rng.unit());
                Target {
                    url: format!(
                        "/rect?x0={:.5}&y0={:.5}&x1={:.5}&y1={:.5}&top=20",
                        cx - rw / 2.0,
                        cy - rh / 2.0,
                        cx + rw / 2.0,
                        cy + rh / 2.0
                    ),
                    kind: "rect",
                    terms: Vec::new(),
                }
            }
            _ => Target {
                url: format!("/cluster?c={}&top=10", rng.below(clusters)),
                kind: "cluster",
                terms: Vec::new(),
            },
        };
        if seen.insert(t.request().cache_key()) {
            out.push(t);
        }
    }
    out
}
