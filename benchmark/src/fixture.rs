//! Inputs: the dataset, the held-out queries, exact truth, and the HTTP
//! requests of each workload — everything derived from `--seed`. The
//! program under test only ever receives the generated vectors and request
//! bytes; the seed never reaches it.
//!
//! Generating these is the benchmark's own work and is excluded from
//! `setup_s`.

use gqr::prelude::*;
use gqr::serve::wire::encode_predicate;

/// Neighbours requested by every request.
pub const K: usize = 10;
/// Held-out query rows; every workload cycles through all of them.
pub const N_QUERIES: usize = 1000;
/// The corpus is one fixed draw of the generator: `--seed` chooses which
/// rows are held out as queries (and, through them, the truth, the class
/// cycle, the attribute columns and the write plan), not the corpus. With
/// a corpus per seed, recall@10 moved by ±0.015 between seeds on
/// `gqr-budget` and by ±0.02 (8 % of its value) on `http-light`, which is
/// more than the regression a recall bound is there to catch.
pub const CORPUS_SEED: u64 = 42;
/// Distinct `tenant` values (selectivity 0.01).
pub const N_TENANTS: u64 = 100;
/// The `color` tags (selectivity 0.33 each).
pub const COLORS: [&str; 3] = ["red", "green", "blue"];

/// SplitMix64: the benchmark's own seeded generator (attribute columns,
/// class cycle, write plan), so inputs depend on `--seed` and nothing else.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One kind of `POST /search` body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// GQR at the ROADMAP operating point, `candidates: 2000`.
    Gqr,
    /// GQR with `candidates: 10`: one or two buckets.
    GqrLight,
    /// GQR with `recall_target: 0.9` (adaptive termination).
    GqrRt,
    /// MIH(2), `candidates: 2000`.
    Mih,
    /// Hamming ranking, `candidates: 4000`.
    Hr,
    /// QD ranking, `candidates: 2000`.
    Qr,
    /// GQR `candidates: 2000` filtered on `color = "red"`.
    F33,
    /// GQR `candidates: 2000` filtered on `tenant = 7`.
    F01,
}

impl Class {
    /// The six classes `mix-sharded` reports a round trip for.
    pub const MIX: [Class; 6] = [
        Class::GqrRt,
        Class::Mih,
        Class::Hr,
        Class::Qr,
        Class::F33,
        Class::F01,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Gqr => "gqr",
            Class::GqrLight => "gqr-light",
            Class::GqrRt => "gqr-rt",
            Class::Mih => "mih",
            Class::Hr => "hr",
            Class::Qr => "qr",
            Class::F33 => "f33",
            Class::F01 => "f01",
        }
    }

    pub fn predicate(self) -> Option<Predicate> {
        match self {
            Class::F33 => Some(Predicate::eq("color", "red")),
            Class::F01 => Some(Predicate::eq("tenant", 7i64)),
            _ => None,
        }
    }

    /// The members of the JSON body after `"query"` and `"k"`.
    fn body_tail(self) -> String {
        let plain = match self {
            Class::Gqr | Class::F33 | Class::F01 => r#""strategy":"GQR","candidates":2000"#,
            Class::GqrLight => r#""strategy":"GQR","candidates":10"#,
            Class::GqrRt => r#""strategy":"GQR","recall_target":0.9"#,
            Class::Mih => r#""strategy":"MIH","mih_blocks":2,"candidates":2000"#,
            Class::Hr => r#""strategy":"HR","candidates":4000"#,
            Class::Qr => r#""strategy":"QR","candidates":2000"#,
        };
        match self.predicate() {
            Some(pred) => format!("{plain},\"filter\":{}", encode_predicate(&pred)),
            None => plain.to_string(),
        }
    }
}

/// The 20-request cycle of `mix-sharded`. Weights are inverse to cost so
/// each class holds a comparable share of busy time; the order is shuffled
/// by the seed.
pub fn mix_cycle(seed: u64) -> Vec<Class> {
    let mut cycle = Vec::with_capacity(20);
    for (class, weight) in [
        (Class::GqrRt, 8),
        (Class::Mih, 4),
        (Class::Hr, 2),
        (Class::Qr, 2),
        (Class::F33, 3),
        (Class::F01, 1),
    ] {
        cycle.extend(std::iter::repeat_n(class, weight));
    }
    SplitMix64(seed ^ 0x6d69_785f_6379_636c).shuffle(&mut cycle);
    cycle
}

/// The benchmark's attribute columns for `mix-sharded`, one value per base
/// row. Truth for filtered requests is computed from these directly, never
/// through the `AttributeStore` under test.
pub struct AttrColumns {
    pub tenant: Vec<i64>,
    pub color: Vec<&'static str>,
}

impl AttrColumns {
    pub fn generate(n: usize, seed: u64) -> AttrColumns {
        let mut rng = SplitMix64(seed ^ 0x6174_7472_735f_636f);
        let mut tenant = Vec::with_capacity(n);
        let mut color = Vec::with_capacity(n);
        for _ in 0..n {
            tenant.push(rng.below(N_TENANTS) as i64);
            color.push(COLORS[rng.below(COLORS.len() as u64) as usize]);
        }
        AttrColumns { tenant, color }
    }

    fn matches(&self, class: Class, row: usize) -> bool {
        match class {
            Class::F33 => self.color[row] == "red",
            Class::F01 => self.tenant[row] == 7,
            _ => true,
        }
    }
}

/// One prepared request: HTTP bytes ready to write, and the exact answer.
pub struct Request {
    /// Index of the held-out query this request carries.
    pub query: usize,
    pub class: Class,
    /// Request head + JSON body.
    pub http: Vec<u8>,
    /// Length of the JSON body alone.
    pub body_bytes: usize,
    /// Exact top-k ids (over the matching rows for filtered classes). Its
    /// length is the number of ids a correct answer holds.
    pub truth: Vec<u32>,
}

/// Dataset, queries and unfiltered truth shared by every workload.
pub struct Fixture {
    pub seed: u64,
    pub code_length: usize,
    /// Indexed rows. Leaked once: engines borrow the rows and
    /// `Server::start` needs a `'static` index.
    pub base: &'static Dataset,
    pub queries: Vec<Vec<f32>>,
    /// Exact top-k of every query over `base`.
    pub truth: Vec<Vec<u32>>,
}

impl Fixture {
    pub fn generate(scale: Scale, seed: u64) -> Fixture {
        let spec = DatasetSpec::gist1m().scale(scale);
        let code_length = spec.code_length();
        let (base, queries) = spec
            .generate(CORPUS_SEED)
            .split_queries(N_QUERIES, seed + 1);
        let truth = brute_force_knn(&base, &queries, K, 0);
        Fixture {
            seed,
            code_length,
            base: Box::leak(Box::new(base)),
            queries,
            truth,
        }
    }

    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// One request per held-out query; `class_of(query)` picks its class.
    /// Filtered classes need `attrs` for their truth.
    pub fn requests(
        &self,
        class_of: impl Fn(usize) -> Class,
        attrs: Option<&AttrColumns>,
    ) -> Vec<Request> {
        let classes: Vec<Class> = (0..N_QUERIES).map(&class_of).collect();
        let mut truth = self.truth.clone();
        for class in [Class::F33, Class::F01] {
            let wanted: Vec<usize> = (0..N_QUERIES).filter(|&q| classes[q] == class).collect();
            if wanted.is_empty() {
                continue;
            }
            let attrs = attrs.expect("filtered classes need attribute columns");
            let rows: Vec<u32> = (0..self.base.n())
                .filter(|&row| attrs.matches(class, row))
                .map(|row| row as u32)
                .collect();
            let queries: Vec<Vec<f32>> = wanted.iter().map(|&q| self.queries[q].clone()).collect();
            for (q, ids) in wanted.iter().zip(knn_over(self.base, &rows, &queries)) {
                truth[*q] = ids;
            }
        }
        classes
            .iter()
            .zip(truth)
            .enumerate()
            .map(|(query, (&class, truth))| {
                let body = format!(
                    "{{\"query\":{},\"k\":{K},{}}}",
                    vector_json(&self.queries[query]),
                    class.body_tail()
                );
                let mut http = format!(
                    "POST /search HTTP/1.1\r\nhost: gqr-benchmark\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                http.extend_from_slice(body.as_bytes());
                Request {
                    query,
                    class,
                    http,
                    body_bytes: body.len(),
                    truth,
                }
            })
            .collect()
    }
}

/// `[v0,v1,…]` with each component in `f32`'s shortest round-trip form.
fn vector_json(v: &[f32]) -> String {
    let parts: Vec<String> = v.iter().map(f32::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// Exact top-k of each query over the given rows of `data` (the same
/// brute-force scan as the unfiltered truth, restricted), as row ids.
fn knn_over(data: &Dataset, rows: &[u32], queries: &[Vec<f32>]) -> Vec<Vec<u32>> {
    let mut gathered = Vec::with_capacity(rows.len() * data.dim());
    for &row in rows {
        gathered.extend_from_slice(data.row(row as usize));
    }
    let subset = Dataset::new("subset", data.dim(), gathered);
    brute_force_knn(&subset, queries, K, 0)
        .into_iter()
        .map(|local| local.into_iter().map(|i| rows[i as usize]).collect())
        .collect()
}

/// Mean recall of `answers[i]` against `truth[i]`.
pub fn mean_recall<'a>(pairs: impl Iterator<Item = (&'a [u32], &'a [u32])>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (answer, truth) in pairs {
        sum += gqr::eval::metrics::recall(answer, truth);
        n += 1;
    }
    sum / n.max(1) as f64
}
