//! The four workloads: what each serves, and how it is set up. Set-up is
//! product calls only — fixture in memory → first `200` — and is what
//! `setup_s` times.

use crate::client::Conn;
use crate::fixture::{mix_cycle, AttrColumns, Class, Fixture, Request, K};
use gqr::eval::calibrate::calibrate_with_oracle;
use gqr::l2h::HashModel;
use gqr::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of the base set the recall model is calibrated on (held-in). The
/// oracle behind `calibrate_with_oracle` costs ~21 ms per row at this scale,
/// and set-up runs three times per run.
pub const CALIBRATION_ROWS: usize = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GqrBudget,
    HttpLight,
    LiveRw,
    MixSharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GqrBudget,
        Workload::HttpLight,
        Workload::LiveRw,
        Workload::MixSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GqrBudget => "gqr-budget",
            Workload::HttpLight => "http-light",
            Workload::LiveRw => "live-rw",
            Workload::MixSharded => "mix-sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop read clients, each with one keep-alive connection. Never
    /// more load-generating threads than cores: `live-rw` gives one of its
    /// two to the writer.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::LiveRw => 1,
            _ => nproc.clamp(1, 2),
        }
    }

    /// One request per held-out query. Request `i` of client `c` carries
    /// query `(c + i·clients) mod 1000`, so on `mix-sharded` every client
    /// walks the same 20-class cycle and a query always meets the same class.
    pub fn requests(
        self,
        fx: &Fixture,
        attrs: Option<&AttrColumns>,
        clients: usize,
    ) -> Vec<Request> {
        match self {
            Workload::GqrBudget | Workload::LiveRw => fx.requests(|_| Class::Gqr, None),
            Workload::HttpLight => fx.requests(|_| Class::GqrLight, None),
            Workload::MixSharded => {
                let cycle = mix_cycle(fx.seed);
                fx.requests(|q| cycle[(q / clients) % cycle.len()], attrs)
            }
        }
    }
}

/// Benchmark-side timings of the product calls inside one set-up; the
/// per-layer set-up metrics. A call the workload does not make stays 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub train_ms: f64,
    pub table_ms: f64,
    pub attrs_ms: f64,
    pub calibrate_s: f64,
    pub save_ms: f64,
    pub load_ms: f64,
    pub from_snapshot_ms: f64,
    pub snapshot_bytes: f64,
}

/// What the server serves, kept so the layer pass can call the same
/// objects in-process.
#[derive(Clone, Copy)]
pub enum Handles {
    Static(&'static QueryEngine<'static, Itq>),
    /// The index and the model it hashes with (which it does not expose).
    Live(&'static MutableIndex<Itq>, &'static Itq),
    Sharded(
        &'static LoadedIndex,
        &'static ShardedIndex<'static, dyn HashModel>,
    ),
}

impl Handles {
    pub fn index(&self) -> &'static (dyn Index + Sync) {
        match *self {
            Handles::Static(engine) => engine,
            Handles::Live(index, _) => index,
            Handles::Sharded(_, index) => index,
        }
    }
}

pub struct Running {
    pub server: Server,
    pub handles: Handles,
    pub times: SetupTimes,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// `Server::start` needs a `'static` index, so what it serves is leaked;
/// the process serves a handful of indexes and then exits.
fn leak<T>(value: T) -> &'static T {
    Box::leak(Box::new(value))
}

/// Everything from the fixture in memory to the first `200`. `scratch` is
/// where `mix-sharded` writes its snapshot.
pub fn setup(
    workload: Workload,
    fx: &Fixture,
    attrs: Option<&AttrColumns>,
    clients: usize,
    first: &Request,
    scratch: &Path,
) -> Result<Running, String> {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let (data, dim) = (fx.base.as_slice(), fx.dim());

    let t = Instant::now();
    let model = Itq::train(data, dim, fx.code_length).map_err(|e| format!("train: {e}"))?;
    times.train_ms = ms(t);

    let handles = match workload {
        Workload::GqrBudget | Workload::HttpLight => {
            let model = leak(model);
            let t = Instant::now();
            let table: &'static HashTable = leak(HashTable::build(model, data, dim));
            times.table_ms = ms(t);
            Handles::Static(leak(QueryEngine::new(model, table, data, dim)))
        }
        Workload::LiveRw => {
            let t = Instant::now();
            let model = Arc::new(model);
            let index = MutableIndex::build(Arc::clone(&model), data, dim);
            times.table_ms = ms(t);
            let model: &'static Arc<Itq> = leak(model);
            Handles::Live(leak(index), model)
        }
        Workload::MixSharded => {
            let cols = attrs.expect("mix-sharded needs attribute columns");
            let t = Instant::now();
            let sharded = ShardedIndexBuilder::new()
                .shards(2)
                .mih_blocks(2)
                .build(&model, data, dim)
                .map_err(|e| format!("shard build: {e}"))?;
            times.table_ms = ms(t);

            let t = Instant::now();
            let store = AttributeStore::builder(fx.base.n())
                .int_column("tenant", cols.tenant.clone())
                .and_then(|b| b.tag_column("color", cols.color.clone()))
                .map_err(|e| format!("attrs: {e}"))?
                .build();
            times.attrs_ms = ms(t);

            let t = Instant::now();
            let table: HashTable = HashTable::build(&model, data, dim);
            let engine = QueryEngine::new(&model, &table, data, dim);
            let held_in = &data[..CALIBRATION_ROWS.min(fx.base.n()) * dim];
            let recall = calibrate_with_oracle(
                &engine,
                data,
                dim,
                held_in,
                K,
                &[ProbeStrategy::GenerateQdRanking],
            );
            times.calibrate_s = t.elapsed().as_secs_f64();

            let sharded = sharded.with_recall_model(&recall).with_attrs(&store);
            let path = scratch.join(format!("snapshot-{}.gqr", std::process::id()));
            let t = Instant::now();
            let bytes = sharded
                .save_snapshot(&path)
                .map_err(|e| format!("save_snapshot: {e}"))?;
            times.save_ms = ms(t);
            times.snapshot_bytes = bytes as f64;
            drop(sharded);

            let t = Instant::now();
            let loaded = load_index::<u64>(&path);
            times.load_ms = ms(t);
            let _ = std::fs::remove_file(&path);
            let loaded = leak(loaded.map_err(|e| format!("load_index: {e}"))?);
            let t = Instant::now();
            let index = leak(ShardedIndex::from_snapshot(loaded));
            times.from_snapshot_ms = ms(t);
            Handles::Sharded(loaded, index)
        }
    };

    let config = ServerConfig {
        handlers: clients,
        workers: 2,
        default_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = Server::start(handles.index(), config).map_err(|e| format!("start: {e}"))?;
    let answered = Conn::connect(server.addr())
        .map_err(|e| format!("connect: {e}"))?
        .search(&first.http, first.truth.len())
        .is_some();
    times.total_s = started.elapsed().as_secs_f64();
    if !answered {
        server.shutdown();
        return Err("the first request did not get a well-formed 200".into());
    }
    Ok(Running {
        server,
        handles,
        times,
    })
}
