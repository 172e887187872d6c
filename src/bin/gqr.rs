//! `gqr` — command-line ANN search over fvecs files.
//!
//! ```text
//! gqr generate   --preset cifar60k --scale smoke --out data.fvecs
//! gqr train      --data data.fvecs --algo itq --bits 12 --model model.gqr
//! gqr save-index --data data.fvecs --model model.gqr --snapshot index.gqr
//! gqr load-index --snapshot index.gqr --row 5 --k 10
//! gqr load-index --snapshot index.gqr --queries 100 --k 10
//! ```
//!
//! Models and indexes are stored in the checksummed snapshot format of
//! [`gqr::persist`] (a model file is a snapshot with one model section);
//! datasets use the TEXMEX `fvecs` format so real GIST/SIFT files drop in
//! directly.

use gqr::core::attrs::{AttributeStore, Predicate};
use gqr::core::code::CodeWord;
use gqr::core::dispatch::CodeWidth;
use gqr::core::engine::{ProbeStrategy, QueryEngine, SearchParams};
use gqr::core::index::Index;
use gqr::core::live::MutableIndex;
use gqr::core::metrics::MetricsRegistry;
use gqr::core::request::SearchRequest;
use gqr::dataset::{brute_force_knn, io as dsio, Dataset, DatasetSpec, Scale};
use gqr::l2h::isoh::IsoHash;
use gqr::l2h::itq::Itq;
use gqr::l2h::kmh::KmeansHashing;
use gqr::l2h::lsh::Lsh;
use gqr::l2h::pcah::Pcah;
use gqr::l2h::sh::SpectralHashing;
use gqr::l2h::HashModel;
use gqr::persist::{assemble_index, LoadedIndex, SectionKind, SnapshotFile, SnapshotWriter};
use std::collections::HashMap;
use std::process::exit;

/// `println!` through [`say_raw`].
macro_rules! say {
    ($($arg:tt)*) => {
        say_raw(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write `args` to the locked standard output. A reader that closed the
/// pipe early (`gqr … | head -1`) ends the program quietly with status 0;
/// any other write error is reported, with status 1.
fn say_raw(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("error: writing to standard output: {e}");
        exit(1);
    }
}

/// Monomorphize `$body` with `$C` aliased to the [`CodeWord`] type whose
/// capacity is exactly `$bits`: the one runtime width branch of the tool.
/// The enclosing function must return `Result<_, String>`: unsupported
/// widths bail out with an error.
macro_rules! dispatch_bits {
    ($bits:expr, $C:ident, $body:expr) => {
        match CodeWidth::from_bits($bits) {
            Some(CodeWidth::W32) => {
                type $C = u32;
                $body
            }
            Some(CodeWidth::W64) => {
                type $C = u64;
                $body
            }
            Some(CodeWidth::W128) => {
                type $C = u128;
                $body
            }
            Some(CodeWidth::W192) => {
                type $C = gqr::core::code::U192;
                $body
            }
            Some(CodeWidth::W256) => {
                type $C = gqr::core::code::U256;
                $body
            }
            None => {
                return Err(format!(
                    "unsupported code width {} bits (expected 32|64|128|192|256)",
                    $bits
                ))
            }
        }
    };
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit(None);
    }
    let command = args.remove(0);
    let flags = parse_flags(&args);
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "train" => cmd_train(&flags),
        "save-index" => cmd_save_index(&flags),
        "load-index" => cmd_load_index(&flags),
        "calibrate" => cmd_calibrate(&flags),
        "insert" => cmd_insert(&flags),
        "delete" => cmd_delete(&flags),
        "trace-dump" => cmd_trace_dump(&flags),
        "serve" => cmd_serve(&flags),
        "loadgen" => cmd_loadgen(&flags),
        "--help" | "-h" | "help" => {
            usage_and_exit(None);
        }
        other => Err(format!("unknown command '{other}'")),
    };
    if let Err(msg) = result {
        usage_and_exit(Some(&msg));
    }
}

fn usage_and_exit(err: Option<&str>) -> ! {
    if let Some(e) = err {
        eprintln!("error: {e}\n");
    }
    eprintln!(
        "gqr — ANN search with quantization-distance ranking (SIGMOD 2018)\n\
         \n\
         commands:\n\
         \x20 generate --preset NAME --scale smoke|default|paper --out FILE [--seed S]\n\
         \x20 train    --data FILE --algo itq|pcah|sh|kmh|lsh|isohash --bits M --model FILE [--seed S]\n\
         \x20 save-index --data FILE --snapshot FILE (--model FILE | --algo A --bits M [--seed S])\n\
         \x20          [--shards N] [--mih-blocks B] [--width 32|64|128|192|256]\n\
         \x20          [--attrs FILE]   (TSV: header 'name:int\\tname:tag', one row per item)\n\
         \x20 load-index --snapshot FILE --k K (--row I | --queries N)\n\
         \x20          [--strategy gqr|ghr|hr|qr|mih] [--candidates N] [--max-buckets N]\n\
         \x20          [--filter PRED]   (needs a snapshot saved with --attrs; PRED is\n\
         \x20          the wire JSON, e.g. '{{\"op\":\"eq\",\"column\":\"color\",\"value\":\"red\"}}')\n\
         \x20          [--recall-target T] [--recall-margin M]   (adaptive termination;\n\
         \x20          needs a calibrated snapshot, excludes --candidates)\n\
         \x20 calibrate --snapshot FILE --k K --sample N [--quantile Q] [--out FILE]\n\
         \x20          (learns the recall model from N stored rows vs exact ground\n\
         \x20          truth and re-writes the snapshot with it)\n\
         \x20 insert   --snapshot FILE --vector \"x1,x2,...\" [--out FILE] [--compact 1]\n\
         \x20 delete   --snapshot FILE --id N [--out FILE] [--compact 1]\n\
         \x20 trace-dump --snapshot FILE --queries N --k K [--strategy gqr|ghr|hr|qr|mih]\n\
         \x20          [--candidates N] [--sample-every N] [--format jsonl|chrome|slow]\n\
         \x20          [--out FILE]   (chrome output opens in Perfetto / chrome://tracing)\n\
         \x20 serve    --snapshot FILE [--addr HOST:PORT] [--handlers N] [--workers N]\n\
         \x20          [--queue N] [--backlog N] [--timeout-ms T] [--quota-rate R]\n\
         \x20          [--quota-burst B] [--addr-file FILE]   (SIGTERM drains gracefully;\n\
         \x20          --workers: searches running at once, 0 = one per handler;\n\
         \x20          --queue: searches that may wait for one before a 503)\n\
         \x20 loadgen  --addr HOST:PORT --qps Q [--duration-s S] [--warmup-s S]\n\
         \x20          [--senders N] [--k K] [--candidates N] [--query \"x1,x2,...\"]\n\
         \x20          [--dim D] [--client NAME] [--sweep \"q1,q2,...\"] [--out FILE]\n\
         \x20          [--filter PRED]   (sent as the request's \"filter\" field)\n\
         \n\
         presets: cifar60k gist1m tiny5m sift10m sift1m deep1m msong1m glove1.2m\n\
         \x20        glove2.2m audio50k nuswide ukbench1m imagenet2.3m"
    );
    exit(if err.is_some() { 2 } else { 0 });
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage_and_exit(Some(&format!("expected a --flag, got '{flag}'")));
        };
        let Some(value) = it.next() else {
            usage_and_exit(Some(&format!("missing value for --{name}")));
        };
        flags.insert(name.to_string(), value.clone());
    }
    flags
}

fn get<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn get_num<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    get(flags, name)?
        .parse()
        .map_err(|_| format!("bad number for --{name}"))
}

fn preset(name: &str) -> Result<DatasetSpec, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "cifar60k" => DatasetSpec::cifar60k(),
        "gist1m" => DatasetSpec::gist1m(),
        "tiny5m" => DatasetSpec::tiny5m(),
        "sift10m" => DatasetSpec::sift10m(),
        "sift1m" => DatasetSpec::sift1m(),
        "deep1m" => DatasetSpec::deep1m(),
        "msong1m" => DatasetSpec::msong1m(),
        "glove1.2m" => DatasetSpec::glove1_2m(),
        "glove2.2m" => DatasetSpec::glove2_2m(),
        "audio50k" => DatasetSpec::audio50k(),
        "nuswide" => DatasetSpec::nuswide(),
        "ukbench1m" => DatasetSpec::ukbench1m(),
        "imagenet2.3m" => DatasetSpec::imagenet2_3m(),
        other => return Err(format!("unknown preset '{other}'")),
    })
}

fn strategy(name: &str) -> Result<ProbeStrategy, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "gqr" => ProbeStrategy::GenerateQdRanking,
        "qr" => ProbeStrategy::QdRanking,
        "ghr" => ProbeStrategy::GenerateHammingRanking,
        "hr" => ProbeStrategy::HammingRanking,
        other => return Err(format!("unknown strategy '{other}'")),
    })
}

fn load_dataset(flags: &HashMap<String, String>) -> Result<Dataset, String> {
    let path = get(flags, "data")?;
    dsio::read_fvecs(path, path).map_err(|e| format!("reading {path}: {e}"))
}

/// Read the model `gqr train` saved at `--model`.
fn load_model(flags: &HashMap<String, String>) -> Result<Box<dyn HashModel>, String> {
    let path = get(flags, "model")?;
    SnapshotFile::read(std::path::Path::new(path))
        .and_then(|file| file.model())
        .map_err(|e| format!("loading model {path}: {e}"))
}

/// Parse `--filter`: the same op-discriminated JSON the HTTP `"filter"`
/// field accepts, e.g. `{"op":"eq","column":"color","value":"red"}`.
fn parse_filter(flags: &HashMap<String, String>) -> Result<Option<Predicate>, String> {
    let Some(expr) = flags.get("filter") else {
        return Ok(None);
    };
    let json =
        gqr::serve::json::parse(expr.as_bytes()).map_err(|e| format!("bad --filter JSON: {e}"))?;
    gqr::serve::wire::decode_predicate(&json)
        .map(Some)
        .map_err(|e| format!("bad --filter: {e}"))
}

/// `--filter`, validated against the snapshot's attribute store.
fn checked_filter(
    flags: &HashMap<String, String>,
    attrs: Option<&AttributeStore>,
) -> Result<Option<Predicate>, String> {
    let Some(pred) = parse_filter(flags)? else {
        return Ok(None);
    };
    let Some(store) = attrs else {
        return Err("snapshot has no attribute store; re-save with --attrs".into());
    };
    store
        .validate(&pred)
        .map_err(|e| format!("bad --filter: {e}"))?;
    Ok(Some(pred))
}

/// One query of `load-index`, carrying `--filter` when given.
fn request<'q>(
    query: &'q [f32],
    params: SearchParams,
    filter: &Option<Predicate>,
) -> SearchRequest<'q> {
    let req = SearchRequest::new(query).params(params);
    match filter {
        Some(pred) => req.predicate(pred.clone()),
        None => req,
    }
}

/// Exact k-NN of each query over the rows of `ds` that `keep` admits —
/// the contract a filtered search must honor. Rows are returned by
/// position in `ds`.
fn filtered_knn(
    ds: &Dataset,
    queries: &[Vec<f32>],
    k: usize,
    keep: impl Fn(u32) -> bool,
) -> Vec<Vec<u32>> {
    let matching: Vec<u32> = (0..ds.n() as u32).filter(|&row| keep(row)).collect();
    let dim = ds.dim();
    let data = ds.as_slice();
    queries
        .iter()
        .map(|q| {
            let mut scored: Vec<(f32, u32)> = matching
                .iter()
                .map(|&row| {
                    let v = &data[row as usize * dim..(row as usize + 1) * dim];
                    let d: f32 = v.iter().zip(q).map(|(x, y)| (x - y) * (x - y)).sum();
                    (d, row)
                })
                .collect();
            scored.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            scored.into_iter().take(k).map(|(_, row)| row).collect()
        })
        .collect()
}

/// Load a per-item attribute file for `--attrs`: a header line of
/// tab-separated `name:int` / `name:tag` column specs, then one
/// tab-separated value row per item (row i holds item id i's attributes).
fn load_attrs(path: &str, n_items: usize) -> Result<AttributeStore, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| format!("{path}: empty attribute file"))?;
    let mut cols: Vec<(&str, bool)> = Vec::new();
    for spec in header.split('\t') {
        let Some((name, kind)) = spec.rsplit_once(':') else {
            return Err(format!(
                "{path}: header field '{spec}' is not 'name:int' or 'name:tag'"
            ));
        };
        let is_int = match kind {
            "int" => true,
            "tag" => false,
            other => return Err(format!("{path}: unknown column kind '{other}' (int|tag)")),
        };
        cols.push((name, is_int));
    }
    let mut values: Vec<Vec<&str>> = vec![Vec::with_capacity(n_items); cols.len()];
    for (row, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != cols.len() {
            return Err(format!(
                "{path}: row {row} has {} fields, header declares {}",
                fields.len(),
                cols.len()
            ));
        }
        for (col, field) in values.iter_mut().zip(fields) {
            col.push(field);
        }
    }
    if let Some(col) = values.first() {
        if col.len() != n_items {
            return Err(format!(
                "{path}: {} value rows for {n_items} items",
                col.len()
            ));
        }
    }
    let mut builder = AttributeStore::builder(n_items);
    for ((name, is_int), vals) in cols.into_iter().zip(values) {
        builder = if is_int {
            let ints = vals
                .iter()
                .enumerate()
                .map(|(row, v)| {
                    v.trim().parse::<i64>().map_err(|_| {
                        format!("{path}: row {row}, column '{name}': '{v}' is not an integer")
                    })
                })
                .collect::<Result<Vec<i64>, String>>()?;
            builder.int_column(name, ints)
        } else {
            builder.tag_column(name, vals)
        }
        .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(builder.build())
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let spec = preset(get(flags, "preset")?)?;
    let scale = Scale::parse(flags.get("scale").map(String::as_str).unwrap_or("default"))
        .ok_or("bad --scale (smoke|default|paper)")?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(42);
    let out = get(flags, "out")?;
    let spec = spec.scale(scale);
    let ds = spec.generate(seed);
    dsio::write_fvecs(out, &ds).map_err(|e| format!("writing {out}: {e}"))?;
    say!("wrote {} vectors × {} dims to {out}", ds.n(), ds.dim());
    say!(
        "suggested code length (paper's log2(n/10) rule): {}",
        spec.code_length()
    );
    Ok(())
}

fn train_model(
    ds: &Dataset,
    algo: &str,
    bits: usize,
    seed: u64,
) -> Result<Box<dyn HashModel>, String> {
    let (data, dim) = (ds.as_slice(), ds.dim());
    let model: Box<dyn HashModel> = match algo.to_ascii_lowercase().as_str() {
        "itq" => Box::new(Itq::train(data, dim, bits).map_err(|e| e.to_string())?),
        "pcah" => Box::new(Pcah::train(data, dim, bits).map_err(|e| e.to_string())?),
        "sh" => Box::new(SpectralHashing::train(data, dim, bits).map_err(|e| e.to_string())?),
        "kmh" => Box::new(KmeansHashing::train(data, dim, bits).map_err(|e| e.to_string())?),
        "lsh" => Box::new(Lsh::train(data, dim, bits, seed).map_err(|e| e.to_string())?),
        "isohash" => Box::new(IsoHash::train(data, dim, bits).map_err(|e| e.to_string())?),
        other => return Err(format!("unknown algo '{other}'")),
    };
    Ok(model)
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let bits: usize = get_num(flags, "bits")?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(0);
    let start = std::time::Instant::now();
    let model = train_model(&ds, get(flags, "algo")?, bits, seed)?;
    let out = get(flags, "model")?;
    let mut snap = SnapshotWriter::new();
    snap.add_model(&*model)
        .and_then(|()| snap.write(std::path::Path::new(out)))
        .map_err(|e| format!("writing {out}: {e}"))?;
    say!(
        "trained {} ({} bits) on {} × {} in {:?}; model saved to {out}",
        model.name(),
        bits,
        ds.n(),
        ds.dim(),
        start.elapsed()
    );
    Ok(())
}

/// `--max-buckets` with the serving-boundary default: CLI queries always
/// bound bucket probes so a generate strategy over wide codes terminates
/// even when the candidate budget is unreachable.
fn max_buckets_flag(flags: &HashMap<String, String>) -> Result<usize, String> {
    flags
        .get("max-buckets")
        .map(|s| s.parse().map_err(|_| "bad --max-buckets".to_string()))
        .transpose()
        .map(|v| v.unwrap_or(SearchParams::DEFAULT_BUCKET_CAP))
}

/// Build [`SearchParams`] from the snapshot query flags: either a fixed
/// `--candidates` budget (default 1000) or adaptive `--recall-target` /
/// `--recall-margin` termination — never both.
fn snapshot_params(
    flags: &HashMap<String, String>,
    k: usize,
    strat: ProbeStrategy,
) -> Result<SearchParams, String> {
    let max_buckets = max_buckets_flag(flags)?;
    let mut b = SearchParams::for_k(k)
        .strategy(strat)
        .max_buckets(max_buckets);
    if let Some(t) = flags.get("recall-target") {
        if flags.contains_key("candidates") {
            return Err("--recall-target is mutually exclusive with --candidates".into());
        }
        b = b.recall_target(t.parse().map_err(|_| "bad --recall-target")?);
        if let Some(m) = flags.get("recall-margin") {
            b = b.recall_margin(m.parse().map_err(|_| "bad --recall-margin")?);
        }
    } else {
        if flags.contains_key("recall-margin") {
            return Err("--recall-margin requires --recall-target".into());
        }
        let n_candidates: usize = flags
            .get("candidates")
            .map(|s| s.parse().map_err(|_| "bad --candidates"))
            .transpose()?
            .unwrap_or(1_000);
        b = b.candidates(n_candidates);
    }
    b.build()
        .map_err(|e| format!("invalid search parameters: {e}"))
}

/// Human-readable per-query budget for result banners: the fixed candidate
/// count, or the recall target when termination is adaptive.
fn budget_label(params: &SearchParams) -> String {
    match params.recall_target {
        Some(t) => format!("recall-target {}", t.target),
        None => format!("{} candidates", params.n_candidates),
    }
}

fn cmd_save_index(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let model = if flags.contains_key("model") {
        load_model(flags)?
    } else {
        let seed: u64 = flags
            .get("seed")
            .map(|s| s.parse().map_err(|_| "bad --seed"))
            .transpose()?
            .unwrap_or(0);
        train_model(&ds, get(flags, "algo")?, get_num(flags, "bits")?, seed)?
    };
    let shards: usize = flags
        .get("shards")
        .map(|s| s.parse().map_err(|_| "bad --shards"))
        .transpose()?
        .unwrap_or(1);
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let mih_blocks: Option<usize> = flags
        .get("mih-blocks")
        .map(|s| s.parse().map_err(|_| "bad --mih-blocks"))
        .transpose()?;
    let out = get(flags, "snapshot")?;
    let m = model.code_length();
    let width_bits: usize = match flags.get("width") {
        Some(s) => {
            let b: usize = s.parse().map_err(|_| "bad --width")?;
            if CodeWidth::from_bits(b).is_none() {
                return Err(format!(
                    "--width {b} is not a supported code width (32|64|128|192|256)"
                ));
            }
            if b < m {
                return Err(format!(
                    "--width {b} is narrower than the model's {m}-bit codes"
                ));
            }
            b
        }
        // The narrowest width that fits the model, at every shard count.
        None => CodeWidth::narrowest_for(m)
            .ok_or_else(|| format!("model code length {m} exceeds the 256-bit ceiling"))?
            .bits(),
    };
    let attrs = flags
        .get("attrs")
        .map(|p| load_attrs(p, ds.n()))
        .transpose()?;
    let start = std::time::Instant::now();
    let bytes = dispatch_bits!(width_bits, C, {
        let mut engine = QueryEngine::<_, C>::build(&*model, ds.as_slice(), ds.dim(), shards);
        if let Some(b) = mih_blocks {
            engine.enable_mih(b);
        }
        if let Some(store) = &attrs {
            engine.set_attrs(store);
        }
        engine
            .save_snapshot(std::path::Path::new(out))
            .map_err(|e| e.to_string())?
    });
    let attrs_note = match &attrs {
        Some(store) => format!(", {} attribute column(s)", store.n_columns()),
        None => String::new(),
    };
    say!(
        "saved {shards}-shard snapshot of {} × {} ({bytes} bytes, model {}, {width_bits}-bit codes{attrs_note}) to {out} in {:?}",
        ds.n(),
        ds.dim(),
        model.name(),
        start.elapsed()
    );
    Ok(())
}

/// Read and checksum the snapshot once. Returns whether it carries live
/// mutation state (and so loads through [`load_mutable`] rather than
/// [`load_frozen`]) together with the file; branch on
/// [`SnapshotFile::code_width`] to pick the width to load it at.
fn snapshot_kind(path: &str) -> Result<(bool, SnapshotFile), String> {
    let file = SnapshotFile::read(std::path::Path::new(path))
        .map_err(|e| format!("loading {path}: {e}"))?;
    let live = file.sections_of(SectionKind::LiveState).next().is_some();
    Ok((live, file))
}

fn load_mutable<C: CodeWord>(
    file: SnapshotFile,
    path: &str,
    metrics: MetricsRegistry,
) -> Result<MutableIndex<dyn HashModel, C>, String> {
    MutableIndex::from_snapshot_file(&file, metrics).map_err(|e| format!("loading {path}: {e}"))
}

fn load_frozen<C: CodeWord>(file: SnapshotFile, path: &str) -> Result<LoadedIndex<C>, String> {
    assemble_index(&file).map_err(|e| format!("loading {path}: {e}"))
}

/// The MIH block count a frozen snapshot stores, when every shard carries
/// its side index.
fn stored_mih_blocks<C: CodeWord>(loaded: &LoadedIndex<C>) -> Option<usize> {
    let mut mihs = loaded.shards().iter().map(|s| s.mih.as_ref());
    let first = mihs.next()??;
    mihs.all(|m| m.is_some()).then(|| first.n_blocks())
}

/// One change `insert` or `delete` makes to a snapshot.
enum Mutation {
    Insert(Vec<f32>),
    Delete(u32),
}

fn cmd_insert(flags: &HashMap<String, String>) -> Result<(), String> {
    let vector: Vec<f32> = get(flags, "vector")?
        .split(',')
        .map(|s| {
            // `NaN`, `inf` and out-of-range values such as `1e39` parse, but
            // no finite row holds them.
            let x = s.trim().parse::<f32>().ok().filter(|x| x.is_finite());
            x.ok_or_else(|| format!("bad component '{}' in --vector", s.trim()))
        })
        .collect::<Result<_, _>>()?;
    mutate_snapshot(flags, Mutation::Insert(vector))
}

fn cmd_delete(flags: &HashMap<String, String>) -> Result<(), String> {
    mutate_snapshot(flags, Mutation::Delete(get_num(flags, "id")?))
}

/// `insert` and `delete`: load the snapshot as a live index, apply the
/// change, compact when `--compact` is given, save to `--out` (default: in
/// place), and report the new generation.
fn mutate_snapshot(flags: &HashMap<String, String>, change: Mutation) -> Result<(), String> {
    let path = get(flags, "snapshot")?;
    let (_, file) = snapshot_kind(path)?;
    dispatch_bits!(file.code_width(), C, {
        let index = load_mutable::<C>(file, path, MetricsRegistry::disabled())?;
        let done = match change {
            Mutation::Insert(vector) => {
                if vector.len() != index.dim() {
                    return Err(format!(
                        "--vector has {} components, index expects {}",
                        vector.len(),
                        index.dim()
                    ));
                }
                format!("inserted id {}", index.writer().insert(&vector))
            }
            Mutation::Delete(id) => {
                if !index.writer().delete(id) {
                    return Err(format!("id {id} is not live in {path}"));
                }
                format!("deleted id {id}")
            }
        };
        if flags.contains_key("compact") {
            index.compact();
        }
        let out = flags.get("out").map(String::as_str).unwrap_or(path);
        let bytes = index
            .save_snapshot(std::path::Path::new(out))
            .map_err(|e| e.to_string())?;
        let gen = index.pin();
        say!(
            "{done}: epoch {}, {} live rows ({} delta, {} tombstones); wrote {bytes} bytes to {out}",
            gen.epoch(),
            gen.n_live(),
            gen.delta_rows(),
            gen.n_tombstones()
        );
        Ok(())
    })
}

fn cmd_load_index(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = get(flags, "snapshot")?;
    let start = std::time::Instant::now();
    let (live, file) = snapshot_kind(path)?;
    dispatch_bits!(file.code_width(), C, {
        if live {
            let index = load_mutable::<C>(file, path, MetricsRegistry::disabled())?;
            let gen = index.pin();
            say!(
                "loaded live index: {} rows × {} dims (epoch {}, {} delta, {} tombstones, {}-bit codes) from {path} in {:?}",
                gen.n_live(),
                index.dim(),
                gen.epoch(),
                gen.delta_rows(),
                gen.n_tombstones(),
                C::BITS,
                start.elapsed()
            );
            let mut ids = gen.live_ids();
            ids.sort_unstable();
            let rows: Vec<f32> = ids
                .iter()
                .flat_map(|&id| index.vector(id).expect("live id has a vector"))
                .collect();
            let recall = index.recall_model().is_some();
            return run_queries(&index, &rows, &ids, index.mih_blocks(), recall, flags);
        }
        let loaded = load_frozen::<C>(file, path)?;
        say!(
            "loaded {} items × {} dims ({} shard(s), model {}, {}-bit codes) from {path} in {:?}",
            loaded.n_items(),
            loaded.dim(),
            loaded.shards().len(),
            loaded.model().name(),
            C::BITS,
            start.elapsed()
        );
        let ids: Vec<u32> = (0..loaded.n_items() as u32).collect();
        let (mih, recall) = (stored_mih_blocks(&loaded), loaded.recall_model().is_some());
        let engine = QueryEngine::from_snapshot(&loaded);
        run_queries(&engine, loaded.data(), &ids, mih, recall, flags)
    })
}

/// `--strategy` (default GQR). MIH searches the stored side indexes, whose
/// block count `mih_blocks` is baked in.
fn flag_strategy(
    flags: &HashMap<String, String>,
    mih_blocks: Option<usize>,
) -> Result<ProbeStrategy, String> {
    let name = flags.get("strategy").map(String::as_str).unwrap_or("gqr");
    if !name.eq_ignore_ascii_case("mih") {
        return strategy(name);
    }
    let blocks = mih_blocks.ok_or("snapshot has no MIH sections; re-save with --mih-blocks")?;
    Ok(ProbeStrategy::MultiIndexHashing { blocks })
}

/// The query half of `load-index`, over a frozen or a live snapshot alike:
/// `rows` (row-major, `index.dim()` columns) are the stored vectors of
/// `ids`, ascending — the identity on a frozen snapshot, the live ids on a
/// live one. `--row` names an id; `--queries` samples rows and scores the
/// answers against exact k-NN over them.
fn run_queries(
    index: &dyn Index,
    rows: &[f32],
    ids: &[u32],
    mih_blocks: Option<usize>,
    has_recall_model: bool,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    let k: usize = get_num(flags, "k")?;
    let strat = flag_strategy(flags, mih_blocks)?;
    let params = snapshot_params(flags, k, strat)?;
    if params.recall_target.is_some() && !has_recall_model {
        return Err("snapshot has no recall model; run `gqr calibrate` first".into());
    }
    let filter = checked_filter(flags, index.attrs())?;
    let dim = index.dim();

    if let Some(id) = flags.get("row") {
        let id: u32 = id.parse().map_err(|_| "bad --row")?;
        let Ok(row) = ids.binary_search(&id) else {
            return Err(format!("--row {id} is not a live id (n = {})", ids.len()));
        };
        let query = &rows[row * dim..(row + 1) * dim];
        let start = std::time::Instant::now();
        let res = index.run(request(query, params, &filter));
        say!(
            "{} nearest neighbors of row {id} ({} in {:?}, {} buckets probed, {} items evaluated):",
            k,
            strat.name(),
            start.elapsed(),
            res.stats.buckets_probed,
            res.stats.items_evaluated
        );
        if let Some(p) = res.predicted_recall {
            say!("  predicted recall {p:.3}");
        }
        for (id, dist) in res.neighbors() {
            say!("  #{id:<8} sq-dist {dist:.5}");
        }
        return Ok(());
    }

    let n_queries: usize = get_num(flags, "queries")?;
    let ds = Dataset::new("snapshot", dim, rows.to_vec());
    let queries = ds.sample_queries(n_queries, 7);
    let truth = match &filter {
        Some(pred) => {
            let store = index.attrs().expect("validated above");
            filtered_knn(&ds, &queries, k, |row| {
                store.matches(pred, ids[row as usize])
            })
        }
        None => brute_force_knn(&ds, &queries, k, 0),
    };
    let start = std::time::Instant::now();
    let mut found = 0usize;
    let mut probed = 0usize;
    for (q, t) in queries.iter().zip(&truth) {
        let res = index.run(request(q, params, &filter));
        probed += res.stats.buckets_probed;
        found += res
            .ids
            .iter()
            .filter(|&&id| t.iter().any(|&row| ids[row as usize] == id))
            .count();
    }
    say!(
        "{:<9} recall@{k} {:.3}   {:?} total ({}/query, {n_queries} queries, {:.1} buckets/query)",
        strat.name(),
        found as f64 / (k * queries.len()) as f64,
        start.elapsed(),
        budget_label(&params),
        probed as f64 / queries.len().max(1) as f64
    );
    Ok(())
}

/// `calibrate`: learn a recall model for a frozen snapshot from a sample of
/// stored rows against exact ground truth, and re-write the snapshot with
/// the model attached. A search walks the same trajectory whatever the
/// shard count, so a sharded snapshot gets the model its one-shard twin
/// would.
fn cmd_calibrate(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = get(flags, "snapshot")?;
    let (live, file) = snapshot_kind(path)?;
    if live {
        return Err(
            "calibrate reads frozen snapshots; compact the live index into one first".into(),
        );
    }
    dispatch_bits!(file.code_width(), C, {
        run_calibrate(&load_frozen::<C>(file, path)?, path, flags)
    })
}

fn run_calibrate<C: CodeWord>(
    loaded: &LoadedIndex<C>,
    path: &str,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    use gqr::core::recall::Calibrator;
    use gqr::eval::exact_knn_batch;

    let k: usize = get_num(flags, "k")?;
    let sample: usize = get_num(flags, "sample")?;
    if k == 0 || sample == 0 {
        return Err("--k and --sample must be positive".into());
    }
    let quantile: Option<f32> = flags
        .get("quantile")
        .map(|s| s.parse().map_err(|_| "bad --quantile"))
        .transpose()?;

    let mut engine = QueryEngine::from_snapshot(loaded);
    let dim = loaded.dim();
    let ds = Dataset::new("snapshot", dim, loaded.data().to_vec());
    let sample_rows = ds.sample_queries(sample, 7);
    let queries: Vec<f32> = sample_rows.iter().flat_map(|q| q.iter().copied()).collect();
    let ground_truth = exact_knn_batch(loaded.data(), dim, &sample_rows, k);

    let mut strategies = vec![
        ProbeStrategy::GenerateQdRanking,
        ProbeStrategy::GenerateHammingRanking,
        ProbeStrategy::HammingRanking,
        ProbeStrategy::QdRanking,
    ];
    if let Some(blocks) = stored_mih_blocks(loaded) {
        strategies.push(ProbeStrategy::MultiIndexHashing { blocks });
    }

    let start = std::time::Instant::now();
    let mut calibrator = Calibrator::new(k);
    if let Some(q) = quantile {
        if !(0.0..=0.5).contains(&q) {
            return Err("--quantile must be in [0, 0.5]".into());
        }
        calibrator = calibrator.quantile(q);
    }
    for &strat in &strategies {
        calibrator.observe(&engine, strat, &queries, &ground_truth);
    }
    let model = calibrator.finalize();
    let covered = model.calibrated_strategies().join(", ");

    engine.set_recall_model(&model);
    let out = flags.get("out").map(String::as_str).unwrap_or(path);
    let bytes = engine
        .save_snapshot(std::path::Path::new(out))
        .map_err(|e| e.to_string())?;
    say!(
        "calibrated recall@{k} over {} sample queries ({covered}) in {:?}; wrote {bytes} bytes to {out}",
        sample_rows.len(),
        start.elapsed()
    );
    Ok(())
}

/// `trace-dump`: load a snapshot, run sampled queries with tracing enabled,
/// and print (or write) the captured traces in the requested format.
fn cmd_trace_dump(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = get(flags, "snapshot")?;
    let (live, file) = snapshot_kind(path)?;
    if live {
        return Err(
            "trace-dump reads frozen snapshots; compact the live index into one first".into(),
        );
    }
    dispatch_bits!(file.code_width(), C, {
        run_trace_dump(&load_frozen::<C>(file, path)?, flags)
    })
}

fn run_trace_dump<C: CodeWord>(
    loaded: &LoadedIndex<C>,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    use gqr::core::metrics::{to_chrome_trace, TraceConfig};

    let k: usize = get_num(flags, "k")?;
    let n_queries: usize = get_num(flags, "queries")?;
    let n_candidates: usize = flags
        .get("candidates")
        .map(|s| s.parse().map_err(|_| "bad --candidates"))
        .transpose()?
        .unwrap_or(1_000);
    let max_buckets = max_buckets_flag(flags)?;
    let sample_every: u64 = flags
        .get("sample-every")
        .map(|s| s.parse().map_err(|_| "bad --sample-every"))
        .transpose()?
        .unwrap_or(1);
    let format = flags.get("format").map(String::as_str).unwrap_or("jsonl");
    let strat = flag_strategy(flags, stored_mih_blocks(loaded))?;
    let params = SearchParams::for_k(k)
        .candidates(n_candidates)
        .strategy(strat)
        .max_buckets(max_buckets)
        .build()
        .map_err(|e| format!("invalid search parameters: {e}"))?;

    let metrics = MetricsRegistry::enabled();
    let tracing = metrics
        .enable_tracing(TraceConfig {
            sample_every,
            capacity: n_queries.max(16),
            ..TraceConfig::default()
        })
        .expect("enabled registry accepts tracing");
    let engine = QueryEngine::from_snapshot(loaded).with_metrics(metrics.clone());

    let ds = Dataset::new("snapshot", loaded.dim(), loaded.data().to_vec());
    let queries = ds.sample_queries(n_queries, 7);
    for q in &queries {
        engine.run(SearchRequest::new(q).params(params));
    }

    let store = tracing.store();
    let output = match format {
        "jsonl" => store.to_json_lines(),
        "chrome" => to_chrome_trace(&store.all()),
        "slow" => store.slow_log(),
        other => return Err(format!("unknown --format '{other}' (jsonl|chrome|slow)")),
    };
    match flags.get("out") {
        Some(out) => {
            std::fs::write(out, &output).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!(
                "wrote {} trace(s) from {n_queries} queries ({} sampled 1-in-{sample_every}) to {out} [{format}]",
                store.all().len(),
                tracing.queries_seen(),
            );
        }
        None => say_raw(format_args!("{output}")),
    }
    Ok(())
}

/// SIGTERM/SIGINT flag for `gqr serve` graceful drain. Raw FFI keeps the
/// workspace free of a libc dependency; `signal(2)` with a plain function
/// pointer is async-signal-safe for a store into an atomic.
static SHUTDOWN_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_sig: i32) {
    SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

fn install_drain_signals() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
        signal(SIGINT, on_shutdown_signal as *const () as usize);
    }
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use gqr::serve::server::{Server, ServerConfig};
    use gqr::serve::QuotaConfig;

    let path = get(flags, "snapshot")?;
    let mut config = ServerConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8080".to_string()),
        ..ServerConfig::default()
    };
    if let Some(n) = flags.get("handlers") {
        config.handlers = n.parse().map_err(|_| "bad --handlers")?;
    }
    if let Some(n) = flags.get("workers") {
        config.workers = n.parse().map_err(|_| "bad --workers")?;
    }
    if let Some(n) = flags.get("queue") {
        config.queue_capacity = n.parse().map_err(|_| "bad --queue")?;
    }
    if let Some(n) = flags.get("backlog") {
        config.backlog = n.parse().map_err(|_| "bad --backlog")?;
    }
    if let Some(ms) = flags.get("timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --timeout-ms")?;
        config.default_timeout = std::time::Duration::from_millis(ms);
    }
    match (flags.get("quota-rate"), flags.get("quota-burst")) {
        (None, None) => {}
        (rate, burst) => {
            let rate: f64 = rate
                .map(|s| s.parse().map_err(|_| "bad --quota-rate"))
                .transpose()?
                .unwrap_or(100.0);
            let burst: f64 = burst
                .map(|s| s.parse().map_err(|_| "bad --quota-burst"))
                .transpose()?
                .unwrap_or(rate.max(1.0));
            config.quota =
                Some(QuotaConfig::new(rate, burst).ok_or("quota rate/burst must be positive")?);
        }
    }

    // Servers run until signalled, so the index may as well live for the
    // process: leak it to get the 'static borrow the handler pool needs.
    let metrics = MetricsRegistry::enabled();
    let (live, file) = snapshot_kind(path)?;
    let index: &'static (dyn Index + Sync) = dispatch_bits!(file.code_width(), C, {
        if live {
            let index = load_mutable::<C>(file, path, metrics)?;
            say!(
                "serving live snapshot {path}: {} items, epoch {}, {}-bit codes",
                index.n_items(),
                index.epoch(),
                C::BITS
            );
            Box::leak(Box::new(index)) as &'static (dyn Index + Sync)
        } else {
            let loaded = &*Box::leak(Box::new(load_frozen::<C>(file, path)?));
            say!(
                "serving snapshot {path}: {} items × {} dims, {} shard(s), model {}, {}-bit codes",
                loaded.n_items(),
                loaded.dim(),
                loaded.shards().len(),
                loaded.model().name(),
                C::BITS
            );
            Box::leak(Box::new(
                QueryEngine::from_snapshot(loaded).with_metrics(metrics),
            ))
        }
    });

    install_drain_signals();
    let server = Server::start(index, config).map_err(|e| format!("starting server: {e}"))?;
    say!("listening on http://{}", server.addr());
    if let Some(addr_file) = flags.get("addr-file") {
        std::fs::write(addr_file, server.addr().to_string())
            .map_err(|e| format!("writing {addr_file}: {e}"))?;
    }
    while !SHUTDOWN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    say!("draining...");
    let report = server.shutdown();
    say!(
        "drained: {} served, {} shed, {} in flight at drain (all completed)",
        report.served,
        report.shed,
        report.inflight_at_drain
    );
    Ok(())
}

fn cmd_loadgen(flags: &HashMap<String, String>) -> Result<(), String> {
    use gqr::serve::json::Json;
    use gqr::serve::loadgen::{self, LoadgenConfig};

    let addr = get(flags, "addr")?.to_string();
    let k: usize = flags
        .get("k")
        .map(|s| s.parse().map_err(|_| "bad --k"))
        .transpose()?
        .unwrap_or(10);
    let candidates: usize = flags
        .get("candidates")
        .map(|s| s.parse().map_err(|_| "bad --candidates"))
        .transpose()?
        .unwrap_or(1_000);
    let query: Vec<f32> = match (flags.get("query"), flags.get("dim")) {
        (Some(csv), _) => csv
            .split(',')
            .map(|x| x.trim().parse().map_err(|_| "bad --query"))
            .collect::<Result<_, _>>()?,
        (None, Some(dim)) => {
            let dim: usize = dim.parse().map_err(|_| "bad --dim")?;
            (0..dim).map(|i| (i as f32 * 0.37).sin()).collect()
        }
        (None, None) => return Err("need --query or --dim".into()),
    };
    let filter_field = match parse_filter(flags)? {
        Some(pred) => format!(",\"filter\":{}", gqr::serve::wire::encode_predicate(&pred)),
        None => String::new(),
    };
    let body = format!(
        "{{\"query\":[{}],\"k\":{k},\"candidates\":{candidates}{filter_field}}}",
        query
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let base = LoadgenConfig {
        addr,
        qps: flags
            .get("qps")
            .map(|s| s.parse().map_err(|_| "bad --qps"))
            .transpose()?
            .unwrap_or(100.0),
        duration: std::time::Duration::from_secs_f64(
            flags
                .get("duration-s")
                .map(|s| s.parse().map_err(|_| "bad --duration-s"))
                .transpose()?
                .unwrap_or(2.0),
        ),
        warmup: std::time::Duration::from_secs_f64(
            flags
                .get("warmup-s")
                .map(|s| s.parse().map_err(|_| "bad --warmup-s"))
                .transpose()?
                .unwrap_or(0.25),
        ),
        senders: flags
            .get("senders")
            .map(|s| s.parse().map_err(|_| "bad --senders"))
            .transpose()?
            .unwrap_or(4),
        body,
        client: flags.get("client").cloned(),
        ..LoadgenConfig::default()
    };

    let reports = match flags.get("sweep") {
        Some(csv) => {
            let steps: Vec<f64> = csv
                .split(',')
                .map(|x| x.trim().parse().map_err(|_| "bad --sweep"))
                .collect::<Result<_, _>>()?;
            loadgen::sweep(&base, &steps)
        }
        None => vec![loadgen::run(&base)],
    };

    for r in &reports {
        say!(
            "qps {:>8.1} target | offered {:>6} ok {:>6} shed {:>5} err {:>3} | p50 {:>7}us p99 {:>8}us p999 {:>8}us",
            r.target_qps, r.offered, r.completed, r.shed, r.errors, r.p50_us, r.p99_us, r.p999_us
        );
    }

    if let Some(out) = flags.get("out") {
        let doc = Json::Obj(vec![
            ("bench".into(), Json::Str("serving".into())),
            (
                "steps".into(),
                Json::Arr(reports.iter().map(|r| r.to_json()).collect()),
            ),
        ]);
        if let Some(parent) = std::path::Path::new(out).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(out, doc.to_string()).map_err(|e| format!("writing {out}: {e}"))?;
        say!("wrote {out}");
    }
    Ok(())
}
