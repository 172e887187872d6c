//! End-to-end test of the `gqr` command-line tool in a temp directory:
//! generate → train → save-index --model → load-index through model and
//! index snapshots, and generate → save-index → load-index with inline
//! training.

mod common;

use common::tmpdir;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gqr"))
}

/// Run `cmd`, assert it succeeded, and return its stdout.
fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{cmd:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// `generate` the audio50k smoke preset into `dir/d.fvecs`.
fn generate(dir: &Path, seed: &str) -> PathBuf {
    let data = dir.join("d.fvecs");
    run_ok(
        bin()
            .args(["generate", "--preset", "audio50k", "--scale", "smoke"])
            .args(["--out", path(&data), "--seed", seed]),
    );
    data
}

/// `train --model` into `dir/<name>`.
fn train(data: &Path, dir: &Path, name: &str, algo: &str, bits: &str) -> PathBuf {
    let model = dir.join(name);
    let text = run_ok(
        bin()
            .args(["train", "--data", path(data), "--algo", algo])
            .args(["--bits", bits])
            .args(["--seed", "3", "--model", path(&model)]),
    );
    assert!(text.contains("model saved to"), "{text}");
    model
}

/// generate → train → save-index --model: the snapshot `load-index` reads.
fn trained_snapshot(dir: &Path) -> PathBuf {
    let data = generate(dir, "5");
    let model = train(&data, dir, "m.gqr", "pcah", "8");
    let snap = dir.join("index.gqr");
    run_ok(
        bin()
            .args(["save-index", "--data", path(&data), "--model", path(&model)])
            .args(["--snapshot", path(&snap)]),
    );
    snap
}

#[test]
fn full_pipeline_works() {
    let dir = tmpdir("pipeline");
    let snap = trained_snapshot(&dir);
    for strategy in ["gqr", "ghr", "hr", "qr"] {
        let load = || {
            let mut cmd = bin();
            cmd.args(["load-index", "--snapshot", path(&snap)])
                .args(["--strategy", strategy]);
            cmd
        };
        let text = run_ok(load().args(["--row", "3", "--k", "4"]));
        assert!(
            text.contains("#3"),
            "{strategy}: the row itself must be its own nearest neighbor:\n{text}"
        );
        let text = run_ok(load().args(["--queries", "10", "--k", "5"]));
        let summary = format!("{:<9} recall@5", strategy.to_uppercase());
        assert!(
            text.lines().any(|l| l.starts_with(&summary)),
            "{strategy}: eval summary missing:\n{text}"
        );
    }
}

/// A model saved by `train` indexes exactly like training inline: every
/// trainer's `save-index --model` output is byte-identical to
/// `save-index --algo` with the same seed.
#[test]
fn model_file_matches_inline_training() {
    let dir = tmpdir("model_file");
    let data = generate(&dir, "3");
    for (algo, shards) in [
        ("itq", "2"),
        ("pcah", "1"),
        ("sh", "1"),
        ("kmh", "1"),
        ("lsh", "1"),
        ("isohash", "1"),
    ] {
        let model = train(&data, &dir, &format!("{algo}.model"), algo, "10");
        let from_model = dir.join(format!("{algo}-model.gqr"));
        let inline = dir.join(format!("{algo}-inline.gqr"));
        run_ok(
            bin()
                .args(["save-index", "--data", path(&data), "--model", path(&model)])
                .args(["--shards", shards, "--snapshot", path(&from_model)]),
        );
        run_ok(
            bin()
                .args([
                    "save-index",
                    "--data",
                    path(&data),
                    "--snapshot",
                    path(&inline),
                ])
                .args([
                    "--algo", algo, "--bits", "10", "--seed", "3", "--shards", shards,
                ]),
        );
        assert!(
            std::fs::read(&from_model).unwrap() == std::fs::read(&inline).unwrap(),
            "{algo} ({shards} shard(s)): the saved model indexes differently"
        );
    }
}

/// `save-index --model` on a file that is not a model snapshot fails with
/// a typed error that names the file; it never panics.
#[test]
fn save_index_rejects_bad_model_file() {
    let dir = tmpdir("bad_model");
    let data = generate(&dir, "4");
    let model = train(&data, &dir, "m.gqr", "itq", "8");
    let bytes = std::fs::read(&model).unwrap();
    let truncated = dir.join("truncated.gqr");
    std::fs::write(&truncated, &bytes[..bytes.len() - 7]).unwrap();

    for (file, why) in [(&data, "bad magic"), (&truncated, "truncated")] {
        let out = bin()
            .args(["save-index", "--data", path(&data), "--model", path(file)])
            .args(["--snapshot", path(&dir.join("x.gqr"))])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(err.contains(path(file)), "error must name the file: {err}");
        assert!(err.contains(why), "expected {why:?}: {err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

/// `insert` refuses a non-finite `--vector` component before touching the
/// snapshot: exit 2, the component named, the file byte for byte unchanged.
#[test]
fn insert_rejects_non_finite_components() {
    let dir = tmpdir("insert_non_finite");
    let snap = trained_snapshot(&dir);
    let before = std::fs::read(&snap).unwrap();
    for bad in ["NaN", "inf", "-inf", "1e39"] {
        let out = bin()
            .args(["insert", "--snapshot", path(&snap)])
            .args(["--vector", &format!("0.5,{bad},1.0")])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {err}");
        assert!(err.contains(&format!("bad component '{bad}'")), "{err}");
        assert_eq!(
            std::fs::read(&snap).unwrap(),
            before,
            "{bad} changed the file"
        );
    }
}

#[test]
fn snapshot_pipeline_works() {
    let dir = tmpdir("snapshot_pipeline");
    let data = dir.join("d.fvecs");
    let snap = dir.join("index.gqr");

    let out = bin()
        .args(["generate", "--preset", "audio50k", "--scale", "smoke"])
        .args(["--out", data.to_str().unwrap(), "--seed", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Train inline and persist everything as one binary snapshot,
    // including a prebuilt MIH.
    let out = bin()
        .args(["save-index", "--data", data.to_str().unwrap()])
        .args(["--algo", "pcah", "--bits", "8", "--mih-blocks", "2"])
        .args(["--snapshot", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "save-index failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(snap.exists());

    // Single-query mode: the row itself must be its own nearest neighbor.
    let out = bin()
        .args(["load-index", "--snapshot", snap.to_str().unwrap()])
        .args(["--row", "3", "--k", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "load-index query failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("loaded"), "load summary missing:\n{text}");
    assert!(
        text.contains("#3"),
        "the row itself must be its own nearest neighbor:\n{text}"
    );

    // Eval mode via the prebuilt MIH from the snapshot.
    let out = bin()
        .args(["load-index", "--snapshot", snap.to_str().unwrap()])
        .args(["--queries", "10", "--k", "5", "--strategy", "mih"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "load-index eval failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recall@5"), "eval summary missing:\n{text}");
}

#[test]
fn sharded_snapshot_pipeline_works() {
    let dir = tmpdir("snapshot_sharded");
    let data = dir.join("d.fvecs");
    let snap = dir.join("sharded.gqr");

    assert!(bin()
        .args(["generate", "--preset", "audio50k", "--scale", "smoke"])
        .args(["--out", data.to_str().unwrap(), "--seed", "6"])
        .output()
        .unwrap()
        .status
        .success());
    let out = bin()
        .args(["save-index", "--data", data.to_str().unwrap()])
        .args(["--algo", "itq", "--bits", "8", "--shards", "3"])
        .args(["--snapshot", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "sharded save-index failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args(["load-index", "--snapshot", snap.to_str().unwrap()])
        .args(["--row", "0", "--k", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "sharded load-index failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 shard"), "shard count missing:\n{text}");
    assert!(text.contains("#0"), "row 0 must be its own 1-NN:\n{text}");
}

#[test]
fn load_index_rejects_corrupted_snapshot() {
    let dir = tmpdir("snapshot_corrupt_cli");
    let data = dir.join("d.fvecs");
    let snap = dir.join("index.gqr");

    assert!(bin()
        .args(["generate", "--preset", "audio50k", "--scale", "smoke"])
        .args(["--out", data.to_str().unwrap(), "--seed", "7"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(bin()
        .args(["save-index", "--data", data.to_str().unwrap()])
        .args(["--algo", "pcah", "--bits", "8"])
        .args(["--snapshot", snap.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());

    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&snap, &bytes).unwrap();

    let out = bin()
        .args(["load-index", "--snapshot", snap.to_str().unwrap()])
        .args(["--row", "0", "--k", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "corrupted snapshot must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("checksum") || err.contains("corrupt") || err.contains("truncated"),
        "error should explain the corruption: {err}"
    );
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("commands:"), "usage must be printed");
}

#[test]
fn missing_flag_reports_which() {
    let out = bin().args(["train", "--algo", "itq"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--data"), "must name the missing flag: {err}");
}

#[test]
fn bad_strategy_rejected() {
    let dir = tmpdir("badstrat");
    let snap = trained_snapshot(&dir);
    let out = bin()
        .args([
            "load-index",
            "--snapshot",
            path(&snap),
            "--row",
            "0",
            "--k",
            "2",
        ])
        .args(["--strategy", "warp"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));
}

/// Full hybrid-search path: save a snapshot with an attribute store from a
/// TSV, query it filtered from the CLI, then serve it and send a filtered
/// search over HTTP — every returned id must satisfy the predicate.
#[test]
fn filtered_snapshot_pipeline_works() {
    use std::io::{Read, Write};

    let dir = tmpdir("filtered_pipeline");
    let data = dir.join("d.fvecs");
    let attrs = dir.join("attrs.tsv");
    let snap = dir.join("index.gqr");
    let addr_file = dir.join("addr.txt");

    let out = bin()
        .args(["generate", "--preset", "audio50k", "--scale", "smoke"])
        .args(["--out", data.to_str().unwrap(), "--seed", "9"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // "wrote N vectors × D dims to ..." — the attrs file needs one row per item.
    let text = String::from_utf8_lossy(&out.stdout);
    let n: usize = text
        .split_whitespace()
        .nth(1)
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("cannot parse item count from: {text}"));

    let mut tsv = String::from("parity:tag\tidx:int\n");
    for i in 0..n {
        let parity = if i % 2 == 0 { "even" } else { "odd" };
        tsv.push_str(&format!("{parity}\t{i}\n"));
    }
    std::fs::write(&attrs, tsv).unwrap();

    let out = bin()
        .args(["save-index", "--data", data.to_str().unwrap()])
        .args(["--algo", "pcah", "--bits", "8"])
        .args(["--attrs", attrs.to_str().unwrap()])
        .args(["--snapshot", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "save-index --attrs failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("2 attribute column(s)"),
        "save-index must report the attribute columns:\n{text}"
    );

    // CLI filtered query: every neighbor of row 3 must be an even id.
    let out = bin()
        .args(["load-index", "--snapshot", snap.to_str().unwrap()])
        .args(["--row", "3", "--k", "5", "--candidates", "500"])
        .args([
            "--filter",
            r#"{"op":"eq","column":"parity","value":"even"}"#,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "filtered load-index failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let ids = neighbor_ids(&text);
    assert!(!ids.is_empty(), "no neighbors printed:\n{text}");
    assert!(
        ids.iter().all(|id| id % 2 == 0),
        "a filtered query leaked odd ids: {ids:?}\n{text}"
    );

    // A predicate naming a column the store lacks is rejected up front.
    let out = bin()
        .args(["load-index", "--snapshot", snap.to_str().unwrap()])
        .args(["--row", "3", "--k", "5"])
        .args(["--filter", r#"{"op":"eq","column":"nope","value":1}"#])
        .output()
        .unwrap();
    assert!(!out.status.success(), "unknown column must be rejected");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown column"),
        "error should name the schema violation"
    );

    // Serve the same snapshot and run the filtered search over HTTP.
    let mut child = bin()
        .args(["serve", "--snapshot", snap.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0"])
        .args(["--addr-file", addr_file.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&addr_file) {
            if !s.trim().is_empty() {
                break s.trim().to_string();
            }
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("server never wrote its address file");
        }
        if let Some(status) = child.try_wait().unwrap() {
            let mut err = String::new();
            if let Some(mut e) = child.stderr.take() {
                let _ = e.read_to_string(&mut err);
            }
            panic!("server exited early ({status}): {err}");
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    };

    let query: Vec<String> = (0..16).map(|i| format!("{}.25", i % 5)).collect();
    let filter = format!(
        r#"{{"op":"and","args":[{{"op":"eq","column":"parity","value":"even"}},{{"op":"range","column":"idx","max":{}}}]}}"#,
        n / 2
    );
    let body = format!(
        "{{\"query\":[{}],\"k\":5,\"candidates\":500,\"strategy\":\"HR\",\"filter\":{filter}}}",
        query.join(",")
    );
    let raw = format!(
        "POST /search HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let _ = child.kill();
    let _ = child.wait();

    let text = String::from_utf8_lossy(&response);
    let (head, resp_body) = text.split_once("\r\n\r\n").unwrap_or((&*text, ""));
    assert!(
        head.contains("200"),
        "filtered search over HTTP must succeed:\n{text}"
    );
    let doc = gqr::serve::json::parse(resp_body.as_bytes()).unwrap();
    let ids: Vec<u64> = doc
        .get("ids")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert!(
        !ids.is_empty(),
        "filtered search returned no ids:\n{resp_body}"
    );
    assert!(
        ids.iter().all(|&id| id % 2 == 0 && id <= n as u64 / 2),
        "HTTP results must satisfy the predicate: {ids:?}"
    );
}

#[test]
fn wide_snapshot_serves_over_http() {
    use std::io::{Read, Write};

    let dir = tmpdir("wide_serve");
    let data = dir.join("d.fvecs");
    let snap = dir.join("index128.gqr");
    let addr_file = dir.join("addr.txt");

    let out = bin()
        .args(["generate", "--preset", "audio50k", "--scale", "smoke"])
        .args(["--out", data.to_str().unwrap(), "--seed", "7"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 128 bits exceeds the old u64 ceiling; save-index must auto-pick a
    // wide code word and say so.
    let out = bin()
        .args(["save-index", "--data", data.to_str().unwrap()])
        .args(["--algo", "lsh", "--bits", "128"])
        .args(["--snapshot", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "save-index failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("128-bit codes"),
        "save-index must report the code width:\n{text}"
    );

    // Serve it on an ephemeral port; the width travels through the
    // load-dispatch layer, invisible to the HTTP wire format.
    let mut child = bin()
        .args(["serve", "--snapshot", snap.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0"])
        .args(["--addr-file", addr_file.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&addr_file) {
            if !s.trim().is_empty() {
                break s.trim().to_string();
            }
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("server never wrote its address file");
        }
        if let Some(status) = child.try_wait().unwrap() {
            let mut err = String::new();
            if let Some(mut e) = child.stderr.take() {
                let _ = e.read_to_string(&mut err);
            }
            panic!("server exited early ({status}): {err}");
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    };

    // One real search over the wire (the smoke-scale preset is 16-dim).
    // Hamming ranking scores every occupied bucket, so k results are
    // guaranteed even though the codes are 128-bit.
    let query: Vec<String> = (0..16).map(|i| format!("{}.5", i % 7)).collect();
    let body = format!(
        "{{\"query\":[{}],\"k\":5,\"candidates\":200,\"strategy\":\"HR\"}}",
        query.join(",")
    );
    let raw = format!(
        "POST /search HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let _ = child.kill();
    let _ = child.wait();

    let text = String::from_utf8_lossy(&response);
    let (head, resp_body) = text.split_once("\r\n\r\n").unwrap_or((&*text, ""));
    assert!(
        head.contains("200"),
        "search over a 128-bit index must succeed:\n{text}"
    );
    let doc = gqr::serve::json::parse(resp_body.as_bytes()).unwrap();
    assert_eq!(
        doc.get("ids").unwrap().as_array().unwrap().len(),
        5,
        "wide-code search must return k ids:\n{resp_body}"
    );
    assert_eq!(doc.get("distances").unwrap().as_array().unwrap().len(), 5);
}

/// Rows in an fvecs file: each record is a `u32` dimension, then that
/// many `f32`s.
fn fvecs_rows(data: &Path) -> usize {
    let bytes = std::fs::read(data).unwrap();
    let dim = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    bytes.len() / (4 + 4 * dim)
}

/// The ids `load-index --row` printed, in rank order.
fn neighbor_ids(text: &str) -> Vec<u32> {
    text.lines()
        .filter_map(|l| l.trim().strip_prefix('#'))
        .filter_map(|l| l.split_whitespace().next())
        .filter_map(|w| w.parse().ok())
        .collect()
}

/// A snapshot turns live with its first `insert`; `load-index --filter`
/// must still apply the predicate to it, for `--row` and for `--queries`.
#[test]
fn live_snapshot_honors_filter() {
    let dir = tmpdir("live_filter");
    let data = generate(&dir, "9");
    let attrs = dir.join("attrs.tsv");
    let mut tsv = String::from("parity:tag\n");
    for i in 0..fvecs_rows(&data) {
        tsv.push_str(if i % 2 == 0 { "even\n" } else { "odd\n" });
    }
    std::fs::write(&attrs, tsv).unwrap();
    let snap = dir.join("index.gqr");
    run_ok(
        bin()
            .args(["save-index", "--data", path(&data), "--algo", "pcah"])
            .args(["--bits", "8", "--attrs", path(&attrs)])
            .args(["--snapshot", path(&snap)]),
    );
    let vector = vec!["0.5"; 16].join(","); // smoke-scale audio50k is 16-dim
    run_ok(bin().args(["insert", "--snapshot", path(&snap), "--vector", &vector]));

    let even = r#"{"op":"eq","column":"parity","value":"even"}"#;
    let load = || {
        let mut cmd = bin();
        cmd.args(["load-index", "--snapshot", path(&snap), "--k", "5"])
            .args(["--candidates", "500", "--filter", even]);
        cmd
    };
    let text = run_ok(load().args(["--row", "3"]));
    assert!(text.contains("loaded live index"), "{text}");
    let ids = neighbor_ids(&text);
    assert_eq!(ids.len(), 5, "{text}");
    assert!(
        ids.iter().all(|id| id % 2 == 0),
        "a filtered live query leaked odd ids: {ids:?}\n{text}"
    );
    let text = run_ok(load().args(["--queries", "10"]));
    assert!(text.contains("recall@5"), "{text}");

    // A live index without attributes refuses the filter.
    let plain = dir.join("plain.gqr");
    run_ok(
        bin()
            .args(["save-index", "--data", path(&data), "--algo", "pcah"])
            .args(["--bits", "8", "--snapshot", path(&plain)]),
    );
    run_ok(bin().args(["insert", "--snapshot", path(&plain), "--vector", &vector]));
    let out = bin()
        .args(["load-index", "--snapshot", path(&plain), "--k", "5"])
        .args(["--row", "3", "--filter", even])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no attribute store"));
}

/// Every command that branches on a snapshot's code width, on a 128-bit
/// snapshot and on a 16-bit model stored in 64-bit words: frozen
/// `load-index --row`, `trace-dump`, `calibrate`, `insert`, then
/// `load-index` on the live result.
#[test]
fn every_width_site_runs_at_64_and_128_bits() {
    let dir = tmpdir("width_sites");
    let data = generate(&dir, "7");
    let vector = vec!["0.5"; 16].join(",");
    for (bits, width) in [("128", None), ("16", Some("64"))] {
        let width_bits = width.unwrap_or(bits);
        let codes = format!("{width_bits}-bit codes");
        let snap = dir.join(format!("w{width_bits}.gqr"));
        let mut save = bin();
        save.args(["save-index", "--data", path(&data), "--algo", "lsh"])
            .args(["--bits", bits, "--snapshot", path(&snap)]);
        if let Some(w) = width {
            save.args(["--width", w]);
        }
        assert!(run_ok(&mut save).contains(&codes));

        let row = |snap: &Path| {
            let mut cmd = bin();
            cmd.args(["load-index", "--snapshot", path(snap)]).args([
                "--row",
                "3",
                "--k",
                "5",
                "--strategy",
                "hr",
            ]);
            run_ok(&mut cmd)
        };
        let text = row(&snap);
        assert!(text.contains(&codes), "{width_bits}: {text}");
        assert!(neighbor_ids(&text).contains(&3), "{width_bits}: {text}");

        let trace = dir.join(format!("trace{width_bits}.jsonl"));
        let out = bin()
            .args(["trace-dump", "--snapshot", path(&snap)])
            .args(["--queries", "4", "--k", "5", "--out", path(&trace)])
            .output()
            .unwrap();
        assert!(out.status.success(), "{width_bits}: {out:?}");
        assert!(!std::fs::read(&trace).unwrap().is_empty(), "{width_bits}");

        let calibrated = dir.join(format!("cal{width_bits}.gqr"));
        let text = run_ok(
            bin()
                .args(["calibrate", "--snapshot", path(&snap), "--k", "5"])
                .args(["--sample", "10", "--out", path(&calibrated)]),
        );
        assert!(text.contains("calibrated recall@5"), "{width_bits}: {text}");

        let live = dir.join(format!("live{width_bits}.gqr"));
        let text = run_ok(
            bin()
                .args(["insert", "--snapshot", path(&snap), "--vector", &vector])
                .args(["--out", path(&live)]),
        );
        assert!(text.contains("inserted id"), "{width_bits}: {text}");
        let text = row(&live);
        assert!(text.contains("loaded live index"), "{width_bits}: {text}");
        assert!(text.contains(&codes), "{width_bits}: {text}");
        assert!(neighbor_ids(&text).contains(&3), "{width_bits}: {text}");
    }
}
