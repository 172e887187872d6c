#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings denied), and the full test
# suite. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Every suite in the workspace runs here once (snapshot, recall SLA,
# filtered search, trace, ...); the steps below re-run a suite only where
# they change its environment.
echo "==> cargo test"
cargo test --workspace -q

echo "==> kernel suites under GQR_FORCE_SCALAR=1"
GQR_FORCE_SCALAR=1 cargo test -q -p gqr-linalg --test kernel_equivalence
GQR_FORCE_SCALAR=1 cargo test -q -p gqr-eval --test exact_oracle
GQR_FORCE_SCALAR=1 cargo test -q -p gqr-core --test blocked_eval
# Fragmented == compacted and sharded == unsharded at tight budgets compare
# distance bits.
GQR_FORCE_SCALAR=1 cargo test -q -p gqr-core --test live_mutations
GQR_FORCE_SCALAR=1 cargo test -q -p gqr-core --test sharded_equivalence
GQR_FORCE_SCALAR=1 cargo test -q -p gqr-core --test predicate_equivalence
# Snapshot-loaded shards score from the owned row buffer through the
# four-row kernel; reloaded answers must equal the in-memory index's.
GQR_FORCE_SCALAR=1 cargo test -q --test snapshot_roundtrip
# Training and bulk encoding run AVX2-wide or portable lane loops; both must
# reproduce the pre-threading goldens and the row-at-a-time references.
GQR_FORCE_SCALAR=1 cargo test -q --test build_golden
GQR_FORCE_SCALAR=1 cargo test -q -p gqr-linalg --lib
GQR_FORCE_SCALAR=1 cargo test -q -p gqr-l2h

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# The benchmark crate builds against the library's public API; build it
# the way benchmark/run.sh does so a removal it still uses fails here.
echo "==> benchmark build"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

echo "==> mutation stress (bounded)"
GQR_STRESS_ITERS=800 cargo test -q -p gqr-core --test live_stress

echo "==> trace overhead gate (smoke, unsampled tracing <= 2% over off)"
GQR_BENCH_SMOKE=1 cargo bench -q -p gqr-bench --bench trace_overhead

echo "==> snapshot save/load/query smoke (CLI)"
SNAPDIR="$(mktemp -d)"
trap 'rm -rf "$SNAPDIR"' EXIT
cargo run -q --release --bin gqr -- generate --preset cifar60k --scale smoke \
    --out "$SNAPDIR/vecs.fvecs" --seed 5
cargo run -q --release --bin gqr -- save-index --data "$SNAPDIR/vecs.fvecs" \
    --snapshot "$SNAPDIR/index.gqr" --algo pcah --bits 8 --mih-blocks 2
cargo run -q --release --bin gqr -- load-index --snapshot "$SNAPDIR/index.gqr" \
    --row 3 --k 4 --strategy gqr
cargo run -q --release --bin gqr -- load-index --snapshot "$SNAPDIR/index.gqr" \
    --queries 10 --k 5 --strategy mih
# Calibrates every strategy, MIH included, into a copy; index.gqr stays
# uncalibrated for the mutation steps below.
cargo run -q --release --bin gqr -- calibrate --snapshot "$SNAPDIR/index.gqr" \
    --k 5 --sample 50 --out "$SNAPDIR/calibrated.gqr"
cargo run -q --release --bin gqr -- load-index --snapshot "$SNAPDIR/calibrated.gqr" \
    --queries 10 --k 5 --strategy gqr --recall-target 0.9
# Cold start is deterministic: a sharded ITQ snapshot (threaded training and
# encoding) is byte-identical run to run and on the portable lane loops.
for run in a b; do
    cargo run -q --release --bin gqr -- save-index --data "$SNAPDIR/vecs.fvecs" \
        --snapshot "$SNAPDIR/itq-$run.gqr" --algo itq --bits 10 --shards 2 --mih-blocks 2
done
GQR_FORCE_SCALAR=1 cargo run -q --release --bin gqr -- save-index --data "$SNAPDIR/vecs.fvecs" \
    --snapshot "$SNAPDIR/itq-scalar.gqr" --algo itq --bits 10 --shards 2 --mih-blocks 2
cmp "$SNAPDIR/itq-a.gqr" "$SNAPDIR/itq-b.gqr" \
    || { echo "cold-start determinism FAILED: two ITQ snapshots differ"; exit 1; }
cmp "$SNAPDIR/itq-a.gqr" "$SNAPDIR/itq-scalar.gqr" \
    || { echo "cold-start determinism FAILED: GQR_FORCE_SCALAR changed the snapshot"; exit 1; }
# A model saved by `train` indexes exactly like training inline.
cargo run -q --release --bin gqr -- train --data "$SNAPDIR/vecs.fvecs" \
    --algo itq --bits 10 --model "$SNAPDIR/itq.model"
cargo run -q --release --bin gqr -- save-index --data "$SNAPDIR/vecs.fvecs" \
    --snapshot "$SNAPDIR/itq-model.gqr" --model "$SNAPDIR/itq.model" --shards 2 --mih-blocks 2
cmp "$SNAPDIR/itq-a.gqr" "$SNAPDIR/itq-model.gqr" \
    || { echo "cold-start determinism FAILED: train + save-index --model differs"; exit 1; }
# Sharded MIH is one search: a budgeted query on the two-shard snapshot
# answers line for line like the one-shard snapshot of the same model (the
# load summary and timings aside).
cargo run -q --release --bin gqr -- save-index --data "$SNAPDIR/vecs.fvecs" \
    --snapshot "$SNAPDIR/itq-one.gqr" --algo itq --bits 10 --mih-blocks 2
for snap in itq-a itq-one; do
    cargo run -q --release --bin gqr -- load-index --snapshot "$SNAPDIR/$snap.gqr" \
        --row 3 --k 10 --strategy mih --candidates 50 \
        | grep -v '^loaded ' | sed -E 's/ in [0-9.]+[a-zµ]*s//' > "$SNAPDIR/$snap.mih"
done
cmp "$SNAPDIR/itq-a.mih" "$SNAPDIR/itq-one.mih" \
    || { echo "sharded MIH FAILED: two shards answer unlike one"; exit 1; }
# A sharded snapshot calibrates like a one-shard one and serves a recall
# target.
cargo run -q --release --bin gqr -- calibrate --snapshot "$SNAPDIR/itq-a.gqr" \
    --k 5 --sample 50 --out "$SNAPDIR/itq-calibrated.gqr"
cargo run -q --release --bin gqr -- load-index --snapshot "$SNAPDIR/itq-calibrated.gqr" \
    --queries 10 --k 5 --strategy gqr --recall-target 0.9
# Shard count and code width are independent: two shards of 128-bit codes.
cargo run -q --release --bin gqr -- save-index --data "$SNAPDIR/vecs.fvecs" \
    --snapshot "$SNAPDIR/itq-wide.gqr" --algo itq --bits 10 --shards 2 --width 128 \
    --mih-blocks 2
cargo run -q --release --bin gqr -- load-index --snapshot "$SNAPDIR/itq-wide.gqr" \
    --queries 10 --k 5 --strategy mih

echo "==> live mutation smoke (CLI insert/delete on a snapshot)"
VEC="$(printf '0.5,%.0s' $(seq 1 16))"  # smoke-scale cifar60k is 16-dim
cargo run -q --release --bin gqr -- insert --snapshot "$SNAPDIR/index.gqr" \
    --vector "${VEC%,}"
cargo run -q --release --bin gqr -- delete --snapshot "$SNAPDIR/index.gqr" --id 3
cargo run -q --release --bin gqr -- load-index --snapshot "$SNAPDIR/index.gqr" \
    --queries 10 --k 5 --strategy gqr

echo "==> HTTP serve smoke (CLI: serve + loadgen + /metrics + SIGTERM drain)"
./target/release/gqr serve --snapshot "$SNAPDIR/index.gqr" \
    --addr 127.0.0.1:0 --addr-file "$SNAPDIR/addr" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SNAPDIR/addr" ] && break; sleep 0.1; done
[ -s "$SNAPDIR/addr" ] || { echo "serve smoke FAILED: server never bound"; exit 1; }
ADDR="$(cat "$SNAPDIR/addr")"
./target/release/gqr loadgen --addr "$ADDR" --dim 16 \
    --qps 200 --duration-s 1 --out "$SNAPDIR/loadgen.json"
grep -q '"errors":0' "$SNAPDIR/loadgen.json" \
    || { echo "serve smoke FAILED: loadgen saw errors ($SNAPDIR/loadgen.json)"; exit 1; }
METRICS="$(curl -sf "http://$ADDR/metrics")" \
    || { echo "serve smoke FAILED: /metrics unreachable"; exit 1; }
grep -q 'gqr_http_requests_total' <<<"$METRICS" \
    || { echo "serve smoke FAILED: /metrics missing serving counters"; exit 1; }
if grep -qF 'gqr_http_responses_total{status="500"}' <<<"$METRICS"; then
    echo "serve smoke FAILED: a search panicked (500 in /metrics)"; exit 1
fi
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "serve smoke FAILED: drain exited non-zero"; exit 1; }

echo "==> HTTP serving gate (smoke: sheds at 2x saturation, admitted p99 <= 3x unloaded, lossless drain)"
GQR_BENCH_SMOKE=1 cargo bench -q -p gqr-bench --bench http_serving

echo "==> snapshot cold-start gate (smoke, load >= 10x faster than retrain + build)"
GQR_BENCH_SMOKE=1 cargo bench -q -p gqr-bench --bench snapshot

echo "==> recall controller gate (smoke, 25% probe reduction at recall@10 >= 0.9)"
GQR_BENCH_SMOKE=1 cargo bench -q -p gqr-bench --bench recall
GQR_FORCE_SCALAR=1 GQR_BENCH_SMOKE=1 cargo bench -q -p gqr-bench --bench recall

echo "==> filtered-search gate (smoke, planner >= 5x at selectivity <= 0.01)"
GQR_BENCH_SMOKE=1 cargo bench -q -p gqr-bench --bench filtered

echo "==> popcount gate (smoke, dispatched >= 1.5x scalar at m=128 under AVX2)"
GQR_BENCH_SMOKE=1 cargo bench -q -p gqr-bench --bench hamming
GQR_FORCE_SCALAR=1 GQR_BENCH_SMOKE=1 cargo bench -q -p gqr-bench --bench hamming

echo "==> ci.sh: all green"
