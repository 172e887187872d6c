//! The `live-rw` writer: a fixed seeded sequence of mutations on a fixed
//! schedule, the benchmark's mirror of the resulting live set, and the
//! stale-read rule.

use crate::fixture::{Fixture, SplitMix64, K};
use gqr::prelude::*;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Scheduled mutations per second, over warm-up and window alike.
pub const WRITE_RATE: u64 = 400;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Delete,
    Upsert,
}

pub struct WriteOp {
    pub kind: OpKind,
    /// Target id of a delete or upsert (a base row, each used once).
    pub id: u32,
    /// Vector of an insert or upsert.
    pub vector: Vec<f32>,
}

/// One executed mutation.
pub struct WriteLog {
    pub kind: OpKind,
    /// The id the op acted on; for an insert, the id the index assigned.
    pub id: u32,
    pub latency: Duration,
    /// How late the schedule ran when the op started.
    pub lag: Duration,
    /// When the call returned, i.e. the mutation was acknowledged.
    pub acked: Instant,
}

/// `count` ops: 70 % insert (a held-out vector, component 0 nudged by
/// `i·1e-4` so no two are equal), 20 % delete and 10 % upsert over a seeded
/// permutation of the base ids, each id used at most once.
pub fn plan_ops(fx: &Fixture, count: usize) -> Vec<WriteOp> {
    let mut rng = SplitMix64(fx.seed ^ 0x6c69_7665_5f72_7721);
    let mut targets: Vec<u32> = (0..fx.base.n() as u32).collect();
    rng.shuffle(&mut targets);
    let mut targets = targets.into_iter();
    (0..count)
        .map(|i| {
            let mut vector = fx.queries[i % fx.queries.len()].clone();
            vector[0] += i as f32 * 1e-4;
            let kind = match rng.below(10) {
                0..=6 => OpKind::Insert,
                7..=8 => OpKind::Delete,
                _ => OpKind::Upsert,
            };
            let id = match kind {
                OpKind::Insert => 0,
                _ => targets.next().expect("fewer ops than base rows"),
            };
            WriteOp { kind, id, vector }
        })
        .collect()
}

/// Apply every op at its scheduled instant (`start + i / WRITE_RATE`). An
/// op the schedule has already passed runs at once, so the whole sequence
/// is always executed and the count of writes repeats exactly.
pub fn run_writer(writer: &IndexWriter<Itq>, ops: &[WriteOp], start: Instant) -> Vec<WriteLog> {
    let gap = Duration::from_secs(1) / WRITE_RATE as u32;
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let due = start + gap * i as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let began = Instant::now();
            let id = match op.kind {
                OpKind::Insert => writer.insert(&op.vector),
                OpKind::Delete => {
                    writer.delete(op.id);
                    op.id
                }
                OpKind::Upsert => {
                    writer.upsert(op.id, &op.vector);
                    op.id
                }
            };
            let acked = Instant::now();
            WriteLog {
                kind: op.kind,
                id,
                latency: acked - began,
                lag: began - due,
                acked,
            }
        })
        .collect()
}

/// Reads that returned an id whose delete was acknowledged before the read
/// was sent. Deleted ids are never upserted or re-inserted, so any such id
/// is stale.
pub fn stale_reads(reads: &[(Instant, [u32; K])], writes: &[WriteLog]) -> u64 {
    let deleted: HashMap<u32, Instant> = writes
        .iter()
        .filter(|w| w.kind == OpKind::Delete)
        .map(|w| (w.id, w.acked))
        .collect();
    reads
        .iter()
        .filter(|(sent, ids)| {
            ids.iter()
                .any(|id| deleted.get(id).is_some_and(|acked| acked < sent))
        })
        .count() as u64
}

/// The benchmark's mirror of the final live set: rows and their external
/// ids, built from the plan and the ids the index handed out.
pub fn final_live_set(fx: &Fixture, ops: &[WriteOp], writes: &[WriteLog]) -> (Dataset, Vec<u32>) {
    let dim = fx.dim();
    let mut deleted = HashSet::new();
    let mut replaced: HashMap<u32, &[f32]> = HashMap::new();
    let mut inserted: Vec<(u32, &[f32])> = Vec::new();
    for (op, done) in ops.iter().zip(writes) {
        match op.kind {
            OpKind::Insert => inserted.push((done.id, &op.vector)),
            OpKind::Delete => {
                deleted.insert(op.id);
            }
            OpKind::Upsert => {
                replaced.insert(op.id, &op.vector);
            }
        }
    }
    let mut rows = Vec::with_capacity((fx.base.n() + inserted.len()) * dim);
    let mut ids = Vec::with_capacity(fx.base.n() + inserted.len());
    for id in 0..fx.base.n() as u32 {
        if deleted.contains(&id) {
            continue;
        }
        rows.extend_from_slice(
            replaced
                .get(&id)
                .copied()
                .unwrap_or(fx.base.row(id as usize)),
        );
        ids.push(id);
    }
    for (id, vector) in inserted {
        rows.extend_from_slice(vector);
        ids.push(id);
    }
    (Dataset::new("live-mirror", dim, rows), ids)
}
