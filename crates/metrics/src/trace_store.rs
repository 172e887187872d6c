//! Completed-trace storage: a fixed-capacity overwrite-oldest ring plus a
//! pinned slow-query reservoir.
//!
//! The ring answers "what did recent queries look like?"; the reservoir
//! answers "what did the *worst* queries look like?" — p99.9 outliers are
//! rare by definition, so without pinning they would be evicted by the
//! flood of ordinary traces long before anyone looks. Pushes claim a slot
//! with one atomic `fetch_add` (lock-free at the ring level) and then swap
//! the `Arc<Trace>` in under that slot's own mutex, so concurrent pushes
//! to different slots never contend.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::trace::{EventData, Trace, TraceEvent};

/// Fixed-capacity store for completed traces.
#[derive(Debug)]
pub struct TraceStore {
    slots: Vec<Mutex<Option<Arc<Trace>>>>,
    /// Total pushes ever; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
    slow: Mutex<Vec<Arc<Trace>>>,
    slow_capacity: usize,
}

impl TraceStore {
    /// A store holding up to `capacity` recent traces and pinning up to
    /// `slow_capacity` slow ones.
    pub fn new(capacity: usize, slow_capacity: usize) -> TraceStore {
        let capacity = capacity.max(1);
        TraceStore {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            slow: Mutex::new(Vec::new()),
            slow_capacity,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Traces ever pushed (not the current occupancy).
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Store a completed trace: overwrites the oldest ring entry once the
    /// ring is full, and additionally pins `slow` traces in the reservoir
    /// (which keeps the slowest when over capacity).
    pub fn push(&self, trace: Arc<Trace>) {
        if trace.slow && self.slow_capacity > 0 {
            let mut slow = self.slow.lock();
            if slow.len() < self.slow_capacity {
                slow.push(Arc::clone(&trace));
            } else if let Some((i, min)) = slow
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.total_ns)
                .map(|(i, t)| (i, t.total_ns))
            {
                if trace.total_ns > min {
                    slow[i] = Arc::clone(&trace);
                }
            }
        }
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        *self.slots[i].lock() = Some(trace);
    }

    /// The ring's current contents, oldest first.
    pub fn recent(&self) -> Vec<Arc<Trace>> {
        let cap = self.slots.len();
        let cursor = self.cursor.load(Ordering::Relaxed) as usize;
        let mut out = Vec::new();
        // The oldest surviving entry sits at the cursor once the ring has
        // wrapped; before that, slot 0 is the oldest.
        for off in 0..cap {
            let i = (cursor + off) % cap;
            if let Some(t) = self.slots[i].lock().as_ref() {
                out.push(Arc::clone(t));
            }
        }
        out
    }

    /// The pinned slow traces, slowest first.
    pub fn slowest(&self) -> Vec<Arc<Trace>> {
        let mut out = self.slow.lock().clone();
        out.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        out
    }

    /// Ring contents plus pinned slow traces, deduplicated by trace id,
    /// oldest ring entry first and evicted-but-pinned slow traces appended.
    pub fn all(&self) -> Vec<Arc<Trace>> {
        let mut out = self.recent();
        let mut seen: Vec<u64> = out.iter().map(|t| t.id).collect();
        for t in self.slowest() {
            if !seen.contains(&t.id) {
                seen.push(t.id);
                out.push(t);
            }
        }
        out
    }

    /// Drop everything (ring and reservoir).
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.lock() = None;
        }
        self.slow.lock().clear();
        self.cursor.store(0, Ordering::Relaxed);
    }

    /// Export every stored trace as JSON lines: one object per trace with
    /// an `events` array of type-tagged objects. Hand-rolled (the metrics
    /// crate takes no JSON library dependency), matching the exporter style
    /// in [`export`](super::export).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for trace in self.all() {
            write_trace_json(&mut out, &trace);
            out.push('\n');
        }
        out
    }

    /// Human-readable slow-query log: one block per pinned slow trace,
    /// slowest first, with per-name aggregated span durations, the QD
    /// trajectory endpoints, and any markers.
    pub fn slow_log(&self) -> String {
        let mut out = String::new();
        for trace in self.slowest() {
            write_slow_entry(&mut out, &trace);
        }
        out
    }
}

/// Append one trace as a single JSON object (no trailing newline).
pub(crate) fn write_trace_json(out: &mut String, t: &Trace) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"trace_id\":{},\"name\":{},\"total_ns\":{},\"slow\":{},\
         \"deadline_missed\":{},\"events_dropped\":{},\"events\":[",
        t.id,
        super::export::json_string(t.name),
        t.total_ns,
        t.slow,
        t.deadline_missed,
        t.events_dropped
    );
    for (i, ev) in t.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event_json(out, ev);
    }
    out.push_str("]}");
}

fn write_event_json(out: &mut String, ev: &TraceEvent) {
    use std::fmt::Write;
    match &ev.data {
        EventData::Begin {
            parent,
            name,
            track,
            arg,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"begin\",\"ts_ns\":{},\"span\":{},\"parent\":{},\
                 \"name\":{},\"track\":{},\"arg\":{}}}",
                ev.ts_ns,
                ev.span,
                // NONE (the root's parent) serializes as null.
                if *parent == u32::MAX {
                    "null".to_string()
                } else {
                    parent.to_string()
                },
                super::export::json_string(name),
                track,
                arg
            );
        }
        EventData::End => {
            let _ = write!(
                out,
                "{{\"type\":\"end\",\"ts_ns\":{},\"span\":{}}}",
                ev.ts_ns, ev.span
            );
        }
        EventData::QdStep {
            bucket_rank,
            qd,
            items,
            kept,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"qd_step\",\"ts_ns\":{},\"span\":{},\
                 \"bucket_rank\":{},\"qd\":{},\"items\":{},\"kept\":{}}}",
                ev.ts_ns,
                ev.span,
                bucket_rank,
                json_f64(*qd),
                items,
                kept
            );
        }
        EventData::Marker { kind, a, b } => {
            let _ = write!(
                out,
                "{{\"type\":\"marker\",\"ts_ns\":{},\"span\":{},\
                 \"kind\":{},\"a\":{},\"b\":{}}}",
                ev.ts_ns,
                ev.span,
                super::export::json_string(kind.as_str()),
                a,
                b
            );
        }
    }
}

/// JSON-safe f64: finite values via `Display`, non-finite as null.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn write_slow_entry(out: &mut String, t: &Trace) {
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "=== trace {} [{}] total {:.3} ms{}{} ===",
        t.id,
        t.name,
        t.total_ns as f64 / 1e6,
        if t.deadline_missed {
            " DEADLINE MISSED"
        } else {
            ""
        },
        if t.events_dropped > 0 {
            format!(" ({} events dropped)", t.events_dropped)
        } else {
            String::new()
        }
    );
    // Aggregate span time by name (matching Begin/End pairs).
    let mut names: Vec<&'static str> = Vec::new();
    for ev in &t.events {
        if let EventData::Begin { name, .. } = &ev.data {
            if ev.span != 0 && !names.contains(name) {
                names.push(name);
            }
        }
    }
    for name in names {
        let ns = t.span_ns(name);
        let _ = writeln!(out, "  {:<16} {:>10.3} ms", name, ns as f64 / 1e6);
    }
    let steps: Vec<&TraceEvent> = t
        .events
        .iter()
        .filter(|e| matches!(e.data, EventData::QdStep { .. }))
        .collect();
    if let (Some(first), Some(last)) = (steps.first(), steps.last()) {
        if let (
            EventData::QdStep { qd: q0, .. },
            EventData::QdStep {
                qd: q1,
                bucket_rank,
                ..
            },
        ) = (&first.data, &last.data)
        {
            let _ = writeln!(
                out,
                "  qd trajectory: {} steps, qd {:.4} -> {:.4} (last rank {})",
                steps.len(),
                q0,
                q1,
                bucket_rank
            );
        }
    }
    for ev in &t.events {
        if let EventData::Marker { kind, a, b } = &ev.data {
            let _ = writeln!(
                out,
                "  marker {} at {:.3} ms (a={}, b={})",
                kind.as_str(),
                ev.ts_ns as f64 / 1e6,
                a,
                b
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::trace::{MarkerKind, SpanId, TraceContext};
    use super::*;

    fn trace(id: u64, total_ns: u64, slow: bool) -> Arc<Trace> {
        Arc::new(Trace {
            id,
            name: "q",
            total_ns,
            slow,
            deadline_missed: false,
            events_dropped: 0,
            events: Vec::new(),
        })
    }

    #[test]
    fn ring_overwrites_oldest() {
        let store = TraceStore::new(3, 0);
        for i in 0..5 {
            store.push(trace(i, i, false));
        }
        let ids: Vec<u64> = store.recent().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest first, 0 and 1 evicted");
        assert_eq!(store.pushed(), 5);
        assert_eq!(store.capacity(), 3);
    }

    #[test]
    fn recent_is_oldest_first_before_wrap() {
        let store = TraceStore::new(4, 0);
        store.push(trace(10, 1, false));
        store.push(trace(11, 1, false));
        let ids: Vec<u64> = store.recent().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![10, 11]);
    }

    #[test]
    fn slow_reservoir_pins_survivors_and_keeps_the_slowest() {
        let store = TraceStore::new(2, 2);
        store.push(trace(0, 500, true));
        store.push(trace(1, 900, true));
        // Flood with fast traces: ring evicts both slow ones.
        for i in 2..10 {
            store.push(trace(i, 10, false));
        }
        let recent_ids: Vec<u64> = store.recent().iter().map(|t| t.id).collect();
        assert!(!recent_ids.contains(&0) && !recent_ids.contains(&1));
        let slow_ids: Vec<u64> = store.slowest().iter().map(|t| t.id).collect();
        assert_eq!(slow_ids, vec![1, 0], "slowest first, both pinned");
        // A slower trace displaces the reservoir's fastest member...
        store.push(trace(20, 700, true));
        let slow_ids: Vec<u64> = store.slowest().iter().map(|t| t.id).collect();
        assert_eq!(slow_ids, vec![1, 20]);
        // ...but a faster-than-all one does not.
        store.push(trace(21, 100, true));
        let slow_ids: Vec<u64> = store.slowest().iter().map(|t| t.id).collect();
        assert_eq!(slow_ids, vec![1, 20]);
    }

    #[test]
    fn all_merges_ring_and_reservoir_without_duplicates() {
        let store = TraceStore::new(8, 4);
        store.push(trace(0, 999, true)); // in both ring and reservoir
        store.push(trace(1, 5, false));
        let all = store.all();
        let ids: Vec<u64> = all.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![0, 1], "no duplicate for the slow trace");
        store.clear();
        assert!(store.all().is_empty());
        assert_eq!(store.pushed(), 0);
    }

    #[test]
    fn json_lines_export_shape() {
        let store = TraceStore::new(4, 4);
        let ctx = TraceContext::start(3, "GQR", 64);
        let s = ctx.begin(SpanId::ROOT, "evaluate");
        ctx.qd_step(s, 0, 1.25, 7, 5);
        ctx.marker(s, MarkerKind::EarlyStop, 9, 0);
        ctx.end(s);
        store.push(Arc::new(ctx.finish(u64::MAX, false).unwrap()));
        let lines = store.to_json_lines();
        assert_eq!(lines.trim_end().lines().count(), 1);
        let line = lines.lines().next().unwrap();
        assert!(line.starts_with("{\"trace_id\":3,\"name\":\"GQR\""));
        assert!(line.contains("\"type\":\"begin\""));
        assert!(line.contains("\"parent\":null"), "root parent is null");
        assert!(line.contains("\"type\":\"qd_step\""));
        assert!(line.contains("\"qd\":1.25"));
        assert!(line.contains("\"kind\":\"early_stop\""));
        assert!(line.ends_with("]}"));
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn slow_log_is_human_readable() {
        let store = TraceStore::new(4, 4);
        let ctx = TraceContext::start(0, "GQR", 64);
        let s = ctx.begin(SpanId::ROOT, "evaluate");
        ctx.qd_step(s, 0, 0.5, 3, 3);
        ctx.qd_step(s, 1, 2.5, 4, 2);
        ctx.end(s);
        ctx.marker(SpanId::ROOT, MarkerKind::DeadlineMiss, 1000, 0);
        store.push(Arc::new(ctx.finish(0, true).unwrap()));
        let log = store.slow_log();
        assert!(log.contains("=== trace 0 [GQR]"));
        assert!(log.contains("DEADLINE MISSED"));
        assert!(log.contains("evaluate"));
        assert!(log.contains("qd trajectory: 2 steps"));
        assert!(log.contains("marker deadline_miss"));
    }

    #[test]
    fn concurrent_pushes_are_safe() {
        let store = Arc::new(TraceStore::new(16, 4));
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let store = Arc::clone(&store);
                sc.spawn(move || {
                    for i in 0..100 {
                        store.push(trace(t * 1000 + i, i, i % 50 == 0));
                    }
                });
            }
        });
        assert_eq!(store.pushed(), 400);
        assert_eq!(store.recent().len(), 16);
        assert!(store.slowest().len() <= 4);
    }
}
