//! Adaptive recall control: recall-target SLAs instead of probe budgets.
//!
//! The paper's quantization distance is a *per-query difficulty signal*:
//! the QD trajectory a search traces out (bucket rank, the QD of each
//! probed bucket, how many candidates have been evaluated) says how far
//! along the search is, and — once calibrated against exact ground truth —
//! how much of the true top-k it has already found. This module turns that
//! signal into a termination condition:
//!
//! * [`Calibrator`] replays the exact probe sequences the engine would run
//!   over a sample of training queries with exact ground truth (computed by
//!   the caller, e.g. `gqr_eval::oracle::exact_knn`), bins every observed
//!   trajectory state by *(bucket-rank, evaluated/k ratio, normalized probe
//!   cost)*, and records the recall-so-far at that state.
//! * [`RecallModel`] is the finalized mapping: per strategy, a dense binned
//!   table holding a **conservative** (low-quantile) estimate of
//!   recall-so-far for each state. It persists as its own checksummed
//!   snapshot section ([`crate::persist::SectionKind::RecallModel`]) and
//!   round-trips bit-identically.
//! * [`RecallController`] is the per-query consumer: the engine feeds it
//!   the same steps the tracer sees, it looks up the conservative estimate,
//!   keeps a running maximum (so the prediction is monotone non-decreasing
//!   along any trajectory by construction), and tells the engine to stop
//!   probing once the prediction clears `target + margin`.
//!
//! Callers state the SLA with [`SearchParams::recall_target`]
//! (`crate::engine::SearchParamsBuilder::recall_target`); the controller
//! replaces the hand-tuned `n_candidates` budget, which the builder lifts
//! to "unbounded" (the bucket cap stays as a backstop). A target on an
//! engine without an attached model degrades gracefully to the budget
//! stops and bumps `gqr_recall_uncalibrated_total`.
//!
//! [`SearchParams::recall_target`]: crate::engine::SearchParams::recall_target

use crate::code::CodeWord;
use crate::engine::{ProbeStrategy, QueryEngine, SearchParams};
use crate::metrics::MetricsRegistry;
use crate::probe_loop::{BucketSource, PartSource, ProbeCtx, StopPolicy};
use crate::request::SearchRequest;
use crate::stats::ProbeStats;
use gqr_l2h::HashModel;
use gqr_linalg::wire::{ByteReader, ByteWriter, WireError};
use std::time::Instant;

/// A recall SLA: stop probing when predicted recall@k clears
/// `target + margin`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecallTarget {
    /// Required recall@k on this query, in `(0, 1]`.
    pub target: f32,
    /// Confidence margin added on top of the target before the controller
    /// may stop (≥ 0). Larger margins probe longer and miss the SLA less.
    ///
    /// Defaults to 0: the safety cushion already lives in the calibration
    /// quantile (the model predicts a conservative low-percentile recall,
    /// not the mean), and stacking a margin on top makes stop states whose
    /// conservative estimate sits exactly at the target unreachable —
    /// strategies with few discrete stop opportunities (MIH's per-level
    /// batches) then probe to the bucket cap for nothing.
    pub margin: f32,
}

impl RecallTarget {
    /// Default confidence margin.
    pub const DEFAULT_MARGIN: f32 = 0.0;

    /// Target with the default margin.
    pub fn new(target: f32) -> RecallTarget {
        RecallTarget {
            target,
            margin: RecallTarget::DEFAULT_MARGIN,
        }
    }

    /// Override the confidence margin.
    pub fn with_margin(mut self, margin: f32) -> RecallTarget {
        self.margin = margin;
        self
    }

    /// Whether both fields are finite and in range (target in `(0, 1]`,
    /// margin ≥ 0).
    pub fn is_valid(&self) -> bool {
        self.target.is_finite()
            && self.target > 0.0
            && self.target <= 1.0
            && self.margin.is_finite()
            && self.margin >= 0.0
    }
}

// ---------------------------------------------------------------------------
// Feature binning
// ---------------------------------------------------------------------------
//
// A trajectory state is binned on three axes:
//
//   rank   — how many probe units the strategy has spent (bucket codes for
//            the ranking strategies, substring lookups for MIH),
//            log-spaced because useful budgets span five orders of
//            magnitude;
//   ratio  — items evaluated / k, the "how full could the top-k be" axis;
//   cost   — the current probe cost, normalized per cost family: QD
//            strategies divide by the query's first positive QD (so the
//            axis is "how many times harder than my easiest non-trivial
//            bucket"), Hamming strategies and MIH divide the Hamming
//            distance by m and rescale. Bin 0 is reserved for "no cost
//            available" (a prober that cannot peek).

/// Upper edges of the rank axis (log-spaced); one extra bin catches
/// everything beyond the last edge.
const RANK_EDGES: [u32; 23] = [
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 4096, 16384,
    65536, 262144,
];
const RANK_BINS: usize = RANK_EDGES.len() + 1;

/// Upper edges of the evaluated/k ratio axis.
const RATIO_EDGES: [f32; 13] = [
    0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0,
];
const RATIO_BINS: usize = RATIO_EDGES.len() + 1;

/// Upper edges of the normalized-cost axis. Bin 0 is reserved for "cost
/// unavailable"; observed costs land in bins `1..COST_BINS`.
const COST_EDGES: [f32; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
const COST_BINS: usize = COST_EDGES.len() + 2;

/// Hamming distances are normalized as `8·d/m`, so a distance of m/32 per
/// unit advances one typical cost edge.
const HAMMING_COST_SCALE: f32 = 8.0;

/// Total bins per strategy table.
pub const MODEL_BINS: usize = RANK_BINS * RATIO_BINS * COST_BINS;

fn rank_bin(rank: u64) -> usize {
    RANK_EDGES
        .iter()
        .position(|&e| rank < e as u64)
        .unwrap_or(RANK_EDGES.len())
}

fn ratio_bin(evaluated: usize, k: usize) -> usize {
    let r = evaluated as f32 / k.max(1) as f32;
    RATIO_EDGES
        .iter()
        .position(|&e| r < e)
        .unwrap_or(RATIO_EDGES.len())
}

fn cost_bin(cost_norm: Option<f32>) -> usize {
    match cost_norm {
        None => 0,
        Some(c) => {
            1 + COST_EDGES
                .iter()
                .position(|&e| c < e)
                .unwrap_or(COST_EDGES.len())
        }
    }
}

/// Flat bin index for a trajectory state. Test/debug introspection — the
/// layout is an internal detail and may change between versions.
#[doc(hidden)]
pub fn bin_index(rank: u64, evaluated: usize, k: usize, cost_norm: Option<f32>) -> usize {
    (rank_bin(rank) * RATIO_BINS + ratio_bin(evaluated, k)) * COST_BINS + cost_bin(cost_norm)
}

/// How a strategy's `peek_cost` is normalized onto the cost axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CostFamily {
    /// Quantization distance: divide by the query's first positive QD.
    Qd,
    /// Hamming distance: `HAMMING_COST_SCALE · d / m`.
    Hamming,
}

/// Dense strategy index inside the model. Stable on-disk order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StrategySlot {
    Hr = 0,
    Ghr = 1,
    Qr = 2,
    Gqr = 3,
    Mih = 4,
}

const N_SLOTS: usize = 5;

impl StrategySlot {
    fn of(strategy: ProbeStrategy) -> StrategySlot {
        match strategy {
            ProbeStrategy::HammingRanking => StrategySlot::Hr,
            ProbeStrategy::GenerateHammingRanking => StrategySlot::Ghr,
            ProbeStrategy::QdRanking => StrategySlot::Qr,
            ProbeStrategy::GenerateQdRanking => StrategySlot::Gqr,
            ProbeStrategy::MultiIndexHashing { .. } => StrategySlot::Mih,
        }
    }

    fn family(self) -> CostFamily {
        match self {
            StrategySlot::Qr | StrategySlot::Gqr => CostFamily::Qd,
            StrategySlot::Hr | StrategySlot::Ghr | StrategySlot::Mih => CostFamily::Hamming,
        }
    }

    fn name(self) -> &'static str {
        match self {
            StrategySlot::Hr => "HR",
            StrategySlot::Ghr => "GHR",
            StrategySlot::Qr => "QR",
            StrategySlot::Gqr => "GQR",
            StrategySlot::Mih => "MIH",
        }
    }
}

// ---------------------------------------------------------------------------
// The calibrated model
// ---------------------------------------------------------------------------

/// The calibrated trajectory → recall mapping: per strategy, a dense binned
/// table of conservative recall-so-far estimates. Built by [`Calibrator`],
/// persisted as the `RecallModel` snapshot section, consumed per query
/// through [`RecallModel::controller`].
#[derive(Clone, Debug, PartialEq)]
pub struct RecallModel {
    k: u32,
    m: u32,
    tables: [Option<Box<[f32]>>; N_SLOTS],
}

impl RecallModel {
    /// The `k` the model was calibrated for. Queries with a different `k`
    /// still work (the ratio axis uses the query's own `k`), but the recall
    /// estimates are for this one.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Code length of the index the model was calibrated on.
    pub fn code_length(&self) -> usize {
        self.m as usize
    }

    /// Names of the strategies with a calibrated table.
    pub fn calibrated_strategies(&self) -> Vec<&'static str> {
        (0..N_SLOTS)
            .filter(|&i| self.tables[i].is_some())
            .map(|i| slot_of(i).name())
            .collect()
    }

    /// Whether `strategy` has a calibrated table.
    pub fn covers(&self, strategy: ProbeStrategy) -> bool {
        self.tables[StrategySlot::of(strategy) as usize].is_some()
    }

    /// The raw binned table for `strategy` (row-major over rank × ratio ×
    /// cost bins). Test/debug introspection — the layout is an internal
    /// detail and may change between versions.
    #[doc(hidden)]
    pub fn raw_table(&self, strategy: ProbeStrategy) -> Option<&[f32]> {
        self.tables[StrategySlot::of(strategy) as usize].as_deref()
    }

    /// Build the per-query controller for `strategy` at the given target
    /// and result size, or `None` when the strategy has no calibrated
    /// table (callers then fall back to budget termination).
    pub fn controller(
        &self,
        strategy: ProbeStrategy,
        target: RecallTarget,
        k: usize,
    ) -> Option<RecallController<'_>> {
        let slot = StrategySlot::of(strategy);
        let values = self.tables[slot as usize].as_deref()?;
        Some(RecallController {
            values,
            family: slot.family(),
            m: self.m,
            k: k.max(1),
            target,
            qd0: None,
            best: 0.0,
        })
    }

    /// Serialize for the snapshot section. The byte stream is a pure
    /// function of the model (no maps, no timestamps), so save → load is
    /// bit-identical.
    pub(crate) fn wire_write(&self, w: &mut ByteWriter) {
        w.put_u32(self.k);
        w.put_u32(self.m);
        w.put_u8(N_SLOTS as u8);
        for table in &self.tables {
            match table {
                Some(values) => {
                    w.put_u8(1);
                    w.put_f32_slice(values);
                }
                None => w.put_u8(0),
            }
        }
    }

    /// Decode a section written by [`RecallModel::wire_write`], validating
    /// shape and value ranges.
    pub(crate) fn wire_read(r: &mut ByteReader<'_>) -> Result<RecallModel, WireError> {
        let k = r.get_u32()?;
        let m = r.get_u32()?;
        if k == 0 {
            return Err(WireError::Malformed("recall model k must be positive"));
        }
        if m == 0 || m > 256 {
            return Err(WireError::Malformed(
                "recall model code length out of range",
            ));
        }
        let n_slots = r.get_u8()? as usize;
        if n_slots != N_SLOTS {
            return Err(WireError::Malformed("recall model strategy count mismatch"));
        }
        let mut tables: [Option<Box<[f32]>>; N_SLOTS] = Default::default();
        for table in tables.iter_mut() {
            match r.get_u8()? {
                0 => {}
                1 => {
                    let values = r.get_f32_vec()?;
                    if values.len() != MODEL_BINS {
                        return Err(WireError::Malformed("recall model table has wrong shape"));
                    }
                    if values
                        .iter()
                        .any(|v| !v.is_finite() || !(0.0..=1.0).contains(v))
                    {
                        return Err(WireError::Malformed("recall model value out of [0,1]"));
                    }
                    *table = Some(values.into_boxed_slice());
                }
                _ => return Err(WireError::Malformed("recall model presence flag invalid")),
            }
        }
        Ok(RecallModel { k, m, tables })
    }
}

fn slot_of(i: usize) -> StrategySlot {
    match i {
        0 => StrategySlot::Hr,
        1 => StrategySlot::Ghr,
        2 => StrategySlot::Qr,
        3 => StrategySlot::Gqr,
        _ => StrategySlot::Mih,
    }
}

// ---------------------------------------------------------------------------
// Per-query controller
// ---------------------------------------------------------------------------

/// Per-query recall predictor: consumes the probe steps the tracer sees and
/// decides when the SLA is met.
///
/// The prediction is the running **maximum** of the binned estimates, so it
/// is monotone non-decreasing along any trajectory and clamped to `[0, 1]`
/// by construction (table values are validated into that range). The
/// controller never stops before `k` items have been evaluated.
#[derive(Clone, Debug)]
pub struct RecallController<'m> {
    values: &'m [f32],
    family: CostFamily,
    m: u32,
    k: usize,
    target: RecallTarget,
    /// First positive QD seen on this query (the QD normalizer).
    qd0: Option<f64>,
    best: f32,
}

impl RecallController<'_> {
    /// Feed one probe step: the probe-unit rank, the prober's peeked cost
    /// (`< 0` when unavailable), and the total items evaluated so far.
    /// Returns `true` when the engine should stop probing.
    pub fn observe(&mut self, rank: u64, cost: f64, items_evaluated: usize) -> bool {
        let cost_norm = normalize_cost(self.family, cost, &mut self.qd0, self.m as f32);
        let idx = bin_index(rank, items_evaluated, self.k, cost_norm);
        let estimate = self.values[idx].clamp(0.0, 1.0);
        if estimate > self.best {
            self.best = estimate;
        }
        items_evaluated >= self.k && self.should_stop()
    }

    fn should_stop(&self) -> bool {
        self.best >= self.target.target + self.target.margin
    }

    /// Current predicted recall@k (monotone non-decreasing, in `[0, 1]`).
    pub fn predicted(&self) -> f32 {
        self.best
    }

    /// The SLA this controller enforces.
    pub fn target(&self) -> RecallTarget {
        self.target
    }
}

// ---------------------------------------------------------------------------
// Offline calibration
// ---------------------------------------------------------------------------

/// Offline calibrator: replays the exact probe order the engine would run
/// on a sample of training queries with exact ground truth, and learns the
/// binned trajectory → recall mapping.
///
/// Ground truth comes from the caller (e.g. `gqr_eval::oracle::exact_knn`),
/// keeping this crate free of an eval dependency. Recall-so-far at a state
/// is `|evaluated ∩ ground truth| / |ground truth|`, which is exactly the
/// recall of the response the engine would return if it stopped there
/// (evaluation re-ranks exactly, so every ground-truth item evaluated is in
/// the top-k).
///
/// ```
/// use gqr_core::engine::{ProbeStrategy, QueryEngine};
/// use gqr_core::recall::{Calibrator, RecallTarget};
/// use gqr_core::table::HashTable;
/// use gqr_l2h::pcah::Pcah;
///
/// # let mut data = Vec::new();
/// # for i in 0..200u32 {
/// #     data.push((i % 20) as f32 + 0.01 * (i as f32).sin());
/// #     data.push((i / 20) as f32);
/// # }
/// let model = Pcah::train(&data, 2, 2).unwrap();
/// let table: HashTable = HashTable::build(&model, &data, 2);
/// let engine = QueryEngine::new(&model, &table, &data, 2);
///
/// // Exact 5-NN of item 0 (here: by construction of the grid).
/// let queries: Vec<f32> = data[..2].to_vec();
/// let gt = vec![vec![0u32, 1, 20, 21, 2]];
/// let mut cal = Calibrator::new(5);
/// cal.observe(&engine, ProbeStrategy::GenerateQdRanking, &queries, &gt);
/// let model = cal.finalize();
/// assert!(model.covers(ProbeStrategy::GenerateQdRanking));
/// assert!(model.controller(ProbeStrategy::GenerateQdRanking, RecallTarget::new(0.9), 5).is_some());
/// ```
pub struct Calibrator {
    k: usize,
    quantile: f32,
    min_count: usize,
    bucket_cap: usize,
    m: Option<u32>,
    /// Per strategy slot, per trajectory state: the recalls observed
    /// there, one chunk per replay run. Runs' chunks are moved in whole,
    /// never copied, so a parallel replay holds no more samples than a
    /// serial one.
    samples: Vec<Vec<Vec<Vec<f32>>>>,
}

impl Calibrator {
    /// Calibrator for recall@`k`. Panics when `k == 0`.
    pub fn new(k: usize) -> Calibrator {
        assert!(k > 0, "recall@0 is not a thing");
        Calibrator {
            k,
            quantile: 0.10,
            min_count: 3,
            bucket_cap: crate::engine::SearchParams::DEFAULT_BUCKET_CAP,
            m: None,
            samples: (0..N_SLOTS).map(|_| vec![Vec::new(); MODEL_BINS]).collect(),
        }
    }

    /// The conservative per-bin quantile (default 0.10): the finalized
    /// estimate for a bin is the `q`-quantile of the recalls observed
    /// there, so 90% of calibration states at that bin did at least as
    /// well. Lower is safer and probes longer.
    pub fn quantile(mut self, q: f32) -> Calibrator {
        assert!((0.0..=0.5).contains(&q), "quantile must be in [0, 0.5]");
        self.quantile = q;
        self
    }

    /// Minimum observations before a bin (or a marginal) is trusted.
    pub fn min_count(mut self, n: usize) -> Calibrator {
        self.min_count = n.max(1);
        self
    }

    /// Probe-unit cap per calibration query (default
    /// [`crate::engine::SearchParams::DEFAULT_BUCKET_CAP`]); generation
    /// strategies at wide code lengths need it to terminate.
    pub fn bucket_cap(mut self, cap: usize) -> Calibrator {
        self.bucket_cap = cap.max(1);
        self
    }

    /// Replay `strategy` over every query (row-major, `engine.dim()`
    /// columns) and record its trajectory against `ground_truth` (one exact
    /// id list per query, parallel to the rows).
    ///
    /// The queries are split into contiguous runs over
    /// [`std::thread::available_parallelism`] scoped threads; each run
    /// replays into its own bins, which are appended in run order, so the
    /// samples are exactly those of one serial replay.
    ///
    /// # Panics
    ///
    /// Panics when the query buffer is ragged, `ground_truth` is not
    /// parallel to it, or `strategy` is MIH and the engine has no MIH index
    /// attached.
    pub fn observe<M: HashModel + ?Sized, C: CodeWord>(
        &mut self,
        engine: &QueryEngine<'_, M, C>,
        strategy: ProbeStrategy,
        queries: &[f32],
        ground_truth: &[Vec<u32>],
    ) {
        let dim = engine.dim();
        assert!(
            dim > 0 && queries.len().is_multiple_of(dim),
            "query buffer is not rows × dim"
        );
        assert_eq!(
            queries.len() / dim,
            ground_truth.len(),
            "one ground-truth list per query row"
        );
        let m = engine.code_length() as u32;
        assert!(
            self.m.is_none_or(|prev| prev == m),
            "calibration mixes code lengths"
        );
        self.m = Some(m);
        let n = ground_truth.len();
        if n == 0 {
            return;
        }
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let run = n.div_ceil(threads.clamp(1, n));
        let this = &*self;
        let parts: Vec<Vec<Vec<f32>>> = std::thread::scope(|s| {
            let mut runs = queries.chunks(run * dim).zip(ground_truth.chunks(run));
            let (qs, gts) = runs.next().expect("at least one query");
            let spawned: Vec<_> = runs
                .map(|(qs, gts)| s.spawn(move || this.replay_run(engine, strategy, qs, gts)))
                .collect();
            // The calling thread replays the first run while the rest spawn.
            let mut parts = vec![this.replay_run(engine, strategy, qs, gts)];
            for handle in spawned {
                let part = handle.join();
                parts.push(part.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            }
            parts
        });
        let slot = StrategySlot::of(strategy) as usize;
        for part in parts {
            for (bin, samples) in self.samples[slot].iter_mut().zip(part) {
                if !samples.is_empty() {
                    bin.push(samples);
                }
            }
        }
    }

    /// Replay `strategy` over a run of queries into fresh bins (one per
    /// trajectory state).
    fn replay_run<M: HashModel + ?Sized, C: CodeWord>(
        &self,
        engine: &QueryEngine<'_, M, C>,
        strategy: ProbeStrategy,
        queries: &[f32],
        ground_truth: &[Vec<u32>],
    ) -> Vec<Vec<f32>> {
        let family = StrategySlot::of(strategy).family();
        let mut bins = vec![Vec::new(); MODEL_BINS];
        // Replays are neither timed nor traced.
        let metrics = MetricsRegistry::disabled();
        let env = SearchRequest::new(&[]).open(&metrics, "calibrate");
        let mut ctx = ProbeCtx::new(&env);
        let mut gt = Vec::new();
        for (query, truth) in queries.chunks_exact(engine.dim()).zip(ground_truth) {
            gt.clear();
            gt.extend_from_slice(truth);
            gt.sort_unstable();
            gt.dedup();
            if gt.is_empty() {
                continue;
            }
            let cap = Some(self.bucket_cap);
            match engine.open_source(strategy, cap, query, &mut ctx) {
                PartSource::Mih(mut s) => self.replay(&mut s, family, &gt, &mut bins, &mut ctx),
                PartSource::Tables(mut s) => self.replay(&mut s, family, &gt, &mut bins, &mut ctx),
            }
        }
        bins
    }

    /// Walk `source` exactly as the query loop would — same units, ranks
    /// and costs — recording recall-so-far per trajectory state into `bins`
    /// instead of evaluating distances. `gt` is sorted and deduplicated.
    fn replay<S: BucketSource>(
        &self,
        source: &mut S,
        family: CostFamily,
        gt: &[u32],
        bins: &mut [Vec<f32>],
        ctx: &mut ProbeCtx<'_>,
    ) {
        // Replay the FULL trajectory, even long after this query reached
        // recall 1.0: only exhaustion and the bucket cap stop it. Breaking
        // early would mean deep-rank bins only ever see the hard,
        // still-incomplete queries — a selection bias that drags the
        // conservative quantile down and keeps the controller probing to
        // the cap. Calibration is offline; a step is one hash lookup.
        let policy = StopPolicy::new(
            &SearchParams {
                n_candidates: usize::MAX,
                max_buckets: Some(self.bucket_cap),
                ..SearchParams::default()
            },
            Instant::now(),
        );
        let denom = gt.len() as f32;
        let m = self.m.expect("set by observe") as f32;
        let mut qd0: Option<f64> = None;
        let (mut stats, mut hits) = (ProbeStats::default(), 0usize);
        while policy.before(&stats, None, source).is_none() {
            let Some(unit) = source.next(ctx, &mut stats) else {
                break;
            };
            // Unfiltered, everything collected would be evaluated.
            stats.items_evaluated = stats.items_collected;
            hits += unit
                .items
                .iter()
                .filter(|id| gt.binary_search(id).is_ok())
                .count();
            let recall = (hits as f32 / denom).clamp(0.0, 1.0);
            let cost_norm = normalize_cost(family, unit.cost, &mut qd0, m);
            let state = bin_index(unit.rank, stats.items_evaluated, self.k, cost_norm);
            bins[state].push(recall);
        }
    }

    /// Finalize the binned tables into a [`RecallModel`].
    ///
    /// Each bin with at least `min_count` observations gets the
    /// conservative quantile of its recalls. Sparse bins fall back, in
    /// order, to the cost-marginal at the same (rank, ratio), then the
    /// ratio-marginal, then 0 (never predict from nothing — an
    /// unpredictable state must not stop the search).
    pub fn finalize(self) -> RecallModel {
        let mut tables: [Option<Box<[f32]>>; N_SLOTS] = Default::default();
        for (slot, bins) in self.samples.iter().enumerate() {
            if bins.iter().all(|b| b.is_empty()) {
                continue;
            }
            let mut values = vec![0.0f32; MODEL_BINS];
            // Ratio-marginal fallback: pool every sample at one ratio bin.
            let mut by_ratio: Vec<Vec<f32>> = vec![Vec::new(); RATIO_BINS];
            for (idx, chunks) in bins.iter().enumerate() {
                let ratio = (idx / COST_BINS) % RATIO_BINS;
                for chunk in chunks {
                    by_ratio[ratio].extend_from_slice(chunk);
                }
            }
            let ratio_marginal: Vec<Option<f32>> =
                by_ratio.into_iter().map(|s| self.quantile_of(s)).collect();
            for rank in 0..RANK_BINS {
                for (ratio, ratio_fb) in ratio_marginal.iter().enumerate() {
                    let base = (rank * RATIO_BINS + ratio) * COST_BINS;
                    // Cost-marginal at this (rank, ratio).
                    let pooled: Vec<f32> = bins[base..base + COST_BINS]
                        .iter()
                        .flatten()
                        .flatten()
                        .copied()
                        .collect();
                    let cost_marginal = self.quantile_of(pooled);
                    for cost in 0..COST_BINS {
                        let own = self.quantile_of(bins[base + cost].concat());
                        values[base + cost] = own
                            .or(cost_marginal)
                            .or(*ratio_fb)
                            .unwrap_or(0.0)
                            .clamp(0.0, 1.0);
                    }
                }
            }
            tables[slot] = Some(values.into_boxed_slice());
        }
        RecallModel {
            k: self.k as u32,
            m: self.m.unwrap_or(1),
            tables,
        }
    }

    /// Conservative quantile of `samples`, or `None` below `min_count`.
    fn quantile_of(&self, mut samples: Vec<f32>) -> Option<f32> {
        if samples.len() < self.min_count {
            return None;
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let idx = ((samples.len() - 1) as f32 * self.quantile).floor() as usize;
        Some(samples[idx])
    }
}

fn normalize_cost(family: CostFamily, cost: f64, qd0: &mut Option<f64>, m: f32) -> Option<f32> {
    if cost < 0.0 {
        return None;
    }
    match family {
        CostFamily::Qd => {
            if qd0.is_none() && cost > 1e-12 {
                *qd0 = Some(cost);
            }
            Some(qd0.map_or(0.0, |q0| (cost / q0) as f32))
        }
        CostFamily::Hamming => Some(HAMMING_COST_SCALE * cost as f32 / m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::HashTable;
    use gqr_l2h::lsh::Lsh;

    fn grid() -> (Vec<f32>, usize) {
        let mut data = Vec::new();
        for i in 0..400u32 {
            data.push((i % 20) as f32 + 0.001 * ((i * 7) % 13) as f32);
            data.push((i / 20) as f32);
        }
        (data, 2)
    }

    fn brute_force(data: &[f32], dim: usize, q: &[f32], k: usize) -> Vec<u32> {
        let mut d: Vec<(f64, u32)> = data
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| {
                let mut acc = 0.0f64;
                for (a, b) in q.iter().zip(row) {
                    acc += (*a as f64 - *b as f64).powi(2);
                }
                (acc, i as u32)
            })
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.into_iter().take(k).map(|(_, i)| i).collect()
    }

    /// Run `f` over an MIH-enabled engine on the grid, 40 off-grid queries
    /// and their exact 10-NN.
    fn with_calibration_fixture<R>(
        f: impl FnOnce(&QueryEngine<'_, Lsh>, &[f32], &[Vec<u32>]) -> R,
    ) -> R {
        let (data, dim) = grid();
        let model = Lsh::train(&data, dim, 6, 42).unwrap();
        let table: HashTable = HashTable::build(&model, &data, dim);
        let mut engine = QueryEngine::new(&model, &table, &data, dim);
        engine.enable_mih(2);
        let queries: Vec<f32> = (0..40)
            .flat_map(|i| {
                let row = &data[i * 10 * dim..(i * 10 + 1) * dim];
                [row[0] + 0.3, row[1] - 0.2]
            })
            .collect();
        let gt: Vec<Vec<u32>> = queries
            .chunks_exact(dim)
            .map(|q| brute_force(&data, dim, q, 10))
            .collect();
        f(&engine, &queries, &gt)
    }

    fn calibrated_model(strategies: &[ProbeStrategy]) -> RecallModel {
        with_calibration_fixture(|engine, queries, gt| {
            let mut cal = Calibrator::new(10);
            for &s in strategies {
                cal.observe(engine, s, queries, gt);
            }
            cal.finalize()
        })
    }

    /// FNV-1a over the table's f32 bit patterns.
    fn table_digest(model: &RecallModel, strategy: ProbeStrategy) -> u64 {
        let table = model.raw_table(strategy).expect("calibrated");
        table.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn calibration_tables_match_the_pre_refactor_golden() {
        // The calibrator walks the same sources as the query loop; these
        // digests were captured from the dedicated replay loops it used to
        // carry, so any drift in units, ranks or costs shows up here.
        let golden = [
            (ProbeStrategy::HammingRanking, 0x144f_8cb4_49fe_556e),
            (ProbeStrategy::GenerateHammingRanking, 0x197a_cb86_757e_6ba6),
            (ProbeStrategy::QdRanking, 0xc448_991d_b859_6d7d),
            (ProbeStrategy::GenerateQdRanking, 0x89a8_2b55_c644_5efa),
            (
                ProbeStrategy::MultiIndexHashing { blocks: 2 },
                0x21d2_eea6_cc9c_edb1,
            ),
        ];
        let model = calibrated_model(&golden.map(|(strategy, _)| strategy));
        for (strategy, digest) in golden {
            let got = table_digest(&model, strategy);
            assert_eq!(got, digest, "{}: {got:#018x}", strategy.name());
        }
    }

    #[test]
    fn observing_in_two_parts_equals_observing_at_once() {
        // The parallel replay appends per-run bins; the model must not
        // depend on how the queries were split.
        let strategies = [
            ProbeStrategy::GenerateQdRanking,
            ProbeStrategy::HammingRanking,
            ProbeStrategy::MultiIndexHashing { blocks: 2 },
        ];
        with_calibration_fixture(|engine, queries, gt| {
            let split = 17;
            let (mut whole, mut parts) = (Calibrator::new(10), Calibrator::new(10));
            for s in strategies {
                whole.observe(engine, s, queries, gt);
                parts.observe(engine, s, &queries[..split * 2], &gt[..split]);
                parts.observe(engine, s, &queries[split * 2..], &gt[split..]);
            }
            let (whole, parts) = (whole.finalize(), parts.finalize());
            for s in strategies {
                let bits = |m: &RecallModel| -> Vec<u32> {
                    m.raw_table(s)
                        .unwrap()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(bits(&whole), bits(&parts), "{}", s.name());
            }
        });
    }

    #[test]
    fn bins_cover_the_feature_space() {
        assert_eq!(rank_bin(0), 0);
        assert_eq!(rank_bin(1), 1);
        assert!(rank_bin(u64::MAX) == RANK_BINS - 1);
        assert_eq!(ratio_bin(0, 10), 0);
        assert!(ratio_bin(usize::MAX, 1) == RATIO_BINS - 1);
        assert_eq!(cost_bin(None), 0);
        assert_eq!(cost_bin(Some(0.0)), 1);
        assert!(cost_bin(Some(f32::MAX)) == COST_BINS - 1);
        assert!(bin_index(u64::MAX, usize::MAX, 1, Some(f32::MAX)) < MODEL_BINS);
    }

    #[test]
    fn calibration_covers_only_observed_strategies() {
        let model = calibrated_model(&[ProbeStrategy::GenerateQdRanking]);
        assert!(model.covers(ProbeStrategy::GenerateQdRanking));
        assert!(!model.covers(ProbeStrategy::HammingRanking));
        assert_eq!(model.calibrated_strategies(), vec!["GQR"]);
        assert!(model
            .controller(ProbeStrategy::HammingRanking, RecallTarget::new(0.9), 10)
            .is_none());
    }

    #[test]
    fn controller_prediction_is_monotone_and_clamped() {
        let model = calibrated_model(&[ProbeStrategy::GenerateQdRanking]);
        let mut c = model
            .controller(
                ProbeStrategy::GenerateQdRanking,
                RecallTarget::new(0.95),
                10,
            )
            .unwrap();
        let mut last = 0.0f32;
        // An adversarial zig-zag trajectory: rank and evaluated jump around.
        for step in 0..200u64 {
            let cost = if step % 7 == 0 {
                -1.0
            } else {
                (step % 13) as f64 * 0.17
            };
            c.observe(step * 37 % 1000, cost, (step as usize * 29) % 400);
            let p = c.predicted();
            assert!((0.0..=1.0).contains(&p), "prediction out of range: {p}");
            assert!(p >= last, "prediction decreased: {last} -> {p}");
            last = p;
        }
    }

    #[test]
    fn controller_never_stops_before_k_evaluated() {
        let model = calibrated_model(&[ProbeStrategy::GenerateQdRanking]);
        let mut c = model
            .controller(
                ProbeStrategy::GenerateQdRanking,
                RecallTarget::new(0.5).with_margin(0.0),
                10,
            )
            .unwrap();
        for rank in 0..50 {
            assert!(!c.observe(rank, 0.5, 9), "stopped with fewer than k items");
        }
    }

    #[test]
    fn wire_roundtrip_is_bit_identical() {
        let model = calibrated_model(&[
            ProbeStrategy::GenerateQdRanking,
            ProbeStrategy::HammingRanking,
            ProbeStrategy::MultiIndexHashing { blocks: 2 },
        ]);
        let mut w = ByteWriter::new();
        model.wire_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = RecallModel::wire_read(&mut r).unwrap();
        assert_eq!(model, back);
        let mut w2 = ByteWriter::new();
        back.wire_write(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "re-encode must be byte-identical");
    }

    #[test]
    fn wire_read_rejects_malformed_payloads() {
        let model = calibrated_model(&[ProbeStrategy::QdRanking]);
        let mut w = ByteWriter::new();
        model.wire_write(&mut w);
        let bytes = w.into_bytes();
        // Truncation fails.
        let mut r = ByteReader::new(&bytes[..bytes.len() / 2]);
        assert!(RecallModel::wire_read(&mut r).is_err());
        // k = 0 fails.
        let mut zeroed = bytes.clone();
        zeroed[..4].fill(0);
        assert!(RecallModel::wire_read(&mut ByteReader::new(&zeroed)).is_err());
        // An out-of-range value fails validation.
        let mut hot = bytes.clone();
        let len = hot.len();
        hot[len - 4..].copy_from_slice(&2.0f32.to_le_bytes());
        assert!(RecallModel::wire_read(&mut ByteReader::new(&hot)).is_err());
    }

    #[test]
    fn recall_target_validation() {
        assert!(RecallTarget::new(0.9).is_valid());
        assert!(RecallTarget::new(1.0).is_valid());
        assert!(!RecallTarget::new(0.0).is_valid());
        assert!(!RecallTarget::new(1.5).is_valid());
        assert!(!RecallTarget::new(f32::NAN).is_valid());
        assert!(!RecallTarget::new(0.9).with_margin(-0.1).is_valid());
        assert_eq!(RecallTarget::new(0.9).margin, RecallTarget::DEFAULT_MARGIN);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// An arbitrary valid model: each slot independently absent or a
        /// table of in-range values derived from a cheap hash of the bin
        /// index and a per-case salt (a full `vec(0.0..=1.0, 3024)`
        /// strategy per slot would dominate shrink time for no extra
        /// coverage).
        fn arb_model() -> impl Strategy<Value = RecallModel> {
            // `present` is a non-empty bitmask over the five slots; `salt`
            // seeds the per-bin values.
            (1u32..100, 1u32..=256, 1u32..32, 0u32..1_000_000).prop_map(|(k, m, present, salt)| {
                let mut tables: [Option<Box<[f32]>>; N_SLOTS] = Default::default();
                for (slot, table) in tables.iter_mut().enumerate() {
                    if present & (1 << slot) != 0 {
                        let values: Vec<f32> = (0..MODEL_BINS)
                            .map(|i| {
                                let h = (i as u32)
                                    .wrapping_mul(2654435761)
                                    .wrapping_add(salt.wrapping_mul(slot as u32 + 1));
                                (h % 1001) as f32 / 1000.0
                            })
                            .collect();
                        *table = Some(values.into_boxed_slice());
                    }
                }
                RecallModel { k, m, tables }
            })
        }

        proptest! {
            /// Along ANY step sequence — arbitrary ranks, costs (including
            /// the "unavailable" sentinel), and evaluated counts — the
            /// prediction never decreases and never leaves [0, 1].
            #[test]
            fn prediction_monotone_and_clamped(
                model in arb_model(),
                steps in proptest::collection::vec(
                    (0u64..100_000, -1.0f64..50.0, 0usize..10_000),
                    1..60,
                ),
                target in 0.01f32..1.0,
            ) {
                let strat = ProbeStrategy::GenerateQdRanking;
                prop_assume!(model.covers(strat));
                let mut c = model
                    .controller(strat, RecallTarget::new(target), 10)
                    .unwrap();
                let mut last = 0.0f32;
                for (rank, cost, evaluated) in steps {
                    c.observe(rank, cost, evaluated);
                    let p = c.predicted();
                    prop_assert!((0.0..=1.0).contains(&p));
                    prop_assert!(p >= last);
                    last = p;
                }
            }

            /// Encode → decode → re-encode is bit-identical for arbitrary
            /// models, and the decoded model is structurally equal.
            #[test]
            fn wire_roundtrip_bit_identical(model in arb_model()) {
                let mut w = ByteWriter::new();
                model.wire_write(&mut w);
                let bytes = w.into_bytes();
                let back = RecallModel::wire_read(&mut ByteReader::new(&bytes)).unwrap();
                prop_assert_eq!(&model, &back);
                let mut w2 = ByteWriter::new();
                back.wire_write(&mut w2);
                prop_assert_eq!(bytes, w2.into_bytes());
            }

            /// The stop decision is exactly `predicted ≥ target + margin`
            /// once k items are evaluated, and never fires before that.
            #[test]
            fn stop_requires_k_and_threshold(
                model in arb_model(),
                target in 0.01f32..1.0,
                margin in 0.0f32..0.2,
            ) {
                let strat = ProbeStrategy::HammingRanking;
                prop_assume!(model.covers(strat));
                let t = RecallTarget::new(target).with_margin(margin);
                let mut c = model.controller(strat, t, 10).unwrap();
                prop_assert!(!c.observe(0, 0.0, 9), "stopped below k evaluated");
                for rank in 0..40u64 {
                    let stopped = c.observe(rank, rank as f64 * 0.3, 10 + rank as usize * 20);
                    prop_assert_eq!(
                        stopped,
                        c.predicted() >= target + margin,
                        "stop decision inconsistent with threshold"
                    );
                    if stopped {
                        break;
                    }
                }
            }
        }
    }
}
