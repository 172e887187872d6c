//! Typed per-item attributes with posting-list indexes and a
//! selectivity-aware filter planner.
//!
//! An [`AttributeStore`] holds one value per indexed item per column —
//! `int` columns carry `i64`s, `tag` columns carry interned strings — and
//! indexes them for predicate evaluation:
//!
//! * every tag value and every value of a *low-cardinality* int column
//!   gets a compressed [`Bitmap`] posting list (exact, zero false
//!   negatives by construction);
//! * *high-cardinality* int columns (more than [`POSTINGS_MAX_DISTINCT`]
//!   distinct values) get a [`Bloom`] filter over their value set plus
//!   min/max bounds — a definite bloom miss or an out-of-bounds range
//!   proves a predicate empty without touching any row, and anything else
//!   falls through to the exact per-row check (bounded false positives,
//!   never a false negative).
//!
//! [`AttributeStore::plan`] turns a [`Predicate`] into one of three
//! execution arms, chosen from estimated selectivity:
//!
//! * **brute-force-over-bitmap** — the exact survivor set is smaller than
//!   the probe budget, so evaluating every survivor directly beats
//!   probing buckets at all;
//! * **pre-filter** — intersect the survivor bitmap during the probe:
//!   candidates failing `contains` are dropped before any distance is
//!   computed, and buckets with no survivors are skipped outright;
//! * **post-filter** — evaluate the predicate per candidate (exactly the
//!   legacy closure-filter path) when the predicate is barely selective
//!   or no exact bitmap is computable.
//!
//! All three arms return bit-identical results (see
//! `tests/predicate_equivalence.rs`); the planner only changes the cost.
//!
//! ```
//! use gqr_core::attrs::{AttributeStore, Predicate};
//!
//! let store = AttributeStore::builder(4)
//!     .tag_column("color", vec!["red", "blue", "red", "green"])
//!     .unwrap()
//!     .int_column("price", vec![10, 25, 10, 99])
//!     .unwrap()
//!     .build();
//! let pred = Predicate::and(vec![
//!     Predicate::eq("color", "red"),
//!     Predicate::range("price", None, Some(20)).unwrap(),
//! ])
//! .unwrap();
//! store.validate(&pred).unwrap();
//! assert!(store.matches(&pred, 0));
//! assert!(!store.matches(&pred, 1));
//! let survivors = store.exact_bitmap(&pred).unwrap();
//! assert_eq!(survivors.iter().collect::<Vec<_>>(), vec![0, 2]);
//! ```

mod bitmap;
mod bloom;
mod predicate;

pub use bitmap::Bitmap;
pub use bloom::Bloom;
pub use predicate::{AttrValue, Predicate, PredicateError};

use gqr_linalg::wire::{ByteReader, ByteWriter, WireError};
use std::collections::BTreeMap;

/// Above this many distinct values an int column stops building per-value
/// posting bitmaps and switches to the bloom/min-max summary.
pub const POSTINGS_MAX_DISTINCT: usize = 1024;

/// Above this (exact) selectivity the pre-filter arm stops paying: almost
/// every candidate survives, so the bitmap intersection is pure overhead
/// and the planner falls back to post-filtering.
const PRE_FILTER_MAX_SELECTIVITY: f64 = 0.5;

/// What a column holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnKind {
    /// 64-bit integers.
    Int,
    /// Interned strings.
    Tag,
}

impl ColumnKind {
    /// Schema name, as used in error messages and the CLI attrs header.
    pub fn name(&self) -> &'static str {
        match self {
            ColumnKind::Int => "int",
            ColumnKind::Tag => "tag",
        }
    }
}

#[derive(Clone, Debug)]
enum ColumnData {
    Int {
        /// One value per item.
        values: Vec<i64>,
        /// Per-value postings, sorted by value — `Some` iff the column is
        /// low-cardinality.
        postings: Option<Vec<(i64, Bitmap)>>,
        /// Value-set bloom — `Some` iff the column is high-cardinality.
        bloom: Option<Bloom>,
        /// Smallest value (0 when the column is empty).
        min: i64,
        /// Largest value (0 when the column is empty).
        max: i64,
        /// Distinct values.
        distinct: usize,
    },
    Tag {
        /// Symbol id per item, indexing into `symbols`.
        codes: Vec<u32>,
        /// Sorted, deduplicated symbol table.
        symbols: Vec<String>,
        /// Per-symbol postings, parallel to `symbols`.
        postings: Vec<Bitmap>,
    },
}

impl ColumnData {
    fn kind(&self) -> ColumnKind {
        match self {
            ColumnData::Int { .. } => ColumnKind::Int,
            ColumnData::Tag { .. } => ColumnKind::Tag,
        }
    }

    /// Index an int column: postings below the cardinality threshold,
    /// bloom + bounds above it.
    fn int_from_values(values: Vec<i64>) -> ColumnData {
        let mut by_value: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (id, &v) in values.iter().enumerate() {
            by_value.entry(v).or_default().push(id as u32);
        }
        let distinct = by_value.len();
        let min = by_value.keys().next().copied().unwrap_or(0);
        let max = by_value.keys().next_back().copied().unwrap_or(0);
        let (postings, bloom) = if distinct <= POSTINGS_MAX_DISTINCT {
            let postings = by_value
                .into_iter()
                .map(|(v, ids)| (v, Bitmap::from_sorted(&ids).expect("ids ascend")))
                .collect();
            (Some(postings), None)
        } else {
            let mut bloom = Bloom::with_capacity(distinct);
            for &v in by_value.keys() {
                bloom.insert(Bloom::hash_int(v));
            }
            (None, Some(bloom))
        };
        ColumnData::Int {
            values,
            postings,
            bloom,
            min,
            max,
            distinct,
        }
    }

    /// Index a tag column from its interned form (symbols sorted unique,
    /// `codes[id]` indexes into them).
    fn tag_from_parts(symbols: Vec<String>, codes: Vec<u32>) -> ColumnData {
        let mut ids_per_symbol: Vec<Vec<u32>> = vec![Vec::new(); symbols.len()];
        for (id, &code) in codes.iter().enumerate() {
            ids_per_symbol[code as usize].push(id as u32);
        }
        let postings = ids_per_symbol
            .into_iter()
            .map(|ids| Bitmap::from_sorted(&ids).expect("ids ascend"))
            .collect();
        ColumnData::Tag {
            codes,
            symbols,
            postings,
        }
    }
}

/// Why an [`AttributeStoreBuilder`] refused a column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrError {
    /// The column's value count differs from the store's item count.
    LengthMismatch {
        /// The offending column.
        column: String,
        /// Items the store was declared for.
        expected: usize,
        /// Values the column supplied.
        got: usize,
    },
    /// A column with this name already exists.
    DuplicateColumn {
        /// The duplicated name.
        column: String,
    },
    /// Column names must be non-empty.
    EmptyName,
    /// The store covers more items than the `u32` id space.
    TooManyItems {
        /// The requested item count.
        n: usize,
    },
}

impl std::fmt::Display for AttrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrError::LengthMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "column \"{column}\" supplies {got} values for {expected} items"
            ),
            AttrError::DuplicateColumn { column } => {
                write!(f, "column \"{column}\" already exists")
            }
            AttrError::EmptyName => write!(f, "column names must be non-empty"),
            AttrError::TooManyItems { n } => {
                write!(f, "id space is u32; store declared for {n} items")
            }
        }
    }
}

impl std::error::Error for AttrError {}

/// Builds an [`AttributeStore`] column by column, validating as it goes.
#[derive(Debug)]
pub struct AttributeStoreBuilder {
    n_items: usize,
    columns: Vec<(String, ColumnData)>,
}

impl AttributeStoreBuilder {
    fn check_new(&self, name: &str, got: usize) -> Result<(), AttrError> {
        if name.is_empty() {
            return Err(AttrError::EmptyName);
        }
        if self.columns.iter().any(|(n, _)| n == name) {
            return Err(AttrError::DuplicateColumn {
                column: name.to_string(),
            });
        }
        if got != self.n_items {
            return Err(AttrError::LengthMismatch {
                column: name.to_string(),
                expected: self.n_items,
                got,
            });
        }
        Ok(())
    }

    /// Add an `i64` column with one value per item.
    pub fn int_column(
        mut self,
        name: impl Into<String>,
        values: Vec<i64>,
    ) -> Result<Self, AttrError> {
        let name = name.into();
        self.check_new(&name, values.len())?;
        self.columns
            .push((name, ColumnData::int_from_values(values)));
        Ok(self)
    }

    /// Add a string tag column with one value per item; values are
    /// interned into a sorted symbol table.
    pub fn tag_column<S: AsRef<str>>(
        mut self,
        name: impl Into<String>,
        values: Vec<S>,
    ) -> Result<Self, AttrError> {
        let name = name.into();
        self.check_new(&name, values.len())?;
        let mut symbols: Vec<String> = values.iter().map(|s| s.as_ref().to_string()).collect();
        symbols.sort_unstable();
        symbols.dedup();
        let codes = values
            .iter()
            .map(|s| {
                symbols
                    .binary_search_by(|sym| sym.as_str().cmp(s.as_ref()))
                    .expect("every value was interned") as u32
            })
            .collect();
        self.columns
            .push((name, ColumnData::tag_from_parts(symbols, codes)));
        Ok(self)
    }

    /// Finish the store.
    pub fn build(self) -> AttributeStore {
        AttributeStore {
            n_items: self.n_items,
            columns: self.columns,
        }
    }
}

/// The chosen execution arm for one filtered query (see the module docs
/// for when each wins).
#[derive(Clone, Debug)]
pub enum FilterPlan {
    /// Evaluate every survivor in the bitmap directly; skip probing.
    BruteForce {
        /// The exact survivor set.
        survivors: Bitmap,
    },
    /// Probe as usual, dropping candidates absent from the bitmap before
    /// any distance computation.
    PreFilter {
        /// The exact survivor set.
        survivors: Bitmap,
    },
    /// Probe as usual, evaluating the predicate per candidate (the legacy
    /// closure path).
    PostFilter,
}

impl FilterPlan {
    /// Metric-label name of the arm (`"brute"`, `"pre"`, `"post"`).
    pub fn name(&self) -> &'static str {
        match self {
            FilterPlan::BruteForce { .. } => "brute",
            FilterPlan::PreFilter { .. } => "pre",
            FilterPlan::PostFilter => "post",
        }
    }

    /// Stable numeric tag for trace markers (0 = brute, 1 = pre, 2 = post).
    pub fn tag(&self) -> u64 {
        match self {
            FilterPlan::BruteForce { .. } => 0,
            FilterPlan::PreFilter { .. } => 1,
            FilterPlan::PostFilter => 2,
        }
    }
}

/// A planner decision: the arm plus the selectivity estimate that chose
/// it (exact when an exact bitmap was computable).
#[derive(Clone, Debug)]
pub struct PlanChoice {
    /// The chosen arm.
    pub plan: FilterPlan,
    /// Estimated fraction of items surviving the predicate, in `[0, 1]`.
    pub selectivity: f64,
}

/// Typed per-item attributes: the queryable side tables behind structured
/// predicate filtering. Item ids are the engine's row ids; items at or
/// beyond [`AttributeStore::n_items`] (e.g. rows appended to a mutable
/// index after the store was built) match **no** predicate, negations
/// included — absent attributes never satisfy a filter.
#[derive(Clone, Debug)]
pub struct AttributeStore {
    n_items: usize,
    columns: Vec<(String, ColumnData)>,
}

impl AttributeStore {
    /// Start building a store for `n_items` items.
    pub fn builder(n_items: usize) -> AttributeStoreBuilder {
        assert!(
            n_items <= u32::MAX as usize,
            "id space is u32; store declared for {n_items} items"
        );
        AttributeStoreBuilder {
            n_items,
            columns: Vec::new(),
        }
    }

    /// Items the store describes.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column names and kinds, in insertion order.
    pub fn columns(&self) -> impl Iterator<Item = (&str, ColumnKind)> + '_ {
        self.columns.iter().map(|(n, c)| (n.as_str(), c.kind()))
    }

    /// The named column's kind, if it exists.
    pub fn column_kind(&self, name: &str) -> Option<ColumnKind> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.kind())
    }

    fn column(&self, name: &str) -> &ColumnData {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .unwrap_or_else(|| panic!("unknown column \"{name}\" (validate the predicate first)"))
    }

    /// Check `pred` against this store's schema (and its structure, via
    /// [`Predicate::check_shape`]): every execution surface calls this
    /// before searching, so schema errors surface as typed rejections,
    /// never mid-probe panics.
    pub fn validate(&self, pred: &Predicate) -> Result<(), PredicateError> {
        pred.check_shape()?;
        self.validate_schema(pred)
    }

    fn validate_schema(&self, pred: &Predicate) -> Result<(), PredicateError> {
        let kind_of = |column: &String| {
            self.column_kind(column)
                .ok_or_else(|| PredicateError::UnknownColumn {
                    column: column.clone(),
                })
        };
        let check_value = |column: &String, kind: ColumnKind, value: &AttrValue| match (kind, value)
        {
            (ColumnKind::Int, AttrValue::Int(_)) | (ColumnKind::Tag, AttrValue::Str(_)) => Ok(()),
            (kind, _) => Err(PredicateError::TypeMismatch {
                column: column.clone(),
                expected: kind.name(),
            }),
        };
        match pred {
            Predicate::Eq { column, value } => check_value(column, kind_of(column)?, value),
            Predicate::In { column, values } => {
                let kind = kind_of(column)?;
                values.iter().try_for_each(|v| check_value(column, kind, v))
            }
            Predicate::Range { column, .. } => match kind_of(column)? {
                ColumnKind::Int => Ok(()),
                ColumnKind::Tag => Err(PredicateError::TypeMismatch {
                    column: column.clone(),
                    expected: ColumnKind::Tag.name(),
                }),
            },
            Predicate::And(args) | Predicate::Or(args) => {
                args.iter().try_for_each(|p| self.validate_schema(p))
            }
            Predicate::Not(arg) => self.validate_schema(arg),
        }
    }

    /// Whether item `id` satisfies `pred`. Ids at or beyond
    /// [`AttributeStore::n_items`] never match. Panics on a predicate that
    /// fails [`AttributeStore::validate`].
    pub fn matches(&self, pred: &Predicate, id: u32) -> bool {
        if id as usize >= self.n_items {
            return false;
        }
        self.eval(pred, id)
    }

    fn eval(&self, pred: &Predicate, id: u32) -> bool {
        match pred {
            Predicate::Eq { column, value } => self.eval_eq(column, value, id),
            Predicate::In { column, values } => values.iter().any(|v| self.eval_eq(column, v, id)),
            Predicate::Range { column, min, max } => match self.column(column) {
                ColumnData::Int { values, .. } => {
                    let v = values[id as usize];
                    min.is_none_or(|lo| v >= lo) && max.is_none_or(|hi| v <= hi)
                }
                ColumnData::Tag { .. } => panic!("range over a tag column (validate first)"),
            },
            Predicate::And(args) => args.iter().all(|p| self.eval(p, id)),
            Predicate::Or(args) => args.iter().any(|p| self.eval(p, id)),
            Predicate::Not(arg) => !self.eval(arg, id),
        }
    }

    fn eval_eq(&self, column: &str, value: &AttrValue, id: u32) -> bool {
        match (self.column(column), value) {
            (ColumnData::Int { values, .. }, AttrValue::Int(v)) => values[id as usize] == *v,
            (ColumnData::Tag { codes, symbols, .. }, AttrValue::Str(s)) => symbols
                .binary_search_by(|sym| sym.as_str().cmp(s.as_str()))
                .is_ok_and(|sym_id| codes[id as usize] == sym_id as u32),
            _ => panic!("value type does not match column (validate first)"),
        }
    }

    /// The exact survivor set, when it is computable from the posting
    /// indexes alone (every leaf either posting-backed or provably empty).
    /// `None` means at least one leaf would need a full column scan —
    /// the planner then stays on the post-filter arm. A `Some` result has
    /// zero false negatives *and* zero false positives: it is the ground
    /// truth the equivalence tests compare every arm against.
    pub fn exact_bitmap(&self, pred: &Predicate) -> Option<Bitmap> {
        match pred {
            Predicate::And(args) => {
                let mut acc: Option<Bitmap> = None;
                for p in args {
                    let bm = self.exact_bitmap(p)?;
                    acc = Some(match acc {
                        Some(acc) => acc.and(&bm),
                        None => bm,
                    });
                }
                acc
            }
            Predicate::Or(args) => {
                let parts: Option<Vec<Bitmap>> =
                    args.iter().map(|p| self.exact_bitmap(p)).collect();
                Some(Bitmap::union_all(&parts?))
            }
            Predicate::Not(arg) => Some(self.exact_bitmap(arg)?.complement(self.n_items as u32)),
            leaf => self.leaf_postings(leaf).map(Bitmap::union_all),
        }
    }

    /// The posting lists whose union is exactly the survivor set of a leaf
    /// (`Eq`, `In`, `Range`), each list once. `None` for `And`/`Or`/`Not`
    /// and for a leaf that would need a column scan. A row holds one value
    /// per column, so the lists are disjoint and their lengths sum to the
    /// survivor count.
    fn leaf_postings(&self, pred: &Predicate) -> Option<Vec<&Bitmap>> {
        match pred {
            Predicate::Eq { column, value } => {
                Some(self.eq_posting(column, value)?.into_iter().collect())
            }
            Predicate::In { column, values } => {
                let mut lists = Vec::new();
                for v in values {
                    lists.extend(self.eq_posting(column, v)?);
                }
                // A value listed twice names its posting list once.
                lists.sort_unstable_by_key(|bm| *bm as *const Bitmap);
                lists.dedup_by(|a, b| std::ptr::eq(*a, *b));
                Some(lists)
            }
            Predicate::Range { column, min, max } => match self.column(column) {
                ColumnData::Int {
                    postings: Some(postings),
                    ..
                } => {
                    let lo = postings.partition_point(|(v, _)| min.is_some_and(|m| *v < m));
                    let hi = postings.partition_point(|(v, _)| max.is_none_or(|m| *v <= m));
                    Some(postings[lo..hi].iter().map(|(_, bm)| bm).collect())
                }
                ColumnData::Int {
                    min: col_min,
                    max: col_max,
                    ..
                } => {
                    // High-cardinality: only a provably-empty range is
                    // exact without a scan.
                    let empty =
                        min.is_some_and(|lo| lo > *col_max) || max.is_some_and(|hi| hi < *col_min);
                    empty.then(Vec::new)
                }
                ColumnData::Tag { .. } => panic!("range over a tag column (validate first)"),
            },
            Predicate::And(_) | Predicate::Or(_) | Predicate::Not(_) => None,
        }
    }

    /// The posting list of `column = value`: one list, or none when the
    /// value is provably absent. `None` when only a scan can tell.
    fn eq_posting(&self, column: &str, value: &AttrValue) -> Option<Option<&Bitmap>> {
        match (self.column(column), value) {
            (
                ColumnData::Int {
                    postings: Some(postings),
                    ..
                },
                AttrValue::Int(v),
            ) => Some(
                postings
                    .binary_search_by_key(v, |(pv, _)| *pv)
                    .ok()
                    .map(|i| &postings[i].1),
            ),
            (
                ColumnData::Int {
                    bloom: Some(bloom), ..
                },
                AttrValue::Int(v),
            ) => {
                // A definite bloom miss proves the value absent — the
                // survivor set is exactly empty. A "maybe" needs a scan.
                (!bloom.contains(Bloom::hash_int(*v))).then_some(None)
            }
            (
                ColumnData::Tag {
                    symbols, postings, ..
                },
                AttrValue::Str(s),
            ) => Some(
                symbols
                    .binary_search_by(|sym| sym.as_str().cmp(s.as_str()))
                    .ok()
                    .map(|i| &postings[i]),
            ),
            _ => panic!("value type does not match column (validate first)"),
        }
    }

    /// Estimate the fraction of items surviving `pred`, in `[0, 1]`.
    /// Exact for posting-backed leaves; uniform-distribution assumptions
    /// for high-cardinality leaves; independence assumptions across
    /// `And`/`Or`. Cheap — touches only index summaries, never rows.
    pub fn selectivity(&self, pred: &Predicate) -> f64 {
        if self.n_items == 0 {
            return 0.0;
        }
        let n = self.n_items as f64;
        let s = match pred {
            Predicate::Eq { column, value } => self.eq_selectivity(column, value),
            Predicate::In { column, values } => values
                .iter()
                .map(|v| self.eq_selectivity(column, v))
                .sum::<f64>(),
            Predicate::Range { column, min, max } => match self.column(column) {
                ColumnData::Int {
                    postings: Some(postings),
                    ..
                } => {
                    let lo = postings.partition_point(|(v, _)| min.is_some_and(|m| *v < m));
                    let hi = postings.partition_point(|(v, _)| max.is_none_or(|m| *v <= m));
                    postings[lo..hi]
                        .iter()
                        .map(|(_, bm)| bm.len() as f64)
                        .sum::<f64>()
                        / n
                }
                ColumnData::Int {
                    min: col_min,
                    max: col_max,
                    ..
                } => {
                    // Uniform-over-span assumption for unindexed values.
                    let span = (*col_max - *col_min) as f64 + 1.0;
                    let lo = min.map_or(*col_min, |m| m.max(*col_min));
                    let hi = max.map_or(*col_max, |m| m.min(*col_max));
                    if lo > hi {
                        0.0
                    } else {
                        ((hi - lo) as f64 + 1.0) / span
                    }
                }
                ColumnData::Tag { .. } => panic!("range over a tag column (validate first)"),
            },
            Predicate::And(args) => args.iter().map(|p| self.selectivity(p)).product(),
            Predicate::Or(args) => {
                1.0 - args
                    .iter()
                    .map(|p| 1.0 - self.selectivity(p))
                    .product::<f64>()
            }
            Predicate::Not(arg) => 1.0 - self.selectivity(arg),
        };
        s.clamp(0.0, 1.0)
    }

    fn eq_selectivity(&self, column: &str, value: &AttrValue) -> f64 {
        let n = self.n_items as f64;
        match (self.column(column), value) {
            (
                ColumnData::Int {
                    postings: Some(postings),
                    ..
                },
                AttrValue::Int(v),
            ) => postings
                .binary_search_by_key(v, |(pv, _)| *pv)
                .map(|i| postings[i].1.len() as f64 / n)
                .unwrap_or(0.0),
            (
                ColumnData::Int {
                    bloom: Some(bloom),
                    distinct,
                    ..
                },
                AttrValue::Int(v),
            ) => {
                if bloom.contains(Bloom::hash_int(*v)) {
                    // Uniform assumption: each present value claims an
                    // equal share of the rows.
                    1.0 / *distinct as f64
                } else {
                    0.0
                }
            }
            (
                ColumnData::Tag {
                    symbols, postings, ..
                },
                AttrValue::Str(s),
            ) => symbols
                .binary_search_by(|sym| sym.as_str().cmp(s.as_str()))
                .map(|i| postings[i].len() as f64 / n)
                .unwrap_or(0.0),
            _ => panic!("value type does not match column (validate first)"),
        }
    }

    /// Choose the execution arm for `pred` given the query's candidate
    /// budget. `brute_budget` is the number of exact evaluations the
    /// probe path would be willing to spend; a survivor set no larger
    /// than that is cheaper to evaluate outright than to find through
    /// bucket probing.
    ///
    /// A leaf's survivor count is the sum of its disjoint posting lengths,
    /// so its bitmap is built only for the arms that use it.
    pub fn plan(&self, pred: &Predicate, brute_budget: usize) -> PlanChoice {
        let (count, built) = match self.leaf_postings(pred) {
            Some(lists) => (lists.iter().map(|bm| bm.len()).sum(), None),
            None => match self.exact_bitmap(pred) {
                Some(bm) => (bm.len(), Some(bm)),
                None => {
                    return PlanChoice {
                        plan: FilterPlan::PostFilter,
                        selectivity: self.selectivity(pred),
                    }
                }
            },
        };
        let survivors = || {
            built.unwrap_or_else(|| {
                Bitmap::union_all(self.leaf_postings(pred).expect("an exact leaf"))
            })
        };
        let selectivity = count as f64 / (self.n_items as f64).max(1.0);
        let plan = if count <= brute_budget as u64 {
            FilterPlan::BruteForce {
                survivors: survivors(),
            }
        } else if selectivity <= PRE_FILTER_MAX_SELECTIVITY {
            FilterPlan::PreFilter {
                survivors: survivors(),
            }
        } else {
            FilterPlan::PostFilter
        };
        PlanChoice { plan, selectivity }
    }

    /// Serialize the store. Only the raw columns are written — posting
    /// bitmaps, blooms, and bounds are rebuilt deterministically on read,
    /// so the on-disk form is canonical and the round trip bit-identical.
    pub fn wire_write(&self, w: &mut ByteWriter) {
        w.put_usize(self.n_items);
        w.put_usize(self.columns.len());
        for (name, col) in &self.columns {
            w.put_usize(name.len());
            w.put_bytes(name.as_bytes());
            match col {
                ColumnData::Int { values, .. } => {
                    w.put_u8(0);
                    let raw: Vec<u64> = values.iter().map(|&v| v as u64).collect();
                    w.put_u64_slice(&raw);
                }
                ColumnData::Tag { codes, symbols, .. } => {
                    w.put_u8(1);
                    w.put_usize(symbols.len());
                    for sym in symbols {
                        w.put_usize(sym.len());
                        w.put_bytes(sym.as_bytes());
                    }
                    w.put_u32_slice(codes);
                }
            }
        }
    }

    /// Deserialize with full structural validation (lengths, unique
    /// non-empty names, sorted symbol tables, in-range codes), then
    /// rebuild the posting indexes.
    pub fn wire_read(r: &mut ByteReader<'_>) -> Result<AttributeStore, WireError> {
        let n_items = r.get_usize()?;
        if n_items > u32::MAX as usize {
            return Err(WireError::Malformed("item count exceeds the u32 id space"));
        }
        let n_columns = r.get_len(2)?;
        let mut columns: Vec<(String, ColumnData)> = Vec::with_capacity(n_columns);
        for _ in 0..n_columns {
            let name_len = r.get_len(1)?;
            let name = std::str::from_utf8(r.get_bytes(name_len)?)
                .map_err(|_| WireError::Malformed("column name is not UTF-8"))?
                .to_string();
            if name.is_empty() {
                return Err(WireError::Malformed("column name is empty"));
            }
            if columns.iter().any(|(n, _)| *n == name) {
                return Err(WireError::Malformed("duplicate column name"));
            }
            let col = match r.get_u8()? {
                0 => {
                    let raw = r.get_u64_vec()?;
                    if raw.len() != n_items {
                        return Err(WireError::Malformed("int column length mismatch"));
                    }
                    let values: Vec<i64> = raw.into_iter().map(|v| v as i64).collect();
                    ColumnData::int_from_values(values)
                }
                1 => {
                    let n_symbols = r.get_len(1)?;
                    let mut symbols = Vec::with_capacity(n_symbols);
                    for _ in 0..n_symbols {
                        let len = r.get_len(1)?;
                        let sym = std::str::from_utf8(r.get_bytes(len)?)
                            .map_err(|_| WireError::Malformed("symbol is not UTF-8"))?
                            .to_string();
                        if symbols.last().is_some_and(|prev: &String| *prev >= sym) {
                            return Err(WireError::Malformed("symbol table not sorted unique"));
                        }
                        symbols.push(sym);
                    }
                    let codes = r.get_u32_vec()?;
                    if codes.len() != n_items {
                        return Err(WireError::Malformed("tag column length mismatch"));
                    }
                    if codes.iter().any(|&c| c as usize >= symbols.len()) {
                        return Err(WireError::Malformed("tag code out of symbol range"));
                    }
                    ColumnData::tag_from_parts(symbols, codes)
                }
                _ => return Err(WireError::Malformed("unknown column kind tag")),
            };
            columns.push((name, col));
        }
        Ok(AttributeStore { n_items, columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> AttributeStore {
        AttributeStore::builder(100)
            .tag_column(
                "color",
                (0..100)
                    .map(|i| ["red", "green", "blue", "gold"][i % 4])
                    .collect(),
            )
            .unwrap()
            .int_column("price", (0..100).map(|i| (i as i64 % 10) * 5).collect())
            .unwrap()
            .int_column("uid", (0..100).map(|i| i as i64 * 1_000_003).collect())
            .unwrap()
            .build()
    }

    /// Force a high-cardinality column regardless of [`POSTINGS_MAX_DISTINCT`].
    fn high_card_store() -> AttributeStore {
        let n = POSTINGS_MAX_DISTINCT + 100;
        AttributeStore::builder(n)
            .int_column("uid", (0..n).map(|i| i as i64 * 7).collect())
            .unwrap()
            .build()
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            AttributeStore::builder(3)
                .int_column("p", vec![1, 2])
                .unwrap_err(),
            AttrError::LengthMismatch {
                column: "p".into(),
                expected: 3,
                got: 2
            }
        );
        assert_eq!(
            AttributeStore::builder(1)
                .int_column("p", vec![1])
                .unwrap()
                .tag_column("p", vec!["x"])
                .unwrap_err(),
            AttrError::DuplicateColumn { column: "p".into() }
        );
        assert_eq!(
            AttributeStore::builder(0)
                .int_column("", vec![])
                .unwrap_err(),
            AttrError::EmptyName
        );
    }

    #[test]
    fn validate_rejects_schema_violations() {
        let s = store();
        assert!(matches!(
            s.validate(&Predicate::eq("nope", 1)),
            Err(PredicateError::UnknownColumn { .. })
        ));
        assert!(matches!(
            s.validate(&Predicate::eq("price", "red")),
            Err(PredicateError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.validate(&Predicate::eq("color", 3)),
            Err(PredicateError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.validate(&Predicate::range("color", Some(0), None).unwrap()),
            Err(PredicateError::TypeMismatch { .. })
        ));
        assert!(s
            .validate(&Predicate::eq("color", "violet"))
            .is_ok_and(|()| true)); // unknown *value* is fine — matches nothing
    }

    #[test]
    fn matches_agrees_with_exact_bitmap() {
        let s = store();
        let preds = [
            Predicate::eq("color", "red"),
            Predicate::eq("color", "violet"),
            Predicate::is_in("price", vec![0.into(), 25.into()]).unwrap(),
            Predicate::range("price", Some(10), Some(30)).unwrap(),
            Predicate::and(vec![
                Predicate::eq("color", "red"),
                Predicate::range("price", None, Some(20)).unwrap(),
            ])
            .unwrap(),
            Predicate::or(vec![
                Predicate::eq("color", "blue"),
                Predicate::eq("color", "gold"),
            ])
            .unwrap(),
            Predicate::negate(Predicate::eq("color", "red")),
        ];
        for pred in &preds {
            s.validate(pred).unwrap();
            let bm = s.exact_bitmap(pred).expect("posting-backed leaves");
            let expected: Vec<u32> = (0..100).filter(|&id| s.matches(pred, id)).collect();
            assert_eq!(bm.iter().collect::<Vec<_>>(), expected, "{pred:?}");
            // Leaf predicates over posting-backed columns estimate
            // exactly; composites use independence assumptions, so only
            // require them in [0, 1].
            let sel = s.selectivity(pred);
            if matches!(
                pred,
                Predicate::Eq { .. } | Predicate::In { .. } | Predicate::Range { .. }
            ) {
                assert!(
                    (sel - expected.len() as f64 / 100.0).abs() < 1e-9,
                    "exact leaf selectivity: {pred:?}"
                );
            } else {
                assert!((0.0..=1.0).contains(&sel), "{pred:?}");
            }
        }
    }

    #[test]
    fn out_of_range_ids_never_match() {
        let s = store();
        let pred = Predicate::negate(Predicate::eq("color", "violet")); // matches all in-range
        assert!(s.matches(&pred, 99));
        assert!(!s.matches(&pred, 100));
        assert!(!s.matches(&pred, u32::MAX));
    }

    #[test]
    fn high_cardinality_uses_bloom_not_postings() {
        let s = high_card_store();
        // Present value: no exact bitmap (would need a scan) → post arm.
        let present = Predicate::eq("uid", 7 * 50);
        assert!(s.exact_bitmap(&present).is_none());
        assert!(matches!(s.plan(&present, 10).plan, FilterPlan::PostFilter));
        assert!(s.matches(&present, 50));
        // Bloom-definite-absent value: exactly empty → brute over nothing.
        let absent = Predicate::eq("uid", 3); // 3 is not a multiple of 7
        if let Some(bm) = s.exact_bitmap(&absent) {
            assert!(bm.is_empty());
            assert!(matches!(
                s.plan(&absent, 10).plan,
                FilterPlan::BruteForce { .. }
            ));
        }
        // Out-of-bounds range is provably empty even without postings.
        let oob = Predicate::range("uid", Some(i64::MAX - 10), None).unwrap();
        assert!(s.exact_bitmap(&oob).is_some_and(|bm| bm.is_empty()));
    }

    #[test]
    fn counted_plans_keep_the_or_chain_selectivity() {
        // A leaf's selectivity is the sum of its disjoint posting lengths;
        // it must equal the length of the union the lists OR into.
        let cases = [
            (store(), Predicate::eq("color", "red")),
            (store(), Predicate::eq("price", 15)),
            (store(), Predicate::eq("price", 7)),
            (
                store(),
                Predicate::is_in("color", vec!["red".into(), "gold".into(), "red".into()]).unwrap(),
            ),
            (
                store(),
                Predicate::is_in(
                    "price",
                    vec![0.into(), 5.into(), 5.into(), 45.into(), 99.into()],
                )
                .unwrap(),
            ),
            (
                store(),
                Predicate::range("price", Some(10), Some(30)).unwrap(),
            ),
            (store(), Predicate::range("price", Some(40), None).unwrap()),
            (store(), Predicate::range("price", None, Some(-1)).unwrap()),
            (store(), Predicate::range("uid", Some(0), None).unwrap()),
            (
                high_card_store(),
                Predicate::range("uid", Some(-9), Some(-1)).unwrap(),
            ),
        ];
        for (s, pred) in &cases {
            let lists = s.leaf_postings(pred).expect("posting-exact leaf");
            let chain = lists.iter().fold(Bitmap::new(), |acc, bm| acc.or(bm));
            let truth: Vec<u32> = (0..s.n_items() as u32)
                .filter(|&id| s.matches(pred, id))
                .collect();
            assert_eq!(chain.iter().collect::<Vec<_>>(), truth, "{pred:?}");
            assert_eq!(s.exact_bitmap(pred), Some(chain.clone()), "{pred:?}");
            let selectivity = chain.len() as f64 / (s.n_items() as f64).max(1.0);
            for budget in [0, 10, 30, 1_000] {
                let choice = s.plan(pred, budget);
                assert_eq!(
                    choice.selectivity.to_bits(),
                    selectivity.to_bits(),
                    "{pred:?}"
                );
                match choice.plan {
                    FilterPlan::BruteForce { survivors } => {
                        assert!(chain.len() <= budget as u64);
                        assert_eq!(survivors, chain, "{pred:?}");
                    }
                    FilterPlan::PreFilter { survivors } => {
                        assert!(chain.len() > budget as u64);
                        assert!(selectivity <= PRE_FILTER_MAX_SELECTIVITY);
                        assert_eq!(survivors, chain, "{pred:?}");
                    }
                    FilterPlan::PostFilter => {
                        assert!(
                            selectivity > PRE_FILTER_MAX_SELECTIVITY && chain.len() > budget as u64
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn planner_picks_the_expected_arm() {
        let s = store();
        // 25 of 100 match; budget 30 covers them → brute.
        let red = Predicate::eq("color", "red");
        let choice = s.plan(&red, 30);
        assert!(matches!(choice.plan, FilterPlan::BruteForce { .. }));
        assert!((choice.selectivity - 0.25).abs() < 1e-9);
        // Budget 10 does not → pre-filter (selectivity 0.25 ≤ 0.5).
        assert!(matches!(
            s.plan(&red, 10).plan,
            FilterPlan::PreFilter { .. }
        ));
        // ¬red has selectivity 0.75 → post-filter.
        let not_red = Predicate::negate(red);
        let choice = s.plan(&not_red, 10);
        assert!(matches!(choice.plan, FilterPlan::PostFilter));
        assert!((choice.selectivity - 0.75).abs() < 1e-9);
    }

    #[test]
    fn wire_roundtrip_is_bit_identical() {
        for s in [
            store(),
            high_card_store(),
            AttributeStore::builder(0).build(),
        ] {
            let mut w = ByteWriter::new();
            s.wire_write(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = AttributeStore::wire_read(&mut r).unwrap();
            r.expect_end().unwrap();
            let mut w2 = ByteWriter::new();
            back.wire_write(&mut w2);
            assert_eq!(bytes, w2.into_bytes());
            assert_eq!(s.n_items(), back.n_items());
            assert_eq!(
                s.columns().collect::<Vec<_>>(),
                back.columns().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn wire_read_rejects_structural_corruption() {
        let s = store();
        let mut w = ByteWriter::new();
        s.wire_write(&mut w);
        let good = w.into_bytes();
        // Truncations at every prefix must error, never panic.
        for cut in 0..good.len().min(64) {
            let mut r = ByteReader::new(&good[..cut]);
            assert!(AttributeStore::wire_read(&mut r).is_err(), "cut={cut}");
        }
    }
}
