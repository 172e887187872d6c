//! The live snapshot from both sides of the file. A CRC-valid live snapshot
//! with exactly one fault loads to the typed [`PersistError`] for that
//! fault, never a panic; and a churned live index — MIH, recall model,
//! attribute store, a non-empty delta and tombstones — saves, reloads and
//! saves again to the same bytes.

use gqr_core::attrs::AttributeStore;
use gqr_core::engine::{ProbeStrategy, QueryEngine};
use gqr_core::live::MutableIndex;
use gqr_core::persist::{PersistError, SectionKind, SnapshotWriter};
use gqr_core::probe::mih::MihIndex;
use gqr_core::recall::Calibrator;
use gqr_core::table::HashTable;
use gqr_l2h::lsh::Lsh;
use gqr_l2h::HashModel;
use gqr_linalg::vecops::Metric;
use gqr_linalg::wire::ByteWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const DIM: usize = 2;
const ROWS: usize = 60;
const BLOCKS: usize = 3;

fn grid(n: usize) -> Vec<f32> {
    let mut data = Vec::new();
    for i in 0..n {
        data.push((i % 12) as f32 + 0.001 * ((i * 7) % 13) as f32);
        data.push((i / 12) as f32);
    }
    data
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gqr-live-snapshot-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every field of a live snapshot the faults below touch. [`Live::valid`]
/// loads; each fault changes exactly one thing.
#[derive(Clone)]
struct Live {
    /// Header code width, in bits (the codes are `u64` either way).
    width: usize,
    /// Base rows per shard (one table and one MIH section each).
    shards: Vec<usize>,
    /// Rows at the end of the first shard its table leaves out (none when
    /// slot-dense).
    uncovered: usize,
    /// The manifest's MIH flag for every shard.
    manifest_mih: bool,
    /// Whether MIH sections are written.
    mih_sections: bool,
    next_id: u32,
    id_step: u32,
    compaction_threshold: usize,
    live_mih: Option<usize>,
    base_ids: Vec<u32>,
    tombstones: Vec<u32>,
    delta_ids: Vec<u32>,
    delta_codes: Vec<u64>,
    delta_data: Vec<f32>,
}

impl Live {
    /// 60 base rows with identity ids and MIH, two delta rows (ids 60 and
    /// 61), a tombstone in each segment.
    fn valid(codes: &[u64]) -> Live {
        Live {
            width: 64,
            shards: vec![ROWS],
            uncovered: 0,
            manifest_mih: true,
            mih_sections: true,
            next_id: ROWS as u32 + 2,
            id_step: 1,
            compaction_threshold: 512,
            live_mih: Some(BLOCKS),
            base_ids: (0..ROWS as u32).collect(),
            tombstones: vec![5, ROWS as u32],
            delta_ids: vec![ROWS as u32, ROWS as u32 + 1],
            delta_codes: codes[..2].to_vec(),
            delta_data: vec![0.25, 0.5, 1.25, 1.5],
        }
    }

    fn write(&self, model: &Lsh, data: &[f32], path: &Path) {
        let mut w = SnapshotWriter::new();
        w.set_code_width(self.width);
        w.add_model(model).unwrap();
        let manifest: Vec<(usize, bool)> = self
            .shards
            .iter()
            .map(|&rows| (rows, self.manifest_mih))
            .collect();
        w.add_manifest(Metric::SquaredEuclidean, &manifest);
        w.add_vectors(data, DIM);
        let mut tables = Vec::new();
        let mut first = 0;
        for (i, &rows) in self.shards.iter().enumerate() {
            let covered = if i == 0 { rows - self.uncovered } else { rows };
            let slice = &data[first * DIM..(first + covered) * DIM];
            tables.push(HashTable::<u64>::build(model, slice, DIM));
            first += rows;
        }
        for table in &tables {
            w.add_table(table);
        }
        if self.mih_sections {
            for table in &tables {
                let codes = table.dense_codes();
                w.add_mih(&MihIndex::build(table.code_length(), &codes, BLOCKS));
            }
        }

        let mut b = ByteWriter::new();
        b.put_u32(self.next_id);
        b.put_u32(self.id_step);
        b.put_u64(9);
        b.put_usize(self.compaction_threshold);
        b.put_u8(u8::from(self.live_mih.is_some()));
        b.put_usize(self.live_mih.unwrap_or(0));
        b.put_u32_slice(&self.base_ids);
        b.put_u32_slice(&self.tombstones);
        w.add_section(SectionKind::LiveState, b.into_bytes());

        let mut d = ByteWriter::new();
        d.put_u32_slice(&self.delta_ids);
        d.put_u64_slice(&self.delta_codes);
        d.put_f32_slice(&self.delta_data);
        w.add_section(SectionKind::DeltaSegment, d.into_bytes());
        w.write(path).unwrap();
    }
}

/// The error a faulty file must load to.
#[derive(Debug)]
enum Want {
    WidthMismatch,
    WrongShardCount,
    Inconsistent,
    Corrupt(&'static str),
}

fn matches(err: &PersistError, want: &Want) -> bool {
    match (err, want) {
        (PersistError::WidthMismatch { found, expected }, Want::WidthMismatch) => {
            *found == 128 && *expected == 64
        }
        (PersistError::WrongShardCount { found, expected }, Want::WrongShardCount) => {
            *found == 2 && *expected == 1
        }
        (PersistError::Inconsistent { .. }, Want::Inconsistent) => true,
        (PersistError::Corrupt { section, .. }, Want::Corrupt(want)) => section == want,
        _ => false,
    }
}

#[test]
fn every_single_fault_loads_to_its_typed_error() {
    let dir = tmpdir("faults");
    let data = grid(ROWS);
    let model = Lsh::train(&data, DIM, 9, 5).unwrap();
    let codes = HashTable::<u64>::build(&model, &data, DIM).dense_codes();
    let valid = Live::valid(&codes);

    let path = dir.join("valid.gqr");
    valid.write(&model, &data, &path);
    let index: MutableIndex = MutableIndex::from_snapshot(&path).unwrap();
    assert_eq!(index.n_items(), ROWS, "60 + 2 rows, 2 tombstoned");

    type Fault = (&'static str, fn(&mut Live), Want);
    let faults: [Fault; 12] = [
        ("width mismatch", |l| l.width = 128, Want::WidthMismatch),
        (
            "two shards",
            |l| l.shards = vec![30, 30],
            Want::WrongShardCount,
        ),
        (
            "base table not slot-dense",
            |l| l.uncovered = 1,
            Want::Inconsistent,
        ),
        (
            "MIH flag disagrees with the MIH sections",
            |l| l.manifest_mih = false,
            Want::Inconsistent,
        ),
        (
            "id step zero",
            |l| l.id_step = 0,
            Want::Corrupt("live state"),
        ),
        (
            "compaction threshold zero",
            |l| l.compaction_threshold = 0,
            Want::Corrupt("live state"),
        ),
        (
            "delta ids and codes disagree",
            |l| {
                l.delta_codes.pop();
            },
            Want::Corrupt("delta segment"),
        ),
        (
            "delta vectors not rows × dim",
            |l| {
                l.delta_data.pop();
            },
            Want::Inconsistent,
        ),
        (
            "tombstone out of range",
            |l| l.tombstones = vec![5, ROWS as u32 + 2],
            Want::Inconsistent,
        ),
        (
            "duplicate tombstone",
            |l| l.tombstones = vec![5, 5],
            Want::Inconsistent,
        ),
        (
            "duplicate live external id",
            |l| l.delta_ids[1] = 7,
            Want::Inconsistent,
        ),
        (
            "live id at or beyond the allocator's next id",
            |l| l.next_id = ROWS as u32 + 1,
            Want::Inconsistent,
        ),
    ];
    for (i, (what, fault, want)) in faults.into_iter().enumerate() {
        let mut live = valid.clone();
        fault(&mut live);
        let path = dir.join(format!("fault{i}.gqr"));
        live.write(&model, &data, &path);
        match MutableIndex::<dyn HashModel, u64>::from_snapshot(&path) {
            Ok(_) => panic!("{what}: loaded"),
            Err(err) => assert!(matches(&err, &want), "{what}: got {err:?}, want {want:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A churned live index with every optional section writes the same bytes
/// after a reload: the loader keeps everything the writer wrote.
#[test]
fn save_load_save_is_byte_identical() {
    let dir = tmpdir("resave");
    let n = 400;
    let data = grid(n);
    let model = Lsh::train(&data, DIM, 9, 5).unwrap();

    let table: HashTable = HashTable::build(&model, &data, DIM);
    let mut engine = QueryEngine::new(&model, &table, &data, DIM);
    engine.enable_mih(BLOCKS);
    let queries: Vec<f32> = data[..20 * DIM].to_vec();
    let truth: Vec<Vec<u32>> = queries
        .chunks_exact(DIM)
        .map(|q| {
            let mut scored: Vec<(f32, u32)> = data
                .chunks_exact(DIM)
                .enumerate()
                .map(|(i, r)| ((r[0] - q[0]).powi(2) + (r[1] - q[1]).powi(2), i as u32))
                .collect();
            scored.sort_by(|a, b| a.partial_cmp(b).unwrap());
            scored[..5].iter().map(|&(_, id)| id).collect()
        })
        .collect();
    let mut calibrator = Calibrator::new(5).min_count(1);
    for strategy in [
        ProbeStrategy::GenerateQdRanking,
        ProbeStrategy::MultiIndexHashing { blocks: BLOCKS },
    ] {
        calibrator.observe(&engine, strategy, &queries, &truth);
    }
    let recall = calibrator.finalize();
    let attrs = AttributeStore::builder(n)
        .int_column("tag", (0..n as i64).map(|i| i % 7).collect())
        .unwrap()
        .build();

    let index: MutableIndex<Lsh> = MutableIndex::builder(Arc::new(model))
        .mih_blocks(BLOCKS)
        .compaction_threshold(64)
        .recall_model(recall)
        .attrs(attrs)
        .build(&data, DIM);
    let writer = index.writer();
    // Enough churn for one compaction, then a fresh delta and tombstones
    // in both segments on top of it.
    for j in 0..90u32 {
        let id = writer.insert(&[(j % 12) as f32 + 0.5, (j / 12) as f32 + 0.5]);
        if j % 9 == 0 {
            assert!(writer.delete(id));
        }
    }
    for id in (0..60).step_by(7) {
        writer.delete(id);
    }
    writer.upsert(3, &[40.0, 40.0]);
    let gen = index.pin();
    assert!(gen.delta_rows() > 0 && gen.n_tombstones() > 0, "{index:?}");
    assert!(
        gen.base_rows() > n,
        "a compaction folded rows into the base"
    );

    let (first, second) = (dir.join("first.gqr"), dir.join("second.gqr"));
    index.save_snapshot(&first).unwrap();
    let reloaded: MutableIndex = MutableIndex::from_snapshot(&first).unwrap();
    assert!(reloaded.recall_model().is_some() && reloaded.attrs().is_some());
    reloaded.save_snapshot(&second).unwrap();
    assert!(
        std::fs::read(&first).unwrap() == std::fs::read(&second).unwrap(),
        "a reloaded live index saves different bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}
