//! The `HashModel` contract, enforced across every trainer: the querying
//! layer (GQR in particular) relies on these invariants.

use gqr_l2h::isoh::IsoHash;
use gqr_l2h::itq::Itq;
use gqr_l2h::kmh::KmeansHashing;
use gqr_l2h::lsh::Lsh;
use gqr_l2h::pcah::Pcah;
use gqr_l2h::sh::SpectralHashing;
use gqr_l2h::ssh::{pairs_from_labels, Ssh};
use gqr_l2h::{HashModel, TrainError, MAX_CODE_LENGTH};
use proptest::prelude::*;

fn train_all(data: &[f32], dim: usize, m: usize) -> Vec<Box<dyn HashModel>> {
    let labels: Vec<u32> = (0..data.len() / dim).map(|i| (i % 3) as u32).collect();
    let pairs = pairs_from_labels(&labels, 5);
    vec![
        Box::new(Lsh::train(data, dim, m, 1).unwrap()),
        Box::new(Pcah::train(data, dim, m.min(dim)).unwrap()),
        Box::new(Itq::train(data, dim, m.min(dim)).unwrap()),
        Box::new(SpectralHashing::train(data, dim, m).unwrap()),
        Box::new(KmeansHashing::train(data, dim, m.min(dim * 4)).unwrap()),
        Box::new(Ssh::train(data, dim, m.min(dim), &pairs).unwrap()),
        Box::new(IsoHash::train(data, dim, m.min(dim)).unwrap()),
    ]
}

#[test]
fn out_of_range_code_lengths_are_typed_errors() {
    // The m ≤ 64 ceiling used to be a silent truncation; now every trainer
    // validates against MAX_CODE_LENGTH and reports a typed error.
    let dim = 4;
    let data: Vec<f32> = (0..40 * dim).map(|i| (i % 13) as f32 * 0.3).collect();
    for m in [0usize, MAX_CODE_LENGTH + 1, MAX_CODE_LENGTH * 2] {
        assert!(
            matches!(
                Lsh::train(&data, dim, m, 1),
                Err(TrainError::BadCodeLength { .. })
            ),
            "LSH accepted m = {m}"
        );
        assert!(
            matches!(
                SpectralHashing::train(&data, dim, m),
                Err(TrainError::BadCodeLength { .. })
            ),
            "SH accepted m = {m}"
        );
        assert!(
            matches!(
                Pcah::train(&data, dim, m),
                Err(TrainError::BadCodeLength { .. })
            ),
            "PCAH accepted m = {m}"
        );
    }
}

/// Deterministic `n × dim` rows with repeated values (exact ties).
fn grid_rows(n: usize, dim: usize) -> Vec<f32> {
    (0..n * dim)
        .map(|i| ((i * 37 + i / dim) % 29) as f32 * 0.4 - 5.0)
        .collect()
}

#[test]
fn non_finite_training_rows_are_typed_errors() {
    // A NaN or an infinity used to reach the covariance: the eigen solver
    // then ran all its sweeps on NaNs and panicked sorting the eigenvalues.
    let dim = 4;
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut data = grid_rows(60, dim);
        data[7 * dim + 2] = bad;
        data[20 * dim] = bad;
        let pairs = pairs_from_labels(&(0..60).map(|i| i % 3).collect::<Vec<u32>>(), 5);
        let results: [(&str, Result<(), TrainError>); 7] = [
            ("LSH", Lsh::train(&data, dim, 3, 1).map(drop)),
            ("PCAH", Pcah::train(&data, dim, 3).map(drop)),
            ("ITQ", Itq::train(&data, dim, 3).map(drop)),
            ("SH", SpectralHashing::train(&data, dim, 3).map(drop)),
            ("KMH", KmeansHashing::train(&data, dim, 3).map(drop)),
            ("SSH", Ssh::train(&data, dim, 3, &pairs).map(drop)),
            ("IsoHash", IsoHash::train(&data, dim, 3).map(drop)),
        ];
        for (name, result) in results {
            assert_eq!(
                result,
                Err(TrainError::NonFiniteData { row: 7 }),
                "{name} on a {bad} row"
            );
        }
    }
}

#[test]
fn bulk_encoding_equals_per_row_encoding_for_every_model() {
    // `encode_rows` is the indexing path of every table build; it must give
    // each row the code `encode_wide` gives it. Row counts straddle the
    // 16-row lane blocks of the linear models.
    let dim = 6;
    let data = grid_rows(70, dim);
    let mut models = train_all(&data, dim, 5);
    models.push(Box::new(Lsh::train(&data, dim, 100, 3).unwrap()));
    models.push(Box::new(
        Lsh::train(&data, dim, MAX_CODE_LENGTH, 4).unwrap(),
    ));
    for model in &models {
        for n in [0usize, 1, 15, 16, 17, 33, 70] {
            let rows = &data[..n * dim];
            let mut got = vec![gqr_l2h::CodeBlocks::zero(model.code_length()); n];
            model.encode_rows(rows, &mut got);
            let want: Vec<_> = rows
                .chunks_exact(dim)
                .map(|r| model.encode_wide(r))
                .collect();
            assert_eq!(
                got,
                want,
                "{} ({} bits), {n} rows",
                model.name(),
                model.code_length()
            );
        }
    }
}

fn data_strategy() -> impl Strategy<Value = (usize, Vec<f32>)> {
    (3usize..6, 40usize..90)
        .prop_flat_map(|(dim, n)| (Just(dim), prop::collection::vec(-6.0f32..6.0, dim * n)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn contract_holds_for_every_model((dim, data) in data_strategy()) {
        let m = 3;
        for model in train_all(&data, dim, m) {
            let name = model.name();
            prop_assert_eq!(model.dim(), dim, "{}", name);
            let eff_m = model.code_length();
            prop_assert!((1..=MAX_CODE_LENGTH).contains(&eff_m), "{}", name);
            let span = if eff_m >= 64 { u64::MAX } else { (1u64 << eff_m) - 1 };

            for row in data.chunks_exact(dim).take(10) {
                // encode is deterministic and within the code span.
                let c1 = model.encode(row);
                let c2 = model.encode(row);
                prop_assert_eq!(c1, c2, "{} determinism", name);
                prop_assert!(c1 <= span, "{} code {} exceeds span", name, c1);

                // encode_wide agrees with encode on the low block and
                // clears every bit past the code length.
                let wide = model.encode_wide(row);
                prop_assert_eq!(wide.blocks()[0], c1, "{} wide/narrow mismatch", name);
                for (i, &b) in wide.blocks().iter().enumerate() {
                    let live = eff_m.saturating_sub(i * 64).min(64);
                    if live < 64 {
                        prop_assert_eq!(
                            b >> live, 0,
                            "{} block {} has bits past code length", name, i
                        );
                    }
                }

                // encode_query agrees with encode and provides one
                // non-negative finite cost per bit.
                let qe = model.encode_query(row);
                prop_assert_eq!(qe.code, c1, "{} query/item code mismatch", name);
                prop_assert_eq!(qe.flip_costs.len(), eff_m, "{}", name);
                for &c in &qe.flip_costs {
                    prop_assert!(c >= 0.0 && c.is_finite(), "{} bad flip cost {c}", name);
                }
                let qw = model.encode_query_wide(row);
                prop_assert_eq!(qw.code.blocks()[0], c1, "{} wide query code", name);
                prop_assert_eq!(qw.flip_costs.len(), eff_m, "{} wide flip costs", name);
            }

            // Spectral norm, when exposed, is positive and finite.
            if let Some(sn) = model.spectral_norm() {
                prop_assert!(sn > 0.0 && sn.is_finite(), "{} spectral norm {sn}", name);
            }
        }
    }

    #[test]
    fn wide_models_honor_the_same_contract((dim, data) in data_strategy(), m in 65usize..=256) {
        // LSH is the one trainer whose code length is dim-independent, so
        // it exercises every width past the old u64 ceiling.
        let model = Lsh::train(&data, dim, m, 7).unwrap();
        prop_assert_eq!(model.code_length(), m);
        for row in data.chunks_exact(dim).take(8) {
            let w1 = model.encode_wide(row);
            let w2 = model.encode_wide(row);
            prop_assert_eq!(w1.blocks(), w2.blocks(), "wide determinism");
            for (i, &b) in w1.blocks().iter().enumerate() {
                let live = m.saturating_sub(i * 64).min(64);
                if live < 64 {
                    prop_assert_eq!(b >> live, 0, "bits past code length in block {}", i);
                }
            }
            let qw = model.encode_query_wide(row);
            prop_assert_eq!(qw.code.blocks(), w1.blocks(), "wide query/item code mismatch");
            prop_assert_eq!(qw.flip_costs.len(), m);
            for &c in &qw.flip_costs {
                prop_assert!(c >= 0.0 && c.is_finite(), "bad wide flip cost {}", c);
            }
        }
    }

    #[test]
    fn similar_items_collide_more_than_distant_ones((dim, data) in data_strategy()) {
        // Weak similarity-preservation smoke check shared by all models:
        // a tiny perturbation of an item must flip no more bits on average
        // than a full reflection of it.
        let m = 4;
        for model in train_all(&data, dim, m) {
            let mut near_flips = 0u32;
            let mut far_flips = 0u32;
            for row in data.chunks_exact(dim).take(12) {
                let base = model.encode(row);
                let near: Vec<f32> = row.iter().map(|&x| x + 1e-4).collect();
                let far: Vec<f32> = row.iter().map(|&x| -x + 0.5).collect();
                near_flips += (base ^ model.encode(&near)).count_ones();
                far_flips += (base ^ model.encode(&far)).count_ones();
            }
            prop_assert!(
                near_flips <= far_flips,
                "{}: near flips {} > far flips {}",
                model.name(),
                near_flips,
                far_flips
            );
        }
    }
}
