//! Dataset summary statistics (used by Table 1 / Table 3 reporting and by
//! the query sampler's noise scaling).

use crate::Dataset;

/// Per-dimension mean.
pub fn per_dim_mean(ds: &Dataset) -> Vec<f32> {
    let mut mean = vec![0.0f64; ds.dim()];
    for row in ds.rows() {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x as f64;
        }
    }
    let n = ds.n().max(1) as f64;
    mean.into_iter().map(|m| (m / n) as f32).collect()
}

/// Per-dimension standard deviation (population).
pub fn per_dim_std(ds: &Dataset) -> Vec<f32> {
    let mean = per_dim_mean(ds);
    let mut var = vec![0.0f64; ds.dim()];
    for row in ds.rows() {
        for ((v, &x), &m) in var.iter_mut().zip(row).zip(&mean) {
            let d = x as f64 - m as f64;
            *v += d * d;
        }
    }
    let n = ds.n().max(1) as f64;
    var.into_iter().map(|v| ((v / n).sqrt()) as f32).collect()
}

/// One-line description used by the Table-1/Table-3 binaries.
#[derive(Clone, Debug)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Number of items.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Raw payload megabytes.
    pub megabytes: f64,
    /// Mean per-dimension standard deviation (spread proxy).
    pub mean_std: f32,
}

/// Summarize a dataset.
pub fn summarize(ds: &Dataset) -> DatasetSummary {
    let stds = per_dim_std(ds);
    DatasetSummary {
        name: ds.name().to_string(),
        n: ds.n(),
        dim: ds.dim(),
        megabytes: ds.payload_bytes() as f64 / (1024.0 * 1024.0),
        mean_std: stds.iter().sum::<f32>() / stds.len().max(1) as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_data() {
        let ds = Dataset::new("toy", 2, vec![0.0, 10.0, 2.0, 10.0, 4.0, 10.0]);
        let mean = per_dim_mean(&ds);
        assert_eq!(mean, vec![2.0, 10.0]);
        let std = per_dim_std(&ds);
        assert!((std[0] - (8.0f32 / 3.0).sqrt()).abs() < 1e-6);
        assert_eq!(std[1], 0.0);
    }

    #[test]
    fn summary_fields() {
        let ds = Dataset::new("toy", 4, vec![1.0; 40]);
        let s = summarize(&ds);
        assert_eq!(s.n, 10);
        assert_eq!(s.dim, 4);
        assert!(s.megabytes > 0.0);
        assert_eq!(s.mean_std, 0.0);
    }
}
