//! Feature preprocessing: standardization.

/// Per-feature standardization to zero mean / unit variance.
///
/// SVM and logistic regression are scale-sensitive; the analysis pipelines
/// fit the scaler on training data only and apply it to both splits.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    pub(crate) mean: Vec<f32>,
    pub(crate) std: Vec<f32>,
}

impl StandardScaler {
    /// Fits the scaler on `data`. Panics on empty input or ragged rows.
    pub fn fit(data: &[Vec<f32>]) -> Self {
        assert!(!data.is_empty(), "empty input");
        let dim = data[0].len();
        assert!(data.iter().all(|r| r.len() == dim), "ragged rows");
        let n = data.len() as f32;
        let mut mean = vec![0.0f32; dim];
        for row in data {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut std = vec![0.0f32; dim];
        for row in data {
            for (s, (&v, &m)) in std.iter_mut().zip(row.iter().zip(&mean)) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut std {
            *s = (*s / n).sqrt();
            if *s < 1e-9 {
                *s = 1.0; // constant feature: leave centred, unscaled
            }
        }
        Self { mean, std }
    }

    /// Transforms one row in place.
    pub fn transform_row(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.mean.len(), "dimension mismatch");
        for ((v, &m), &s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = (*v - m) / s;
        }
    }

    /// Transforms a copy of the dataset.
    pub fn transform(&self, data: &[Vec<f32>]) -> Vec<Vec<f32>> {
        data.iter()
            .map(|row| {
                let mut r = row.clone();
                self.transform_row(&mut r);
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let data = vec![vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]];
        let scaler = StandardScaler::fit(&data);
        let t = scaler.transform(&data);
        for d in 0..2 {
            let mean: f32 = t.iter().map(|r| r[d]).sum::<f32>() / 3.0;
            let var: f32 = t.iter().map(|r| (r[d] - mean).powi(2)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-6, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-5, "var {var}");
        }
    }

    #[test]
    fn constant_feature_not_nan() {
        let data = vec![vec![7.0], vec![7.0], vec![7.0]];
        let scaler = StandardScaler::fit(&data);
        let t = scaler.transform(&data);
        assert!(t.iter().all(|r| r[0] == 0.0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn transform_rejects_wrong_dim() {
        let scaler = StandardScaler::fit(&[vec![1.0, 2.0]]);
        let mut row = vec![1.0];
        scaler.transform_row(&mut row);
    }
}
