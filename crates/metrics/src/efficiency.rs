//! Efficiency matrices and the two portability aggregations.

/// Per-(platform, model) performance efficiencies.
///
/// `None` marks a combination the model cannot run at all (e.g.
/// Python/Numba on AMD GPUs) — distinct from a low efficiency.
#[derive(Debug, Clone)]
pub struct EfficiencyMatrix {
    platforms: Vec<String>,
    models: Vec<String>,
    /// `data[platform][model]`.
    data: Vec<Vec<Option<f64>>>,
}

impl EfficiencyMatrix {
    /// Creates an empty matrix (all combinations unsupported).
    pub fn new(platforms: Vec<String>, models: Vec<String>) -> Self {
        let data = vec![vec![None; models.len()]; platforms.len()];
        EfficiencyMatrix {
            platforms,
            models,
            data,
        }
    }

    /// Platform labels, in row order.
    pub fn platforms(&self) -> &[String] {
        &self.platforms
    }

    /// Model labels, in column order.
    pub fn models(&self) -> &[String] {
        &self.models
    }

    fn platform_idx(&self, platform: &str) -> usize {
        self.platforms
            .iter()
            .position(|p| p == platform)
            .unwrap_or_else(|| panic!("unknown platform {platform}"))
    }

    fn model_idx(&self, model: &str) -> usize {
        self.models
            .iter()
            .position(|m| m == model)
            .unwrap_or_else(|| panic!("unknown model {model}"))
    }

    /// Records the efficiency of `model` on `platform`.
    ///
    /// # Panics
    ///
    /// Panics for unknown labels or a non-finite/negative value.
    pub fn set(&mut self, platform: &str, model: &str, efficiency: f64) {
        assert!(
            efficiency.is_finite() && efficiency >= 0.0,
            "efficiency must be finite and non-negative"
        );
        let (p, m) = (self.platform_idx(platform), self.model_idx(model));
        self.data[p][m] = Some(efficiency);
    }

    /// The efficiency of `model` on `platform`, `None` if unsupported.
    pub fn get(&self, platform: &str, model: &str) -> Option<f64> {
        self.data[self.platform_idx(platform)][self.model_idx(model)]
    }

    /// The efficiency column of one model across all platforms.
    pub fn column(&self, model: &str) -> Vec<Option<f64>> {
        let m = self.model_idx(model);
        self.data.iter().map(|row| row[m]).collect()
    }

    /// Marowka Φ_M for one model (Eq. 1).
    pub fn marowka_phi(&self, model: &str) -> f64 {
        marowka_phi(&self.column(model))
    }

    /// Pennycook PP for one model.
    pub fn pennycook_pp(&self, model: &str) -> f64 {
        pennycook_pp(&self.column(model))
    }

    /// Models ranked by Φ_M, best first.
    pub fn ranking(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .models
            .iter()
            .map(|m| (m.clone(), self.marowka_phi(m)))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("phi values are finite"));
        out
    }
}

/// The paper's Φ_M (Eq. 1): `Σ e_i / |T|` with unsupported platforms
/// contributing 0 to the numerator but still counted in `|T|`.
///
/// Reproduces Table III exactly: Python/Numba's `{0.550, 0.713, —,
/// 0.130}` yields `1.393 / 4 = 0.348`.
///
/// ```
/// use perfport_metrics::marowka_phi;
/// let numba = [Some(0.550), Some(0.713), None, Some(0.130)];
/// assert!((marowka_phi(&numba) - 0.348).abs() < 0.001);
/// ```
pub fn marowka_phi(efficiencies: &[Option<f64>]) -> f64 {
    if efficiencies.is_empty() {
        return 0.0;
    }
    let sum: f64 = efficiencies.iter().flatten().sum();
    sum / efficiencies.len() as f64
}

/// Pennycook–Sewall–Lee PP: the harmonic mean of the efficiencies when
/// the application runs correctly on *every* platform of the set, else 0.
pub fn pennycook_pp(efficiencies: &[Option<f64>]) -> f64 {
    if efficiencies.is_empty() || efficiencies.iter().any(Option::is_none) {
        return 0.0;
    }
    let mut denom = 0.0;
    for e in efficiencies.iter().flatten() {
        if *e <= 0.0 {
            return 0.0;
        }
        denom += 1.0 / e;
    }
    efficiencies.len() as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's double-precision Table III, as data.
    fn table_iii_double() -> EfficiencyMatrix {
        let mut m = EfficiencyMatrix::new(
            vec![
                "Epyc 7A53".into(),
                "Ampere Altra".into(),
                "MI250x".into(),
                "A100".into(),
            ],
            vec!["Kokkos".into(), "Julia".into(), "Python/Numba".into()],
        );
        for (p, k, j, n) in [
            ("Epyc 7A53", 0.994, 0.912, Some(0.550)),
            ("Ampere Altra", 0.854, 0.907, Some(0.713)),
            ("MI250x", 0.842, 0.903, None),
            ("A100", 0.260, 0.867, Some(0.130)),
        ] {
            m.set(p, "Kokkos", k);
            m.set(p, "Julia", j);
            if let Some(v) = n {
                m.set(p, "Python/Numba", v);
            }
        }
        m
    }

    #[test]
    fn marowka_reproduces_table_iii_phis() {
        let m = table_iii_double();
        assert!((m.marowka_phi("Kokkos") - 0.738).abs() < 0.001);
        assert!((m.marowka_phi("Julia") - 0.897).abs() < 0.001);
        assert!((m.marowka_phi("Python/Numba") - 0.348).abs() < 0.001);
    }

    #[test]
    fn ranking_matches_the_paper() {
        let m = table_iii_double();
        let ranking = m.ranking();
        let names: Vec<&str> = ranking.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Julia", "Kokkos", "Python/Numba"]);
    }

    #[test]
    fn pennycook_zeroes_incomplete_models() {
        let m = table_iii_double();
        // Numba misses MI250X entirely: PP = 0 even though Φ_M > 0.
        assert_eq!(m.pennycook_pp("Python/Numba"), 0.0);
        assert!(m.pennycook_pp("Julia") > 0.0);
        // Harmonic mean penalises Kokkos' A100 outlier much harder than
        // the arithmetic mean does.
        assert!(m.pennycook_pp("Kokkos") < m.marowka_phi("Kokkos"));
    }

    #[test]
    fn harmonic_mean_computation() {
        let e = vec![Some(0.5), Some(1.0)];
        // 2 / (2 + 1) = 0.666…
        assert!((pennycook_pp(&e) - 2.0 / 3.0).abs() < 1e-12);
        let uniform = vec![Some(0.8); 4];
        assert!((pennycook_pp(&uniform) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(marowka_phi(&[]), 0.0);
        assert_eq!(pennycook_pp(&[]), 0.0);
        assert_eq!(pennycook_pp(&[Some(0.0), Some(1.0)]), 0.0);
        assert_eq!(marowka_phi(&[None, None]), 0.0);
    }

    #[test]
    fn unsupported_dilutes_marowka_but_not_to_zero() {
        let partial = vec![Some(1.0), None];
        assert!((marowka_phi(&partial) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn matrix_accessors() {
        let m = table_iii_double();
        assert_eq!(m.get("A100", "Kokkos"), Some(0.260));
        assert_eq!(m.get("MI250x", "Python/Numba"), None);
        assert_eq!(m.platforms().len(), 4);
        assert_eq!(m.models().len(), 3);
        assert_eq!(m.column("Julia").len(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown platform")]
    fn unknown_platform_panics() {
        let m = table_iii_double();
        let _ = m.get("Grace Hopper", "Julia");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_efficiency_rejected() {
        let mut m = EfficiencyMatrix::new(vec!["p".into()], vec!["m".into()]);
        m.set("p", "m", f64::NAN);
    }
}
