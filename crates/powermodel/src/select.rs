//! Greedy forward feature selection and input-count sweeps.

use crate::dataset::Dataset;
use crate::regress::{FitCache, FitOptions, LinearModel};
use serde::{Deserialize, Serialize};

/// One point of an accuracy-vs-#inputs curve (Figs. 11 and 15a).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Number of inputs used.
    pub inputs: usize,
    /// Held-out mean absolute percentage error.
    pub test_error_pct: f64,
    /// Training error.
    pub train_error_pct: f64,
    /// The model at this point.
    pub model: LinearModel,
}

/// Greedily selects up to `max_features` features minimizing held-out
/// error; returns the selection order.
///
/// This is the "systematic selection" replacing designer intuition in
/// the paper's proxy-counter methodology.
#[must_use]
pub fn forward_select(data: &Dataset, max_features: usize, opts: FitOptions) -> Vec<usize> {
    let (train, test) = data.split_every(5);
    // Each selection step refits every remaining candidate on the same
    // training rows; the cache turns those from O(rows·k²) into O(k³)
    // solves with bit-identical results.
    let cache = FitCache::new(&train);
    let mut chosen: Vec<usize> = Vec::new();
    let mut best_err = f64::INFINITY;
    while chosen.len() < max_features.min(data.width()) {
        let mut best_candidate: Option<(usize, f64)> = None;
        for f in 0..data.width() {
            if chosen.contains(&f) {
                continue;
            }
            let mut trial = chosen.clone();
            trial.push(f);
            let Some(m) = cache.fit(&trial, opts) else {
                continue;
            };
            let err = m.mean_abs_pct_error(&test);
            if best_candidate.is_none_or(|(_, e)| err < e) {
                best_candidate = Some((f, err));
            }
        }
        let Some((f, err)) = best_candidate else {
            break;
        };
        // Keep adding even on tiny regressions (the sweep wants the
        // whole curve), but stop if error explodes (numerical trouble).
        if err > best_err * 4.0 && chosen.len() >= 2 {
            break;
        }
        best_err = best_err.min(err);
        chosen.push(f);
    }
    chosen
}

/// Produces the accuracy-vs-#inputs curve for `1..=max_features` using
/// the forward-selection order.
#[must_use]
pub fn input_sweep(data: &Dataset, max_features: usize, opts: FitOptions) -> Vec<SweepPoint> {
    let order = forward_select(data, max_features, opts);
    let (train, test) = data.split_every(5);
    let cache = FitCache::new(&train);
    let mut out = Vec::new();
    for k in 1..=order.len() {
        let subset = &order[..k];
        let Some(m) = cache.fit(subset, opts) else {
            continue;
        };
        out.push(SweepPoint {
            inputs: k,
            test_error_pct: m.mean_abs_pct_error(&test),
            train_error_pct: m.mean_abs_pct_error(&train),
            model: m,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dataset where features are progressively weaker predictors.
    fn layered(n: usize) -> Dataset {
        let mut d = Dataset::new(
            ["big", "mid", "small", "junk1", "junk2"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        );
        for i in 0..n {
            let h = |k: u64| {
                ((i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_mul(k)
                    >> 40) as f64
                    / 1e7
            };
            let big = h(3);
            let mid = h(5);
            let small = h(7);
            let target = 10.0 * big + 3.0 * mid + 1.0 * small + 0.5;
            d.push(vec![big, mid, small, h(11), h(13)], target);
        }
        d
    }

    #[test]
    fn forward_selection_picks_strongest_first() {
        let d = layered(400);
        let order = forward_select(&d, 3, FitOptions::default());
        assert_eq!(order[0], 0, "'big' must be picked first, got {order:?}");
        assert!(order.contains(&1));
    }

    #[test]
    fn error_decreases_with_more_inputs() {
        let d = layered(400);
        let sweep = input_sweep(&d, 3, FitOptions::default());
        assert_eq!(sweep.len(), 3);
        assert!(
            sweep[0].test_error_pct > sweep[2].test_error_pct,
            "1-input {} must exceed 3-input {}",
            sweep[0].test_error_pct,
            sweep[2].test_error_pct
        );
        // Full model recovers the generating process almost exactly.
        assert!(sweep[2].test_error_pct < 1.0);
    }

    #[test]
    fn sweep_respects_max_features() {
        let d = layered(100);
        let sweep = input_sweep(&d, 2, FitOptions::default());
        assert!(sweep.len() <= 2);
        assert!(sweep.iter().all(|p| p.inputs <= 2));
    }

    #[test]
    fn models_are_interpretable_by_name() {
        let d = layered(200);
        let sweep = input_sweep(&d, 1, FitOptions::default());
        assert_eq!(sweep[0].model.feature_names, vec!["big".to_owned()]);
    }
}
