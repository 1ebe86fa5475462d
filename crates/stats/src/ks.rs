//! Two-sample Kolmogorov–Smirnov test.
//!
//! Used exactly as in §4 of the paper: the access-delay sample of each
//! probe-packet index is compared against the steady-state sample (the
//! delays of the last packets of long trains). Per the paper's footnote
//! 2, one of the two empirical discrete distributions is converted to a
//! continuous one by linear interpolation before computing the
//! statistic; the 95 % critical value is
//! `c(α)·√((n+m)/(n·m))` with `c(0.05) = 1.358`.

use crate::ecdf::Ecdf;

/// Result of a two-sample KS comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsOutcome {
    /// The KS statistic `sup |F₁ − F₂|`.
    pub statistic: f64,
    /// The critical value at the requested significance.
    pub threshold: f64,
    /// Whether the null hypothesis (same distribution) is rejected,
    /// i.e. `statistic > threshold`.
    pub reject: bool,
}

/// `c(α)` coefficients for the large-sample two-sample KS critical
/// value. Values from the NIST/SEMATECH handbook the paper cites.
pub fn ks_coefficient(alpha: f64) -> f64 {
    // Exact inversion of the Kolmogorov distribution tail:
    // c(α) = sqrt(-ln(α/2) / 2).
    debug_assert!(alpha > 0.0 && alpha < 1.0);
    (-(alpha / 2.0).ln() / 2.0).sqrt()
}

/// The large-sample critical value `c(α)·√((n+m)/(n·m))`.
pub fn ks_critical_value(n: usize, m: usize, alpha: f64) -> f64 {
    debug_assert!(n > 0 && m > 0);
    ks_coefficient(alpha) * ((n + m) as f64 / (n as f64 * m as f64)).sqrt()
}

/// Two-sample KS statistic between `sample` (step ECDF) and `reference`
/// (linearly interpolated ECDF), evaluated at the observation points of
/// both samples including left limits at the step discontinuities.
///
/// One merged sweep over the two sorted samples: each distinct
/// observation point is visited once, in increasing order, with both
/// ranks carried along instead of searched for. Bit-identical to
/// evaluating [`Ecdf::eval`] and [`Ecdf::eval_interpolated`] at every
/// point: each term that can set the supremum is computed by the same
/// expression, and a maximum of exact values does not round.
pub fn ks_statistic(sample: &Ecdf, reference: &Ecdf) -> f64 {
    let (xs, rs) = (sample.values(), reference.values());
    let n = xs.len() as f64;
    // Ranks #{sample ≤ x} and #{reference ≤ x} at the current point.
    let (mut i, mut j) = (0, 0);
    let mut sup: f64 = 0.0;
    while i < xs.len() || j < rs.len() {
        let x = match (xs.get(i), rs.get(j)) {
            (Some(&a), Some(&b)) => a.min(b),
            (Some(&a), None) => a,
            (None, Some(&b)) => b,
            (None, None) => unreachable!(),
        };
        let jumps_from = i;
        while i < xs.len() && xs[i] <= x {
            i += 1;
        }
        while j < rs.len() && rs[j] <= x {
            j += 1;
        }
        let f_ref = reference.interpolated_at_rank(x, j);
        // The step ECDF after its jump at x (or its level, when only the
        // reference has a point here) ...
        sup = sup.max((i as f64 / n - f_ref).abs());
        // ... and its left limit before the jump. Tied observations
        // share one jump, and |k/n − f_ref| over the levels k inside it
        // peaks at one of the two ends, so the lower end is enough.
        if jumps_from < i {
            sup = sup.max((jumps_from as f64 / n - f_ref).abs());
        }
    }
    sup
}

/// Run the full two-sample KS comparison at significance `alpha`
/// (0.05 for the paper's 95 % confidence threshold).
///
/// `sample` is tested against `reference`; the reference ECDF is the
/// linearly-interpolated one, per the paper's methodology.
pub fn two_sample_ks(sample: &[f64], reference: &[f64], alpha: f64) -> KsOutcome {
    two_sample_ks_against(sample, &Ecdf::new(reference.to_vec()), alpha)
}

/// [`two_sample_ks`] against a reference whose ECDF is already built,
/// so a KS profile that tests many samples against one steady-state
/// reference sorts that reference once.
pub fn two_sample_ks_against(sample: &[f64], reference: &Ecdf, alpha: f64) -> KsOutcome {
    let s = Ecdf::new(sample.to_vec());
    let statistic = ks_statistic(&s, reference);
    let threshold = ks_critical_value(s.len(), reference.len(), alpha);
    KsOutcome {
        statistic,
        threshold,
        reject: statistic > threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_grid(n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * (i as f64 + 0.5) / n as f64)
            .collect()
    }

    #[test]
    fn coefficient_reference_values() {
        // NIST table: c(0.10)=1.224, c(0.05)=1.358, c(0.01)=1.628.
        assert!((ks_coefficient(0.10) - 1.2238).abs() < 1e-3);
        assert!((ks_coefficient(0.05) - 1.3581).abs() < 1e-3);
        assert!((ks_coefficient(0.01) - 1.6276).abs() < 1e-3);
    }

    #[test]
    fn identical_samples_accept() {
        let xs = uniform_grid(500, 0.0, 1.0);
        let out = two_sample_ks(&xs, &xs, 0.05);
        // Statistic is not exactly 0 because one ECDF is interpolated,
        // but must be well below the threshold.
        assert!(!out.reject, "stat={} thr={}", out.statistic, out.threshold);
    }

    #[test]
    fn same_distribution_accepts() {
        // Two independent uniform samples.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let a: Vec<f64> = (0..800).map(|_| next()).collect();
        let b: Vec<f64> = (0..800).map(|_| next()).collect();
        let out = two_sample_ks(&a, &b, 0.05);
        assert!(!out.reject, "stat={} thr={}", out.statistic, out.threshold);
    }

    #[test]
    fn shifted_distribution_rejects() {
        let a = uniform_grid(400, 0.0, 1.0);
        let b = uniform_grid(400, 0.5, 1.5);
        let out = two_sample_ks(&a, &b, 0.05);
        assert!(out.reject);
        // A shift of 0.5 on unit uniforms gives sup-difference ~0.5.
        assert!((out.statistic - 0.5).abs() < 0.05, "{}", out.statistic);
    }

    #[test]
    fn statistic_bounded_by_one() {
        let a = uniform_grid(100, 0.0, 1.0);
        let b = uniform_grid(100, 100.0, 101.0);
        let out = two_sample_ks(&a, &b, 0.05);
        assert!(out.statistic <= 1.0 + 1e-12);
        assert!(out.statistic > 0.99);
    }

    #[test]
    fn critical_value_shrinks_with_sample_size() {
        assert!(ks_critical_value(1000, 1000, 0.05) < ks_critical_value(100, 100, 0.05));
        // Symmetric in n and m.
        assert!(
            (ks_critical_value(50, 200, 0.05) - ks_critical_value(200, 50, 0.05)).abs() < 1e-15
        );
    }

    /// The statistic by binary search: both ECDFs evaluated afresh at
    /// every observation point of both samples.
    fn binary_search_statistic(sample: &Ecdf, reference: &Ecdf) -> f64 {
        let mut sup: f64 = 0.0;
        let n = sample.len() as f64;
        for (i, &x) in sample.values().iter().enumerate() {
            let f_ref = reference.eval_interpolated(x);
            sup = sup.max((sample.eval(x) - f_ref).abs());
            sup = sup.max((i as f64 / n - f_ref).abs());
        }
        for &x in reference.values() {
            sup = sup.max((sample.eval(x) - reference.eval_interpolated(x)).abs());
        }
        sup
    }

    /// A uniform draw from `0..k` off a 64-bit LCG.
    fn lcg(state: &mut u64, k: u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) % k
    }

    #[test]
    fn sweep_equals_binary_search_bit_for_bit() {
        let mut state = 0x0005_DEEC_E66D_u64;
        for case in 0..400 {
            // Values on a coarse grid make ties within and across the
            // two samples common; sizes include n = 1 on either side.
            let grid = [3, 10, 1000][case % 3];
            let scale = [1.0, 1e-3, 0.37][case % 5 % 3];
            let n = if case % 7 == 0 {
                1
            } else {
                1 + lcg(&mut state, 60)
            };
            let m = if case % 11 == 0 {
                1
            } else {
                1 + lcg(&mut state, 300)
            };
            let mut draw = |len: u64| -> Ecdf {
                Ecdf::new(
                    (0..len)
                        .map(|_| lcg(&mut state, grid) as f64 * scale - 0.5)
                        .collect(),
                )
            };
            let (a, b) = (draw(n), draw(m));
            let swept = ks_statistic(&a, &b);
            let searched = binary_search_statistic(&a, &b);
            assert_eq!(
                swept.to_bits(),
                searched.to_bits(),
                "case {case}: n={n} m={m} sweep {swept} vs search {searched}"
            );
        }
    }

    #[test]
    fn prebuilt_reference_matches_two_sample_ks() {
        let sample = vec![0.3, 0.1, 0.1, 0.7];
        let reference = uniform_grid(50, 0.0, 1.0);
        let ecdf = Ecdf::new(reference.clone());
        assert_eq!(
            two_sample_ks_against(&sample, &ecdf, 0.05),
            two_sample_ks(&sample, &reference, 0.05)
        );
    }

    #[test]
    fn small_vs_large_reference() {
        // A tight cluster inside a wide reference must reject.
        let sample = vec![0.50, 0.51, 0.52, 0.49, 0.505, 0.495, 0.515, 0.485];
        let reference = uniform_grid(1000, 0.0, 1.0);
        let out = two_sample_ks(&sample, &reference, 0.05);
        assert!(out.reject);
    }
}
