//! Stream filters: Savitzky–Golay smoothing.
//!
//! [`savitzky_golay`] is the smoother the period analysis
//! ([`crate::period`]) runs before peak detection, turning raw, noisy
//! trajectory series into the "filtered simulation results" that Fig. 2
//! sends to the GUI.

/// Savitzky–Golay smoothing (quadratic, symmetric window of 2m+1 points).
///
/// Preserves peak positions better than a moving average, which matters for
/// the oscillation-period analysis. The series ends are padded by
/// replication.
pub fn savitzky_golay(xs: &[f64], half_window: usize) -> Vec<f64> {
    if xs.is_empty() || half_window == 0 {
        return xs.to_vec();
    }
    let m = half_window as i64;
    // Quadratic SG coefficients: c_i ∝ (3m² + 3m − 1 − 5i²), the standard
    // closed form for polynomial order 2.
    let norm: f64 = (-m..=m)
        .map(|i| (3 * m * m + 3 * m - 1 - 5 * i * i) as f64)
        .sum();
    let coeff: Vec<f64> = (-m..=m)
        .map(|i| (3 * m * m + 3 * m - 1 - 5 * i * i) as f64 / norm)
        .collect();
    let n = xs.len() as i64;
    (0..n)
        .map(|t| {
            coeff
                .iter()
                .enumerate()
                .map(|(j, &c)| {
                    let idx = (t + j as i64 - m).clamp(0, n - 1) as usize;
                    c * xs[idx]
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savitzky_golay_preserves_constants_and_lines() {
        let constant = [4.0; 11];
        let out = savitzky_golay(&constant, 2);
        for v in &out {
            assert!((v - 4.0).abs() < 1e-9);
        }
        // SG of order 2 reproduces linear trends exactly (interior points).
        let line: Vec<f64> = (0..21).map(|i| 2.0 * i as f64).collect();
        let out = savitzky_golay(&line, 3);
        for i in 3..18 {
            assert!((out[i] - line[i]).abs() < 1e-9, "i={i}");
        }
    }

    #[test]
    fn savitzky_golay_smooths_noise() {
        // Alternating noise around zero should shrink substantially.
        let noisy: Vec<f64> = (0..50)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let out = savitzky_golay(&noisy, 3);
        let raw_energy: f64 = noisy.iter().map(|v| v * v).sum();
        let out_energy: f64 = out.iter().map(|v| v * v).sum();
        assert!(out_energy < raw_energy / 4.0);
    }

    #[test]
    fn savitzky_golay_degenerate_inputs() {
        assert!(savitzky_golay(&[], 3).is_empty());
        assert_eq!(savitzky_golay(&[1.0, 2.0], 0), vec![1.0, 2.0]);
    }
}
