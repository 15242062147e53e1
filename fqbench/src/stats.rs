//! Percentiles by nearest rank, with the sample counts behind them.

/// A percentile of a sample, with the sample size and how many samples
/// lie beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

impl Pct {
    /// A tail percentile is reported only with ten samples beyond it.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// The `p`-th percentile (0 < p ≤ 100) of `samples`, by nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(Pct {
        value: sorted[rank - 1],
        n: sorted.len(),
        beyond: sorted.len() - rank,
    })
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `name: p50 …, pN … (n samples, k beyond)` for a report line; a tail
/// without ten samples beyond it is shown as unsupported.
pub fn describe(samples: &[f64], tail: f64) -> String {
    let (Some(p50), Some(pt)) = (percentile(samples, 50.0), percentile(samples, tail)) else {
        return "no samples".to_string();
    };
    let tail_text = if pt.supported() {
        format!("p{tail} {:.3}", pt.value)
    } else {
        format!("p{tail} unsupported ({} beyond)", pt.beyond)
    };
    format!(
        "p50 {:.3}, {tail_text} ({} samples, {} beyond p{tail})",
        p50.value, pt.n, pt.beyond
    )
}

/// Milliseconds one core takes for a fixed integer workload, the
/// median of five tries: a gauge of how fast the shared host runs at
/// the moment, printed beside each run's figures.
pub fn host_probe_ms() -> f64 {
    let tries: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..20_000_000u64 {
                x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&tries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_beyond_counts() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(p99.supported());
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!(p50.value, 500.0);
        assert!(!percentile(&v[..500], 99.0).unwrap().supported());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
