//! Small statistics helpers shared by the corpus generator and the
//! evaluation suite (Table 1's mean/median/min/max skew rows).

/// Summary of a skewed count distribution, in the shape of Table 1's lower
/// half: `#Triples/type  77K  465  1  14M` etc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (lower of the two middle elements for even lengths).
    pub median: f64,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Number of observations.
    pub count: usize,
}

impl SkewSummary {
    /// Summarise a slice of counts. Returns `None` for empty input.
    pub fn from_counts(counts: &[u64]) -> Option<Self> {
        if counts.is_empty() {
            return None;
        }
        let mut sorted = counts.to_vec();
        sorted.sort_unstable();
        let sum: u128 = sorted.iter().map(|&c| c as u128).sum();
        Some(SkewSummary {
            mean: sum as f64 / sorted.len() as f64,
            median: sorted[(sorted.len() - 1) / 2] as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            count: sorted.len(),
        })
    }

    /// The paper's "heavy head, long tail" skew indicator: mean much larger
    /// than median.
    pub fn is_right_skewed(&self) -> bool {
        self.mean > self.median
    }
}

/// Render a count like the paper's tables: `1.6B`, `337M`, `4.5K`, `465`.
pub fn human_count(n: f64) -> String {
    let abs = n.abs();
    if abs >= 1e9 {
        format!("{:.1}B", n / 1e9)
    } else if abs >= 1e6 {
        format!("{:.1}M", n / 1e6)
    } else if abs >= 1e3 {
        format!("{:.1}K", n / 1e3)
    } else if (n.fract()).abs() < 1e-9 {
        format!("{}", n as i64)
    } else {
        format!("{n:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_uniform_counts() {
        let s = SkewSummary::from_counts(&[5, 5, 5, 5]).unwrap();
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5);
        assert!(!s.is_right_skewed());
    }

    #[test]
    fn summary_of_skewed_counts() {
        // Heavy head: one giant, many small — like #triples per entity.
        let s = SkewSummary::from_counts(&[1, 1, 2, 2, 3, 1_000_000]).unwrap();
        assert!(s.is_right_skewed());
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.median, 2.0);
    }

    #[test]
    fn empty_input_gives_none() {
        assert!(SkewSummary::from_counts(&[]).is_none());
    }

    #[test]
    fn median_for_odd_length() {
        let s = SkewSummary::from_counts(&[9, 1, 5]).unwrap();
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn human_count_formats() {
        assert_eq!(human_count(1.6e9), "1.6B");
        assert_eq!(human_count(337e6), "337.0M");
        assert_eq!(human_count(4_500.0), "4.5K");
        assert_eq!(human_count(465.0), "465");
        assert_eq!(human_count(4.9), "4.9");
    }

    #[test]
    fn summary_does_not_overflow_on_large_counts() {
        let s = SkewSummary::from_counts(&[u64::MAX / 2, u64::MAX / 2]).unwrap();
        assert!(s.mean > 0.0);
    }
}
