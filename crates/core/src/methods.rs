//! Per-data-item probability computation for VOTE, ACCU and POPACCU.
//!
//! These are pure functions over the candidate values of a single data item:
//! `cands[i]` holds the (possibly sampled) accuracies of the provenances
//! supporting value *i*. All three methods assume a single truth per item
//! (§4.1 — "theoretically invalid for non-functional predicates, but in
//! practice it performs surprisingly well"), so the returned probabilities
//! sum to at most 1.
//!
//! The numerics are written to reproduce the paper's signature artifacts
//! exactly:
//!
//! * ACCU with one provenance at the default accuracy 0.8 and `N = 100`
//!   yields `P ≈ 0.80` — but not *exactly* 0.8, because the `N − k`
//!   unobserved false candidates keep probabilities from "sticking"
//!   (§4.2).
//! * POPACCU with one single-triple provenance yields exactly `P = A`
//!   (the calibration-curve valleys at 0.8, and at 0.5 for two conflicting
//!   singleton values — Fig. 9).
//!
//! Stage I calls the `*_into` forms with per-value score sums and reused
//! buffers. The POPACCU fixpoint there skips the logarithms,
//! exponentials and passes whose results it already has, and is
//! proptested to the bit against the plain per-value loop.

/// Clamp an accuracy away from 0/1 before taking logs.
#[inline]
fn clamp_acc(a: f64) -> f64 {
    a.clamp(0.01, 0.99)
}

/// One provenance's ACCU vote `ln(N·A/(1−A))`; a value's vote score
/// `C(v)` is the sum over its provenances.
#[inline]
pub fn accu_vote(a: f64, n_false: f64) -> f64 {
    let a = clamp_acc(a);
    (n_false * a / (1.0 - a)).ln()
}

/// One provenance's accuracy log-odds `ln(A/(1−A))`, POPACCU's
/// counterpart of [`accu_vote`].
#[inline]
pub fn log_odds(a: f64) -> f64 {
    let a = clamp_acc(a);
    (a / (1.0 - a)).ln()
}

/// VOTE (§4.1): `P(v) = m(v) / n` over provenance counts.
pub fn vote(counts: &[usize]) -> Vec<f64> {
    let mut out = Vec::new();
    vote_into(counts, &mut out);
    out
}

/// [`vote`] into a reused buffer.
pub(crate) fn vote_into(counts: &[usize], out: &mut Vec<f64>) {
    let n: usize = counts.iter().sum();
    out.clear();
    out.extend(
        counts
            .iter()
            .map(|&m| if n == 0 { 0.0 } else { m as f64 / n as f64 }),
    );
}

/// ACCU (\[11\], §4.1): Bayesian analysis with `N` uniformly-distributed
/// false values. `cands[i]` is the accuracy list of value *i*'s
/// provenances.
pub fn accu(cands: &[Vec<f64>], n_false: f64) -> Vec<f64> {
    let scores: Vec<f64> = cands
        .iter()
        .map(|accs| accs.iter().map(|&a| accu_vote(a, n_false)).sum())
        .collect();
    let mut out = Vec::new();
    accu_into(&scores, n_false, &mut out);
    out
}

/// [`accu`] from per-value vote scores (sums of [`accu_vote`]) into a
/// reused buffer.
pub(crate) fn accu_into(scores: &[f64], n_false: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend_from_slice(scores);
    // Unobserved false values contribute (N − k) candidates at score 0.
    softmax_with_extra_mass(out, (n_false - scores.len() as f64).max(0.0));
}

/// POPACCU (\[14\], §4.1): like ACCU but the false-value distribution ρ is
/// estimated from the data instead of assumed uniform. `counts[i]` is the
/// raw provenance count `n(v)` of value *i* (used for the popularity
/// estimate), `inner_iters` bounds the per-item fixpoint.
pub fn popaccu(cands: &[Vec<f64>], counts: &[usize], inner_iters: usize) -> Vec<f64> {
    debug_assert_eq!(cands.len(), counts.len());
    let base_scores: Vec<f64> = cands
        .iter()
        .map(|accs| accs.iter().map(|&a| log_odds(a)).sum())
        .collect();
    let (mut work, mut probs) = (Vec::new(), Vec::new());
    popaccu_into(&base_scores, counts, inner_iters, &mut work, &mut probs);
    probs
}

/// [`popaccu`] from per-value base scores (sums of [`log_odds`], fixed
/// across the fixpoint) into `probs`, with `work` as scratch. Returns the
/// fixpoint passes it ran.
///
/// Each pass is four sweeps over the values, every `f64` sum and the max
/// fold in value order, and skips only work whose result is known — the
/// output is bit-for-bit that of one softmax per pass over
/// `s(v) − n(v)·ln ρ(v)`:
///
/// * A value with no provenance (`n = 0`) has `ρ ≤ ½`, as the item has
///   another value, so `n·ln ρ = −0.0`: its score is `s` up to a zero's
///   sign, with no logarithm. That `s` is the empty sum, and any score
///   of ±0 exponentiates to the extra mass's `e^(−max)` (`e^(±0) = 1`),
///   so all such values share one exponential. A zero's sign changes no
///   sum and not the max fold's value.
/// * A one-value item has `ρ = w/w = 1` in every pass, so every pass
///   computes its first: one pass is its fixpoint.
pub(crate) fn popaccu_into(
    base_scores: &[f64],
    counts: &[usize],
    inner_iters: usize,
    work: &mut Vec<f64>,
    probs: &mut Vec<f64>,
) -> usize {
    let total: usize = counts.iter().sum();
    // Initialise with the vote shares.
    vote_into(counts, probs);
    if total == 0 {
        return 0;
    }

    const RHO_FLOOR: f64 = 1e-6;
    const DELTA: f64 = 1e-3; // popularity smoothing
    let passes = if counts.len() == 1 {
        1
    } else {
        inner_iters.max(1)
    };
    work.resize(counts.len(), 0.0);
    for pass in 1..=passes {
        // ρ(v) ∝ n(v)·(1 − P(v)): the expected share of value v among the
        // *false* observations of this item.
        let mut mass_total = 0.0;
        for ((w, &n), &p) in work.iter_mut().zip(counts).zip(probs.iter()) {
            *w = n as f64 * (1.0 - p) + DELTA;
            mass_total += *w;
        }
        let mut max = 0.0f64; // includes the 0 of the extra mass
        for ((w, &s), &n) in work.iter_mut().zip(base_scores).zip(counts) {
            *w = match n {
                0 => s,
                n => s - n as f64 * (*w / mass_total).max(RHO_FLOOR).ln(),
            };
            max = max.max(*w);
        }
        // One unit of extra mass models the unobserved-truth event; it is
        // what pins the singleton case to P = A exactly:
        // P = (A/(1−A)) / (A/(1−A) + 1) = A.
        let extra = (-max).exp();
        let mut sum = 0.0;
        for w in work.iter_mut() {
            *w = if *w == 0.0 { extra } else { (*w - max).exp() };
            sum += *w;
        }
        let denom = sum + extra;
        let mut delta = 0.0;
        for (p, &e) in probs.iter_mut().zip(work.iter()) {
            let new = e / denom;
            delta += (new - *p).abs();
            *p = new;
        }
        if delta < 1e-9 {
            return pass;
        }
    }
    passes
}

/// Replace `scores` with `exp(scores) / (Σ exp(scores) +
/// extra_mass·exp(0))`, computed stably in log space.
fn softmax_with_extra_mass(scores: &mut [f64], extra_mass: f64) {
    let max = scores.iter().copied().fold(0.0f64, f64::max); // includes the 0 of extra mass
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
    }
    let denom: f64 = scores.iter().sum::<f64>() + extra_mass * (-max).exp();
    for s in scores.iter_mut() {
        *s /= denom;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    // ---------------- VOTE -------------------------------------------------

    #[test]
    fn vote_is_count_fraction() {
        // The paper's example: 4 values, one with 7 provenances, three with
        // 1 each → P = 0.7 for the first.
        let p = vote(&[7, 1, 1, 1]);
        assert!(approx(p[0], 0.7, 1e-12));
        assert!(approx(p[1], 0.1, 1e-12));
        assert!(approx(p.iter().sum::<f64>(), 1.0, 1e-12));
    }

    #[test]
    fn vote_single_provenance_gives_one() {
        // VOTE's failure mode (§4.2): a single provenance yields P = 1,
        // two conflicting singles yield 0.5 — badly over-confident.
        assert_eq!(vote(&[1]), vec![1.0]);
        assert_eq!(vote(&[1, 1]), vec![0.5, 0.5]);
    }

    #[test]
    fn vote_empty() {
        assert!(vote(&[]).is_empty());
        assert_eq!(vote(&[0, 0]), vec![0.0, 0.0]);
    }

    // ---------------- ACCU -------------------------------------------------

    #[test]
    fn accu_single_default_provenance_is_near_but_not_exactly_08() {
        // One provenance, A = 0.8, N = 100:
        // score = ln(100·0.8/0.2) = ln 400; P = 400/(400+99) ≈ 0.8016.
        let p = accu(&[vec![0.8]], 100.0);
        assert!(approx(p[0], 400.0 / 499.0, 1e-9), "got {}", p[0]);
        assert!(!approx(p[0], 0.8, 1e-4), "ACCU must not stick to exactly A");
    }

    #[test]
    fn accu_two_conflicting_singletons() {
        let p = accu(&[vec![0.8], vec![0.8]], 100.0);
        assert!(approx(p[0], p[1], 1e-12));
        // 400/(400+400+98) ≈ 0.445 — near but below 0.5.
        assert!(p[0] < 0.5 && p[0] > 0.4, "got {}", p[0]);
    }

    #[test]
    fn accu_more_support_wins() {
        let p = accu(&[vec![0.8, 0.8, 0.8], vec![0.8]], 100.0);
        assert!(p[0] > 0.99, "3-vs-1 should be near-certain, got {}", p[0]);
        assert!(p[1] < 0.01);
    }

    #[test]
    fn accu_high_accuracy_sources_count_more() {
        // One high-accuracy source vs two low-accuracy sources.
        let p = accu(&[vec![0.95], vec![0.3, 0.3]], 100.0);
        assert!(
            p[0] > p[1],
            "accurate single {} should beat inaccurate pair {}",
            p[0],
            p[1]
        );
    }

    #[test]
    fn accu_probabilities_sum_below_one() {
        let p = accu(&[vec![0.8], vec![0.7], vec![0.6]], 100.0);
        let sum: f64 = p.iter().sum();
        assert!(sum < 1.0 + 1e-12);
        assert!(sum > 0.5);
    }

    #[test]
    fn accu_handles_extreme_accuracies() {
        // Clamping keeps ln finite even at 0/1.
        let p = accu(&[vec![1.0], vec![0.0]], 100.0);
        assert!(p[0] > p[1]);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn accu_many_candidates_beyond_n() {
        // k > N: unobserved mass floors at zero, still well-defined.
        let cands: Vec<Vec<f64>> = (0..150).map(|_| vec![0.5]).collect();
        let p = accu(&cands, 100.0);
        assert!(p.iter().all(|x| x.is_finite() && *x >= 0.0));
        assert!(approx(p.iter().sum::<f64>(), 1.0, 1e-9));
    }

    // ---------------- POPACCU ----------------------------------------------

    #[test]
    fn popaccu_singleton_sticks_to_default_accuracy() {
        // The paper's Fig. 9 valley at exactly 0.8: a single triple from a
        // single default-accuracy provenance reinforces P = A.
        let p = popaccu(&[vec![0.8]], &[1], 8);
        assert!(approx(p[0], 0.8, 1e-9), "got {}", p[0]);
    }

    #[test]
    fn popaccu_two_conflicting_singletons_near_half() {
        // Fig. 9's second valley (predicted 0.5).
        let p = popaccu(&[vec![0.8], vec![0.8]], &[1, 1], 8);
        assert!(approx(p[0], p[1], 1e-12));
        assert!((0.4..=0.5).contains(&p[0]), "got {}", p[0]);
    }

    #[test]
    fn popaccu_popular_false_values_are_discounted_vs_accu() {
        // A value with many provenances of mediocre accuracy vs a value
        // with a few high-accuracy ones: POPACCU discounts the popular
        // value compared to ACCU because its popularity feeds ρ.
        let popular: Vec<f64> = vec![0.5; 10];
        let niche = vec![0.9, 0.9];
        let p_accu = accu(&[popular.clone(), niche.clone()], 100.0);
        let p_pop = popaccu(&[popular, niche], &[10, 2], 8);
        let ratio_accu = p_accu[0] / p_accu[1].max(1e-12);
        let ratio_pop = p_pop[0] / p_pop[1].max(1e-12);
        assert!(
            ratio_pop < ratio_accu,
            "POPACCU should discount popularity: accu ratio {ratio_accu}, popaccu ratio {ratio_pop}"
        );
    }

    #[test]
    fn popaccu_more_support_wins() {
        let p = popaccu(&[vec![0.8, 0.8, 0.8, 0.8], vec![0.8]], &[4, 1], 8);
        assert!(p[0] > 0.9, "got {}", p[0]);
        assert!(p[1] < 0.1);
    }

    #[test]
    fn popaccu_is_stable_and_bounded() {
        let cands: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![0.2 + (i as f64) * 0.03; (i % 5) + 1])
            .collect();
        let counts: Vec<usize> = (0..20).map(|i| (i % 5) + 1).collect();
        let p = popaccu(&cands, &counts, 16);
        assert!(p.iter().all(|x| x.is_finite() && (0.0..=1.0).contains(x)));
        assert!(p.iter().sum::<f64>() <= 1.0 + 1e-9);
    }

    #[test]
    fn popaccu_empty_and_degenerate() {
        assert!(popaccu(&[], &[], 4).is_empty());
        let p = popaccu(&[vec![]], &[0], 4);
        assert_eq!(p, vec![0.0]);
    }

    #[test]
    fn popaccu_inner_iterations_converge() {
        // Result after 8 inner iterations ≈ result after 64.
        let cands = vec![vec![0.7, 0.6], vec![0.8], vec![0.55; 5]];
        let counts = vec![2, 1, 5];
        let a = popaccu(&cands, &counts, 8);
        let b = popaccu(&cands, &counts, 64);
        for (x, y) in a.iter().zip(&b) {
            assert!(approx(*x, *y, 1e-3), "{x} vs {y}");
        }
    }

    /// The POPACCU fixpoint as one softmax per pass over every value,
    /// kept verbatim as the oracle of [`popaccu_into`]'s shortcuts.
    fn popaccu_reference(
        base_scores: &[f64],
        counts: &[usize],
        inner_iters: usize,
        work: &mut Vec<f64>,
        probs: &mut Vec<f64>,
    ) {
        let total: usize = counts.iter().sum();
        // Initialise with the vote shares.
        vote_into(counts, probs);
        if total == 0 {
            return;
        }

        const RHO_FLOOR: f64 = 1e-6;
        const DELTA: f64 = 1e-3; // popularity smoothing
        for _ in 0..inner_iters.max(1) {
            // ρ(v) ∝ n(v)·(1 − P(v)): the expected share of value v among the
            // *false* observations of this item.
            work.clear();
            work.extend(
                counts
                    .iter()
                    .zip(probs.iter())
                    .map(|(&n, &p)| n as f64 * (1.0 - p) + DELTA),
            );
            let mass_total: f64 = work.iter().sum();
            for ((w, &s), &n) in work.iter_mut().zip(base_scores).zip(counts) {
                let rho = (*w / mass_total).max(RHO_FLOOR);
                *w = s - n as f64 * rho.ln();
            }
            // One unit of extra mass models the unobserved-truth event; it is
            // what pins the singleton case to P = A exactly:
            // P = (A/(1−A)) / (A/(1−A) + 1) = A.
            softmax_with_extra_mass(work, 1.0);
            let mut delta = 0.0;
            for (p, &new) in probs.iter_mut().zip(work.iter()) {
                delta += (new - *p).abs();
                *p = new;
            }
            if delta < 1e-9 {
                break;
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Items of 1–300 values, about half of them without provenance
        /// (scored the empty sum, as Stage I scores them, now and then
        /// something else), interleaved with values whose scores repeat
        /// from a small pool or are fresh, up to ±800.
        #[test]
        fn popaccu_into_matches_the_reference_bit_for_bit(
            values in prop::collection::vec(
                (any::<bool>(), 0usize..8, 1usize..40, -800.0f64..800.0),
                1..301,
            ),
            keep in prop_oneof![1usize..4, 1usize..301],
            pool in prop::collection::vec(-800.0f64..800.0, 1..5),
            inner_iters in 1usize..17,
        ) {
            let empty_sum: f64 = std::iter::empty::<f64>().sum();
            let (mut scores, mut counts) = (Vec::new(), Vec::new());
            for &(zero, pick, n, fresh) in values.iter().take(keep) {
                let score = pool.get(pick).copied().unwrap_or(fresh);
                if zero {
                    counts.push(0);
                    scores.push(if pick == 7 { score } else { empty_sum });
                } else {
                    counts.push(n);
                    scores.push(score);
                }
            }
            let (mut work, mut want) = (Vec::new(), Vec::new());
            popaccu_reference(&scores, &counts, inner_iters, &mut work, &mut want);
            let mut got = Vec::new();
            let passes = popaccu_into(&scores, &counts, inner_iters, &mut work, &mut got);
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "{:?} {:?}", counts, scores);
            prop_assert!(passes <= inner_iters);
            if counts.len() == 1 && counts[0] > 0 {
                prop_assert_eq!(passes, 1);
            }
        }
    }

    // ---------------- cross-method ------------------------------------------

    #[test]
    fn monotone_in_support_for_all_methods() {
        // Adding a supporting provenance never hurts a value.
        for k in 1..6usize {
            let weak: Vec<Vec<f64>> = vec![vec![0.8; k], vec![0.8]];
            let strong: Vec<Vec<f64>> = vec![vec![0.8; k + 1], vec![0.8]];
            assert!(accu(&strong, 100.0)[0] >= accu(&weak, 100.0)[0]);
            assert!(popaccu(&strong, &[k + 1, 1], 8)[0] >= popaccu(&weak, &[k, 1], 8)[0] - 1e-9);
            assert!(vote(&[k + 1, 1])[0] >= vote(&[k, 1])[0]);
        }
    }

    #[test]
    fn softmax_extra_mass_normalises() {
        let mut p = [1.0, 2.0];
        softmax_with_extra_mass(&mut p, 3.0);
        let explicit: f64 = p.iter().sum();
        assert!(explicit < 1.0);
        // Reconstruct the implicit mass: scores e^1, e^2, extra 3·e^0.
        let denom = 1f64.exp() + 2f64.exp() + 3.0;
        assert!(approx(p[0], 1f64.exp() / denom, 1e-12));
        assert!(approx(p[1], 2f64.exp() / denom, 1e-12));
    }

    #[test]
    fn softmax_handles_huge_scores() {
        let mut p = [800.0, 1.0];
        softmax_with_extra_mass(&mut p, 100.0);
        assert!(approx(p[0], 1.0, 1e-9));
        assert!(p[1] >= 0.0 && p[1] < 1e-12);
    }
}
