//! Metric helpers shared by the workloads: nearest-rank percentiles that
//! carry their sample count, per-request TPOT, SLO attainment over requests
//! *sent*, Little's-law in-flight, and the deterministic SLO-rate search
//! with its backlog test.

use zipserv_serve::scheduler::{Completion, Request};

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample, with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile's value.
    pub value: f64,
    /// Which percentile, in `[0, 1]`.
    pub q: f64,
    /// Samples it was taken over.
    pub n: usize,
}

/// Nearest-rank percentile (the smallest value with at least `q · n` of the
/// sample at or below it). Refuses with `None` when fewer than
/// [`MIN_BEYOND`] samples lie above its rank, so a tail is never read off a
/// handful of requests.
pub fn percentile(values: &[f64], q: f64) -> Option<Pct> {
    assert!((0.0..=1.0).contains(&q), "percentile in [0, 1]");
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct {
        value: sorted[rank - 1],
        q,
        n,
    })
}

/// The highest of p99, p90 and p50 that the sample supports.
pub fn tail(values: &[f64]) -> Option<Pct> {
    [0.99, 0.9, 0.5]
        .into_iter()
        .find_map(|q| percentile(values, q))
}

/// Median of a sample of any size (timing repeats, not request latencies).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Time per output token after the first: `(latency − ttft) / (output − 1)`.
/// `None` for single-token requests, which have no inter-token gap.
pub fn tpot_s(latency_s: f64, ttft_s: f64, output_len: u64) -> Option<f64> {
    (output_len >= 2).then(|| (latency_s - ttft_s) / (output_len - 1) as f64)
}

/// Share of the SLO-carrying requests *sent* that completed within both
/// limits. A request rejected or never completed counts as a miss, unlike
/// `ScheduleReport::slo_attainment`, which judges completions only. `None`
/// when no request sent carries an SLO.
pub fn slo_attainment_sent<'a>(
    sent: &[Request],
    completions: impl IntoIterator<Item = &'a Completion>,
) -> Option<f64> {
    let judged = sent.iter().filter(|r| r.slo.is_some()).count();
    if judged == 0 {
        return None;
    }
    let met = completions
        .into_iter()
        .filter(|c| c.slo_met == Some(true))
        .count();
    Some(met as f64 / judged as f64)
}

/// Little's law: mean requests in the system = Σ time each spent in it /
/// the span of time observed.
pub fn littles_in_flight(total_latency_s: f64, duration_s: f64) -> f64 {
    if duration_s > 0.0 {
        total_latency_s / duration_s
    } else {
        0.0
    }
}

/// The backlog test: `ttft_by_arrival` holds each request's TTFT in arrival
/// order (`f64::INFINITY` for requests that never got a first token). The
/// queue is growing when the last quarter's median exceeds the first
/// quarter's 90th percentile. A stationary queue's quarters are samples of
/// one distribution, so one quarter's median almost never tops another's
/// p90; a growing queue's last quarter tops it by far.
pub fn growing_backlog(ttft_by_arrival: &[f64]) -> bool {
    let quarter = ttft_by_arrival.len() / 4;
    if quarter == 0 {
        return false;
    }
    let mut first = ttft_by_arrival[..quarter].to_vec();
    first.sort_by(f64::total_cmp);
    let first_p90 = first[((0.9 * quarter as f64).ceil() as usize).clamp(1, quarter) - 1];
    median(&ttft_by_arrival[ttft_by_arrival.len() - quarter..]) > first_p90
}

/// One probe of the SLO-rate search: the outcome of serving at one rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// SLO attainment over requests sent.
    pub attainment: f64,
    /// Whether [`growing_backlog`] fired.
    pub backlog: bool,
}

/// Lowest SLO attainment a sustainable rate must reach.
pub const SLO_TARGET: f64 = 0.95;

/// Bisection steps after the bracket is found; with a bracket of width
/// `w` the answer is within `w / 2^SEARCH_STEPS`.
pub const SEARCH_STEPS: u32 = 6;

/// The highest arrival rate at which `probe` meets [`SLO_TARGET`] without a
/// growing backlog. Deterministic for a deterministic `probe`: it halves
/// `lo` until a rate passes, doubles `hi` until one fails, then bisects
/// [`SEARCH_STEPS`] times and returns the highest passing rate seen.
pub fn slo_rate_search(mut lo: f64, mut hi: f64, mut probe: impl FnMut(f64) -> Probe) -> f64 {
    assert!(0.0 < lo && lo < hi, "search needs 0 < lo < hi");
    let mut passes = |rate: f64| {
        let p = probe(rate);
        p.attainment >= SLO_TARGET && !p.backlog
    };
    let mut halvings = 0;
    while !passes(lo) {
        halvings += 1;
        if halvings > 20 {
            return 0.0;
        }
        hi = lo;
        lo /= 2.0;
    }
    let mut doublings = 0;
    while passes(hi) {
        doublings += 1;
        if doublings > 20 {
            return hi;
        }
        lo = hi;
        hi *= 2.0;
    }
    for _ in 0..SEARCH_STEPS {
        let mid = (lo + hi) / 2.0;
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// SplitMix64: derives independent, well-mixed sub-seeds from the one
/// workload seed (the library's xorshift streams seed with `seed | 1`, so
/// adjacent raw seeds would collide).
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt.rotate_left(32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipserv_serve::policy::{PriorityClass, Slo};

    fn completion(id: u64, slo_met: Option<bool>) -> Completion {
        Completion {
            id,
            priority: PriorityClass::Standard,
            queue_s: 0.0,
            latency_s: 1.0,
            ttft_s: 0.1,
            preemptions: 0,
            slo_met,
            output_len: 10,
            retries: 0,
        }
    }

    #[test]
    fn percentile_is_nearest_rank_and_reports_its_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.5),
            Some(Pct {
                value: 50.0,
                q: 0.5,
                n: 100
            })
        );
        assert_eq!(percentile(&v, 0.9).map(|p| p.value), Some(90.0));
        // p99 of 100 leaves one sample beyond it: refused.
        assert_eq!(percentile(&v, 0.99), None);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None, "9 beyond the median");
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5).map(|p| p.value), Some(9.0));
        assert_eq!(percentile(&[], 0.5), None);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99).map(|p| p.value), Some(989.0));
    }

    #[test]
    fn tail_takes_the_highest_supported_percentile() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|p| p.q), Some(0.99));
        assert_eq!(tail(&v[..100]).map(|p| p.q), Some(0.9));
        assert_eq!(tail(&v[..25]).map(|p| p.q), Some(0.5));
        assert_eq!(tail(&v[..5]), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tpot_skips_single_token_requests() {
        assert_eq!(tpot_s(2.0, 0.5, 16), Some(0.1));
        assert_eq!(tpot_s(2.0, 0.5, 1), None);
    }

    #[test]
    fn slo_attainment_counts_rejections_as_misses() {
        let slo = Slo::new(1.0, 0.1);
        let sent: Vec<Request> = (0..4)
            .map(|id| Request::new(id, 0.0, 8, 8).with_slo(slo))
            .chain([Request::new(4, 0.0, 8, 8)])
            .collect();
        // Two met, one missed, one rejected (absent), one without an SLO.
        let done = [
            completion(0, Some(true)),
            completion(1, Some(true)),
            completion(2, Some(false)),
            completion(4, None),
        ];
        assert_eq!(slo_attainment_sent(&sent, &done), Some(0.5));
        assert_eq!(slo_attainment_sent(&sent[4..], &done), None);
    }

    #[test]
    fn littles_law() {
        assert_eq!(littles_in_flight(30.0, 10.0), 3.0);
        assert_eq!(littles_in_flight(1.0, 0.0), 0.0);
    }

    #[test]
    fn backlog_test_flags_growth_only() {
        let stable: Vec<f64> = (0..400).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
        assert!(!growing_backlog(&stable));
        // A mostly idle queue whose later quarters wait more often, but no
        // longer, is not growing.
        let bursty: Vec<f64> = (0..400)
            .map(|i| if i % (10 - i / 100) == 0 { 3.0 } else { 0.05 })
            .collect();
        assert!(!growing_backlog(&bursty));
        let growing: Vec<f64> = (0..400).map(|i| 0.5 + i as f64 * 0.05).collect();
        assert!(growing_backlog(&growing));
        let mut rejected_tail = stable.clone();
        for t in &mut rejected_tail[300..] {
            *t = f64::INFINITY;
        }
        assert!(growing_backlog(&rejected_tail));
    }

    #[test]
    fn search_finds_the_threshold_deterministically() {
        // Attainment falls off a cliff at 3.0 req/s.
        let probe = |rate: f64| Probe {
            attainment: if rate <= 3.0 { 0.99 } else { 0.5 },
            backlog: false,
        };
        let found = slo_rate_search(0.5, 1.0, probe);
        assert!((2.95..=3.0).contains(&found), "{found}");
        assert_eq!(found, slo_rate_search(0.5, 1.0, probe));
        // A backlog fails a rate even at full attainment.
        let backlog = |rate: f64| Probe {
            attainment: 1.0,
            backlog: rate > 2.0,
        };
        let found = slo_rate_search(4.0, 8.0, backlog);
        assert!((1.95..=2.0).contains(&found), "{found}");
        let never = |_| Probe {
            attainment: 0.0,
            backlog: true,
        };
        assert_eq!(slo_rate_search(1.0, 2.0, never), 0.0);
    }

    #[test]
    fn sub_seeds_differ_for_adjacent_seeds() {
        assert_ne!(sub_seed(2, 1) | 1, sub_seed(3, 1) | 1);
        assert_ne!(sub_seed(2, 1), sub_seed(2, 2));
        assert_eq!(sub_seed(7, 9), sub_seed(7, 9));
    }
}
