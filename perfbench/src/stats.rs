//! Metric math: nearest-rank percentiles, failure ratios, the
//! unattributed-latency residual, per-rank cost ratios, and span self
//! times. Everything here is pure so the unit tests pin it exactly.

use std::collections::BTreeMap;

use pvs_obs::span::SpanEvent;

/// One timed request as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Send → full response line, in microseconds.
    pub latency_us: f64,
    /// `false` for a non-ok answer, an I/O error or a timeout.
    pub ok: bool,
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of an ascending slice:
/// the smallest sample with at least `q` of the samples at or below it.
/// `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Latencies of the successful samples, ascending. Failed requests never
/// enter a latency percentile: a refusal is not a fast success.
pub fn ok_latencies(samples: &[Sample]) -> Vec<f64> {
    let mut lat: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_us)
        .collect();
    lat.sort_by(f64::total_cmp);
    lat
}

/// Median of unsorted values (nearest rank, so always a measured value).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// Failed requests over attempted ones. `None` with no attempts: a ratio
/// without a base says nothing, and a run that attempted nothing is a
/// broken run, not a perfect one.
pub fn failed_ratio(failed: u64, attempted: u64) -> Option<f64> {
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

/// Client-observed latency that no server layer claims: client p50
/// minus server busy p50. Reported as measured, negative included — a
/// negative value means the two clocks disagree, which is itself a
/// finding, so it is never clamped to zero.
pub fn unattributed_us(client_p50_us: f64, server_busy_p50_us: f64) -> f64 {
    client_p50_us - server_busy_p50_us
}

/// Range of `values` over their median, in percent: how far apart the
/// untraced windows (or passes) of one traced run are, the yardstick
/// for reading `trace.overhead_pct`. 0 without a positive median.
pub fn spread_pct(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match median(values) {
        Some(m) if m > 0.0 => (hi - lo) / m * 100.0,
        _ => 0.0,
    }
}

/// Per-rank cost at the largest rank count divided by the per-rank cost
/// at the reference count; 1.0 is perfect weak scaling. `None` when the
/// reference cost is not positive.
pub fn per_rank_ratio(us_per_rank_large: f64, us_per_rank_ref: f64) -> Option<f64> {
    (us_per_rank_ref > 0.0).then(|| us_per_rank_large / us_per_rank_ref)
}

/// The layer a span belongs to: its name up to an optional `#<id>`
/// request-id suffix.
pub fn layer_of(name: &str) -> &str {
    name.split('#').next().unwrap_or(name)
}

/// Span totals for one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Closed spans.
    pub spans: u64,
    /// Sum of span durations, in ticks.
    pub total: u64,
    /// Sum of span durations minus the time their children cover.
    pub self_time: u64,
}

/// Per-layer self time: each closed span's duration minus the union of
/// its direct children's intervals, clipped to the span. Open spans are
/// skipped.
pub fn self_times(events: &[SpanEvent]) -> BTreeMap<String, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        if let (Some(parent), Some(end)) = (e.parent, e.end_ticks) {
            children
                .entry(parent.0)
                .or_default()
                .push((e.begin_ticks, end));
        }
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for e in events {
        let Some(end) = e.end_ticks else { continue };
        let total = end.saturating_sub(e.begin_ticks);
        let mut spans = children.remove(&e.id.0).unwrap_or_default();
        spans.sort_unstable();
        let mut covered = 0;
        let mut reach = e.begin_ticks;
        for (b, f) in spans {
            let (b, f) = (b.max(reach), f.min(end));
            if f > b {
                covered += f - b;
                reach = f;
            }
        }
        let entry = out.entry(layer_of(&e.name).to_string()).or_default();
        entry.spans += 1;
        entry.total += total;
        entry.self_time += total - covered.min(total);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_obs::span::TraceBuffer;

    fn ok(us: f64) -> Sample {
        Sample {
            latency_us: us,
            ok: true,
        }
    }

    fn bad(us: f64) -> Sample {
        Sample {
            latency_us: us,
            ok: false,
        }
    }

    #[test]
    fn nearest_rank_on_odd_counts() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&v, 0.5), Some(3.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.2), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.5), Some(7.0));
    }

    #[test]
    fn nearest_rank_on_even_counts_takes_the_lower_middle() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(nearest_rank(&v, 0.5), Some(20.0));
        assert_eq!(nearest_rank(&v, 0.75), Some(30.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(40.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn failed_samples_never_enter_latency_percentiles() {
        // The failures are the fastest samples: counting them would
        // drag the percentiles down.
        let samples = [ok(40.0), bad(1.0), ok(10.0), bad(2.0), ok(30.0), ok(20.0)];
        let lat = ok_latencies(&samples);
        assert_eq!(lat, vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(nearest_rank(&lat, 0.5), Some(20.0));
        assert_eq!(nearest_rank(&lat, 0.9), Some(40.0));
        assert!(ok_latencies(&[bad(1.0)]).is_empty());
    }

    #[test]
    fn failed_ratio_needs_a_base() {
        assert_eq!(failed_ratio(0, 0), None);
        assert_eq!(failed_ratio(0, 10), Some(0.0));
        assert_eq!(failed_ratio(3, 12), Some(0.25));
    }

    #[test]
    fn unattributed_residual_is_not_clamped() {
        assert_eq!(unattributed_us(43_000.0, 60.0), 42_940.0);
        // Server busy above client time is reported, not hidden.
        assert_eq!(unattributed_us(50.0, 80.0), -30.0);
    }

    #[test]
    fn per_rank_ratio_divides_large_by_reference() {
        assert_eq!(per_rank_ratio(65.0, 26.0), Some(2.5));
        assert_eq!(per_rank_ratio(4.0, 4.0), Some(1.0));
        assert_eq!(per_rank_ratio(1.0, 0.0), None);
    }

    #[test]
    fn spread_is_range_over_median_in_percent() {
        assert_eq!(spread_pct(&[10.0, 8.0, 12.0]), 40.0);
        assert_eq!(spread_pct(&[5.0]), 0.0);
        assert_eq!(spread_pct(&[]), 0.0);
        assert_eq!(spread_pct(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn median_picks_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = TraceBuffer::new();
        let root = t.begin("pipeline#7", None, 0);
        let a = t.begin("proto.parse", Some(root), 10);
        t.end(a, 30);
        // Overlapping child: the union, not the sum, is covered.
        let b = t.begin("store.get", Some(root), 20);
        t.end(b, 60);
        // A child running past its parent is clipped to the parent.
        let c = t.begin("proto.encode", Some(root), 90);
        t.end(c, 120);
        t.end(root, 100);
        let open = t.begin("never.closed", None, 0);
        let _ = open;
        let st = self_times(t.events());
        assert_eq!(
            st["pipeline"],
            LayerTime {
                spans: 1,
                total: 100,
                self_time: 40
            }
        );
        assert_eq!(st["proto.parse"].self_time, 20);
        assert_eq!(st["store.get"].self_time, 40);
        assert!(!st.contains_key("never.closed"));
        assert_eq!(layer_of("request#12"), "request");
    }
}
