//! Prometheus-style text exposition (format 0.0.4) for the `metrics`
//! verb: one plain-text body unifying the serve-side registry
//! ([`Metrics`]), the result-cache counters ([`CacheStats`]) and the
//! span-derived series from the core flight recorder
//! ([`greca_core::FlightRecorder::totals`]).
//!
//! Everything is generated from the same counters `stats` reports as
//! JSON — the exposition adds no new state, only a scrape-friendly
//! rendering: `_total` counters, per-verb latency histograms with
//! cumulative `le` buckets, and the kernel's SA/RA access counters as
//! first-class series (the paper's cost model, live on an operations
//! dashboard).

use crate::cache::CacheStats;
use crate::metrics::{Histogram, Metrics, VerbMetrics};
use greca_core::obs::{self, Phase, SpanKind};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Render the full exposition body. Lines follow the text format's
/// `# HELP` / `# TYPE` convention; every series is prefixed `greca_`.
pub fn render(metrics: &Metrics, cache: &CacheStats) -> String {
    let mut out = String::with_capacity(8 * 1024);
    render_verbs(&mut out, metrics);
    render_counters(&mut out, metrics);
    render_cache(&mut out, cache);
    render_obs(&mut out);
    out
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Seconds rendering for microsecond quantities (Prometheus base
/// units are seconds).
fn secs(us: u64) -> f64 {
    us as f64 / 1_000_000.0
}

fn render_verbs(out: &mut String, metrics: &Metrics) {
    let verbs: [(&str, &VerbMetrics); 5] = [
        ("query", &metrics.query),
        ("subscribe", &metrics.subscribe),
        ("ingest", &metrics.ingest),
        ("stats", &metrics.stats),
        ("health", &metrics.health),
    ];
    let _ = writeln!(out, "# HELP greca_requests_total Requests served, by verb.");
    let _ = writeln!(out, "# TYPE greca_requests_total counter");
    for (verb, m) in verbs {
        let _ = writeln!(
            out,
            "greca_requests_total{{verb=\"{verb}\"}} {}",
            load(&m.requests)
        );
    }
    let _ = writeln!(
        out,
        "# HELP greca_request_errors_total Requests answered with a typed error, by verb."
    );
    let _ = writeln!(out, "# TYPE greca_request_errors_total counter");
    for (verb, m) in verbs {
        let _ = writeln!(
            out,
            "greca_request_errors_total{{verb=\"{verb}\"}} {}",
            load(&m.errors)
        );
    }
    let _ = writeln!(
        out,
        "# HELP greca_requests_shed_total Requests shed by admission control, by verb."
    );
    let _ = writeln!(out, "# TYPE greca_requests_shed_total counter");
    for (verb, m) in verbs {
        let _ = writeln!(
            out,
            "greca_requests_shed_total{{verb=\"{verb}\"}} {}",
            load(&m.shed)
        );
    }
    let _ = writeln!(
        out,
        "# HELP greca_request_duration_seconds Served-request latency (queue wait + execution), by verb."
    );
    let _ = writeln!(out, "# TYPE greca_request_duration_seconds histogram");
    for (verb, m) in verbs {
        render_histogram(out, "greca_request_duration_seconds", verb, &m.latency);
    }
}

/// One histogram in cumulative-`le` form. The registry's buckets are
/// `(2^(i-1), 2^i]` microseconds with a saturating last bucket, which
/// maps onto the exposition contract directly: bucket `i < last`
/// exposes `le = 2^i µs`, the saturating bucket folds into `+Inf`.
fn render_histogram(out: &mut String, name: &str, verb: &str, h: &Histogram) {
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, &count) in counts.iter().enumerate().take(counts.len() - 1) {
        cumulative += count;
        let _ = writeln!(
            out,
            "{name}_bucket{{verb=\"{verb}\",le=\"{}\"}} {cumulative}",
            secs(Histogram::bucket_bound_us(i))
        );
    }
    let total = h.count();
    let _ = writeln!(out, "{name}_bucket{{verb=\"{verb}\",le=\"+Inf\"}} {total}");
    let _ = writeln!(out, "{name}_sum{{verb=\"{verb}\"}} {}", secs(h.sum_us()));
    let _ = writeln!(out, "{name}_count{{verb=\"{verb}\"}} {total}");
}

fn render_counters(out: &mut String, metrics: &Metrics) {
    let series: [(&str, &str, &AtomicU64); 8] = [
        (
            "greca_protocol_errors_total",
            "Unparseable or malformed request lines.",
            &metrics.protocol_errors,
        ),
        (
            "greca_publishes_total",
            "Epoch publishes observed by the serve hook.",
            &metrics.publishes,
        ),
        (
            "greca_connections_total",
            "TCP connections accepted.",
            &metrics.connections,
        ),
        (
            "greca_subscription_runs_total",
            "Subscription re-runs triggered by the pump.",
            &metrics.sub_runs,
        ),
        (
            "greca_pushes_total",
            "Push frames delivered to subscribers.",
            &metrics.pushes,
        ),
        (
            "greca_push_errors_total",
            "Push frames that failed to write.",
            &metrics.push_errors,
        ),
        (
            "greca_subscribers_dropped_total",
            "Subscriptions retired after a dead socket.",
            &metrics.subscribers_dropped,
        ),
        (
            "greca_deadline_exceeded_total",
            "Requests expired in the admission queue.",
            &metrics.deadline_exceeded,
        ),
    ];
    for (name, help, counter) in series {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", load(counter));
    }
}

fn render_cache(out: &mut String, cache: &CacheStats) {
    let _ = writeln!(
        out,
        "# HELP greca_cache_lookups_total Result-cache lookups, by outcome."
    );
    let _ = writeln!(out, "# TYPE greca_cache_lookups_total counter");
    let outcomes: [(&str, &AtomicU64); 4] = [
        ("hit", &cache.hits),
        ("miss", &cache.misses),
        ("coalesced", &cache.coalesced),
        ("bypass", &cache.bypasses),
    ];
    for (outcome, counter) in outcomes {
        let _ = writeln!(
            out,
            "greca_cache_lookups_total{{outcome=\"{outcome}\"}} {}",
            load(counter)
        );
    }
    let series: [(&str, &str, &AtomicU64); 5] = [
        (
            "greca_cache_invalidations_total",
            "Wholesale cache invalidations (epoch swaps).",
            &cache.invalidations,
        ),
        (
            "greca_cache_selective_publishes_total",
            "Publishes applied to the cache selectively (not full rebuilds).",
            &cache.selective_publishes,
        ),
        (
            "greca_cache_survivors_total",
            "Entries kept across epoch swaps (disjoint footprint).",
            &cache.survivors,
        ),
        (
            "greca_cache_dropped_total",
            "Entries dropped by selective invalidation.",
            &cache.dropped,
        ),
        (
            "greca_cache_capacity_flushes_total",
            "Wholesale flushes forced by the capacity bound.",
            &cache.capacity_flushes,
        ),
    ];
    for (name, help, counter) in series {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", load(counter));
    }
}

fn render_obs(out: &mut String) {
    let rec = obs::recorder();
    let totals = rec.totals();
    let _ = writeln!(
        out,
        "# HELP greca_tracing_enabled Whether span recording is on (GRECA_OBS)."
    );
    let _ = writeln!(out, "# TYPE greca_tracing_enabled gauge");
    let _ = writeln!(out, "greca_tracing_enabled {}", u8::from(rec.is_enabled()));
    let _ = writeln!(out, "# HELP greca_spans_total Spans sealed, by kind.");
    let _ = writeln!(out, "# TYPE greca_spans_total counter");
    for kind in SpanKind::ALL {
        let _ = writeln!(
            out,
            "greca_spans_total{{kind=\"{}\"}} {}",
            kind.label(),
            totals.spans[kind as usize]
        );
    }
    let _ = writeln!(
        out,
        "# HELP greca_phase_seconds_total Wall clock attributed to each pipeline phase across all spans."
    );
    let _ = writeln!(out, "# TYPE greca_phase_seconds_total counter");
    for phase in Phase::ALL {
        let _ = writeln!(
            out,
            "greca_phase_seconds_total{{phase=\"{}\"}} {}",
            phase.label(),
            totals.phase_ns[phase as usize] as f64 / 1e9
        );
    }
    let access: [(&str, u64); 2] = [("sorted", totals.sa), ("random", totals.ra)];
    let _ = writeln!(
        out,
        "# HELP greca_kernel_accesses_total Kernel list accesses charged to traced spans (the paper's SA/RA cost model)."
    );
    let _ = writeln!(out, "# TYPE greca_kernel_accesses_total counter");
    for (mode, count) in access {
        let _ = writeln!(
            out,
            "greca_kernel_accesses_total{{mode=\"{mode}\"}} {count}"
        );
    }
    let _ = writeln!(
        out,
        "# HELP greca_slow_spans_total Spans that crossed the slow-query threshold."
    );
    let _ = writeln!(out, "# TYPE greca_slow_spans_total counter");
    let _ = writeln!(out, "greca_slow_spans_total {}", totals.slow);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn exposition_is_well_formed_and_covers_every_family() {
        let metrics = Metrics::default();
        metrics.query.served(Duration::from_micros(100), true);
        metrics.query.served(Duration::from_micros(300), false);
        metrics.query.shed_one();
        let cache = CacheStats::default();
        cache.hits.fetch_add(3, Ordering::Relaxed);
        let body = render(&metrics, &cache);
        for family in [
            "greca_requests_total{verb=\"query\"} 2",
            "greca_request_errors_total{verb=\"query\"} 1",
            "greca_requests_shed_total{verb=\"query\"} 1",
            "greca_request_duration_seconds_bucket{verb=\"query\",le=\"+Inf\"} 2",
            "greca_request_duration_seconds_count{verb=\"query\"} 2",
            "greca_cache_lookups_total{outcome=\"hit\"} 3",
            "greca_spans_total{kind=\"query\"}",
            "greca_phase_seconds_total{phase=\"kernel\"}",
            "greca_kernel_accesses_total{mode=\"sorted\"}",
            "greca_tracing_enabled",
            "greca_slow_spans_total",
        ] {
            assert!(body.contains(family), "missing: {family}\n{body}");
        }
        // Every non-comment line is `name{labels} value` or `name value`
        // with a parseable numeric value.
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("series line has a value");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in line: {line}"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let metrics = Metrics::default();
        // 100 µs lands in the (64, 128] bucket; 300 µs in (256, 512].
        metrics.query.served(Duration::from_micros(100), true);
        metrics.query.served(Duration::from_micros(300), true);
        let body = render(&metrics, &CacheStats::default());
        let bucket = |le: &str| {
            let needle =
                format!("greca_request_duration_seconds_bucket{{verb=\"query\",le=\"{le}\"}} ");
            body.lines()
                .find(|l| l.starts_with(&needle))
                .and_then(|l| l.rsplit_once(' '))
                .map(|(_, v)| v.parse::<u64>().unwrap())
                .unwrap_or_else(|| panic!("no bucket with le={le}\n{body}"))
        };
        assert_eq!(bucket("0.000064"), 0, "below both samples");
        assert_eq!(bucket("0.000128"), 1, "first sample only");
        assert_eq!(bucket("0.000512"), 2, "both samples");
        assert_eq!(bucket("+Inf"), 2);
    }
}
