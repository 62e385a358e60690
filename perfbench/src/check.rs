//! Correctness and determinism checks.
//!
//! * [`payload_identical`] bit-compares a served answer with a direct
//!   [`PinnedEpoch::engine`](greca_core::PinnedEpoch::engine) run at the
//!   same epoch: item ids, lb/ub bits, SA/RA and sweeps.
//! * [`Mirror`] predicts every query's cache disposition by replaying
//!   the run's keys and publish deltas through a second
//!   [`ResultCache`]. A served disposition that differs from the
//!   prediction means the outcome depended on thread timing rather than
//!   on the inputs: that is reported as nondeterminism, not as noise.

use greca_core::{PublishDelta, QueryKey, TopKResult};
use greca_serve::{Json, ResultCache};
use std::sync::{Arc, Mutex};

/// Compare one served payload against a direct engine run, bit for bit.
pub fn payload_identical(response: &Json, direct: &TopKResult) -> bool {
    let Some(items) = response.get("items").and_then(Json::as_array) else {
        return false;
    };
    items.len() == direct.items.len()
        && items.iter().zip(&direct.items).all(|(got, want)| {
            got.get("item").and_then(Json::as_u64) == Some(u64::from(want.item.0))
                && got.get("lb").and_then(Json::as_f64).map(f64::to_bits) == Some(want.lb.to_bits())
                && got.get("ub").and_then(Json::as_f64).map(f64::to_bits) == Some(want.ub.to_bits())
        })
        && response.get("sa").and_then(Json::as_u64) == Some(direct.stats.sa)
        && response.get("ra").and_then(Json::as_u64) == Some(direct.stats.ra)
        && response.get("sweeps").and_then(Json::as_u64) == Some(direct.sweeps)
}

/// The raw token of top-level-ish field `key` in a response line: the
/// text after the first `"key":` up to the next `,` or `}` (quotes
/// stripped). Cheap enough for the timed loop, where a full parse of
/// every reply would cost the client more than a cache hit costs the
/// server.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// Whether a response line reports success.
pub fn is_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
}

/// The `epoch` a response line reports.
pub fn epoch_of(line: &str) -> Option<u64> {
    field(line, "epoch")?.parse().ok()
}

/// The served cache disposition of a query reply (`hit`, `miss`, …).
pub fn cache_of(line: &str) -> &str {
    field(line, "cache").unwrap_or("-")
}

/// A second result cache fed the same keys and publish deltas as the
/// server's, in the order the inputs fix. Values are placeholders: only
/// residency matters.
pub struct Mirror {
    cache: ResultCache,
    placeholder: Arc<TopKResult>,
    deltas: Arc<Mutex<Vec<PublishDelta>>>,
}

impl Mirror {
    /// A mirror of a server cache of `capacity` entries. `placeholder`
    /// is any result (never compared).
    pub fn new(capacity: usize, placeholder: TopKResult) -> Self {
        Mirror {
            cache: ResultCache::new(capacity),
            placeholder: Arc::new(placeholder),
            deltas: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The shared sink a publish hook appends deltas to; the client
    /// thread drains it with [`Mirror::catch_up`] after each ingest ack.
    pub fn sink(&self) -> Arc<Mutex<Vec<PublishDelta>>> {
        Arc::clone(&self.deltas)
    }

    /// Apply every delta captured since the last call; returns them.
    pub fn catch_up(&self) -> Vec<PublishDelta> {
        let drained: Vec<PublishDelta> = self
            .deltas
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
            .collect();
        for delta in &drained {
            self.cache.apply_publish(delta);
        }
        drained
    }

    /// Record an install of `key` at `epoch` without predicting (the
    /// untimed warm-up, subscription baselines and pump re-runs).
    pub fn install(&self, epoch: u64, key: &QueryKey) {
        self.cache.install(
            epoch,
            key.clone(),
            key.footprint(),
            Arc::clone(&self.placeholder),
        );
    }

    /// Predict a query's disposition at `epoch`, then record its effect:
    /// a hit leaves the cache as is, a miss installs the key.
    pub fn predict(&self, epoch: u64, key: &QueryKey) -> &'static str {
        if self.cache.try_get(epoch, key).is_some() {
            "hit"
        } else {
            self.install(epoch, key);
            "miss"
        }
    }
}
