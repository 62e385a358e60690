//! The per-layer ledger (`--trace 1`): after the socket run, the same
//! seeded inputs — the groups the timed phase queried, the request
//! lines it sent, the ratings it ingested — are replayed through each
//! layer's public calls, timed one call at a time from here. No span
//! inside the program is used; the ledger is what the layers' public
//! surfaces cost on this run's inputs.
//!
//! `e2e.*_unattributed_pct` compares the socket run's client-observed
//! median with the sum of the medians of the layers on that request's
//! blocking path: what is left is socket, queueing and hand-off time no
//! layer call accounts for.

use crate::drive::Observed;
use crate::inputs::{self, Groups, Write, K};
use crate::{stats, Spec};
use greca_bench::PerfWorld;
use greca_cf::{PreferenceProvider, RawRatings, UserCfModel};
use greca_core::wal::{encode_frame, encode_record};
use greca_core::{
    BuildOptions, LiveEngine, PublishDelta, QueryKey, SharedMemberState, Substrate, TopKResult,
    Wal, WalOptions, WalRecord,
};
use greca_dataset::{ItemId, UserId};
use greca_serve::{json, protocol, Json, ResultCache, ServeConfig};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Groups replayed through the query layers.
const QUERY_SAMPLE: usize = 128;
/// Calls per micro-timed layer (decode, encode, lookup).
const MICRO_CALLS: usize = 4_000;
/// Ingests replayed through the write layers.
const WRITE_SAMPLE: usize = 64;
/// Publish deltas replayed through `rebuild_dirty`.
const REBUILD_SAMPLE: usize = 4;

const MIB: f64 = 1024.0 * 1024.0;

/// What the ledger replays.
pub struct Inputs<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// The run's world.
    pub pw: &'a PerfWorld,
    /// The catalog the substrate covers.
    pub items: &'a [ItemId],
    /// The cohort groups are drawn from (the substrate's users).
    pub cohort: &'a [UserId],
    /// The run's fixed groups.
    pub groups: &'a Groups,
    /// What the socket run observed.
    pub observed: &'a Observed,
    /// Scratch directory for the ledger's own logs.
    pub scratch: &'a Path,
    /// For a restarted workload: a copy of the log as it stood before
    /// the restart, so the ledger replays from the same state.
    pub log: Option<&'a Path>,
}

/// One ledger row: name, value, unit.
pub type Row = (&'static str, f64, &'static str);

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Time `f` once per element of `xs`, cycling until `calls` calls;
/// returns the per-call times in µs.
fn micro<T, R>(xs: &[T], calls: usize, mut f: impl FnMut(&T) -> R) -> Vec<f64> {
    let mut out = Vec::with_capacity(calls);
    for x in xs.iter().cycle().take(calls) {
        let t0 = Instant::now();
        std::hint::black_box(f(std::hint::black_box(x)));
        out.push(us_since(t0));
    }
    out
}

fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `1 − Σ parts / whole`, in percent.
fn unattributed_pct(whole: f64, parts: f64) -> f64 {
    if whole > 0.0 {
        100.0 * (1.0 - parts / whole)
    } else {
        0.0
    }
}

fn stat(stats: Option<&Json>, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        v = v.and_then(|j| j.get(key));
    }
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Build the ledger.
pub fn build(inp: &Inputs<'_>) -> Vec<Row> {
    let obs = inp.observed;
    let w = inp.pw.world();
    let model = inp.spec.model(inp.pw);
    let writes: Vec<Write> = obs.writes.iter().take(WRITE_SAMPLE).copied().collect();

    // The mirror engine: the served engine's starting state, rebuilt
    // from the same inputs (a restart from the same log, or a fresh
    // build), so every replay below starts from a state the seed fixes.
    let t0 = Instant::now();
    let fresh = LiveEngine::new(&w.population, model, &w.movielens.matrix, inp.items)
        .expect("finite ratings");
    let build0_ms = ms_since(t0);
    let (mirror, restart) = match inp.log {
        Some(log) => {
            let t0 = Instant::now();
            drop(Wal::recover(log, WalOptions::default()).expect("scan the log"));
            let scan_ms = ms_since(t0);
            let t0 = Instant::now();
            let (engine, _) = LiveEngine::recover(
                &w.population,
                model,
                &w.movielens.matrix,
                inp.items,
                BuildOptions::default(),
                log,
                WalOptions::default(),
            )
            .expect("recover the log copy");
            drop(fresh);
            (engine, Some((scan_ms, ms_since(t0))))
        }
        None => (fresh, None),
    };
    let deltas: Arc<Mutex<Vec<PublishDelta>>> = Arc::default();
    let sink = Arc::clone(&deltas);
    mirror.on_publish_delta(move |d| sink.lock().expect("delta sink").push(d.clone()));

    let mut rows = query_layers(inp, &mirror);

    // ── Write layers: core::live (+ cf::delta) ───────────────────────
    let mut publish_ms = Vec::new();
    let mut rebuilt = Vec::new();
    let mut full = 0usize;
    for w in &writes {
        let t0 = Instant::now();
        let report = match *w {
            Write::Rate(r) => mirror.ingest(&[r]),
            Write::Retract(u, i) => mirror.retract(&[(u, i)]),
        }
        .expect("replayed ingest");
        publish_ms.push(ms_since(t0));
        rebuilt.push(report.rebuilt_segments as f64);
        full += usize::from(report.full_rebuild);
    }
    let deltas: Vec<PublishDelta> = std::mem::take(&mut *deltas.lock().expect("delta sink"));
    let resident = resident_keys(inp, &mirror);
    let apply = stats::median_of(
        &deltas
            .iter()
            .map(|d| {
                let cache = ResultCache::new(ServeConfig::default().cache_capacity);
                populate(&cache, d.epoch - 1, &resident);
                let t0 = Instant::now();
                cache.apply_publish(d);
                us_since(t0)
            })
            .collect::<Vec<_>>(),
    );

    // ── cf::user_cf and core::substrate over the replayed ratings ───
    let pin = mirror.pin();
    let matrix = pin.matrix();
    let t0 = Instant::now();
    let cf = UserCfModel::fit_for(matrix, w.config.cf, inp.cohort);
    let fit_ms = ms_since(t0);
    let raw = RawRatings(matrix);
    let provider: &(dyn PreferenceProvider + Sync) = if inp.spec.user_cf { &cf } else { &raw };
    let t0 = Instant::now();
    let substrate = Substrate::build_with(
        provider,
        &w.population,
        inp.items,
        inp.cohort,
        &[],
        BuildOptions::default(),
    )
    .expect("finite scores");
    let build_ms = ms_since(t0);
    let rebuild_ms: Vec<f64> = deltas
        .iter()
        .take(REBUILD_SAMPLE)
        .map(|d| {
            let dirty: Vec<UserId> = if d.full_rebuild {
                inp.cohort.to_vec()
            } else {
                d.dirty.users.clone()
            };
            let t0 = Instant::now();
            std::hint::black_box(substrate.rebuild_dirty(provider, &dirty).expect("finite"));
            ms_since(t0)
        })
        .collect();
    let substrate_mb = pin.substrate().memory_footprint().total() as f64 / MIB;
    drop(pin);
    drop(mirror);

    // ── core::wal: the sampled writes as Batch + Publish frames ─────
    let wal_dir = inp.scratch.join("ledger-wal");
    let mut wal = Wal::create(&wal_dir, WalOptions::default()).expect("create the ledger log");
    let mut append_us = Vec::new();
    let mut commit_us = Vec::new();
    let mut frame_bytes = Vec::new();
    for (j, w) in writes.iter().enumerate() {
        let id = j as u64 + 1;
        let (upserts, retractions) = w.batch();
        let batch = WalRecord::Batch {
            batch_id: id,
            client_key: None,
            upserts,
            retractions,
        };
        frame_bytes.push(encode_frame(&encode_record(&batch)).len() as f64);
        let t0 = Instant::now();
        wal.append(&batch).expect("append");
        append_us.push(us_since(t0));
        let t0 = Instant::now();
        wal.append(&WalRecord::Publish {
            epoch: id,
            through_batch: id,
        })
        .expect("commit");
        commit_us.push(us_since(t0));
    }
    drop(wal);
    // Restart cost: the restarted workload's own log; otherwise the
    // ledger's log of the sampled writes, replayed over a fresh build.
    let (scan_ms, recover_ms) = restart.unwrap_or_else(|| {
        let t0 = Instant::now();
        drop(Wal::recover(&wal_dir, WalOptions::default()).expect("scan"));
        let scan = ms_since(t0);
        let t0 = Instant::now();
        let (engine, _) = LiveEngine::recover(
            &w.population,
            model,
            &w.movielens.matrix,
            inp.items,
            BuildOptions::default(),
            &wal_dir,
            WalOptions::default(),
        )
        .expect("recover the ledger log");
        let recover = ms_since(t0);
        drop(engine);
        (scan, recover)
    });

    // ── Whole request: what the layer calls leave unexplained ───────
    let ingest_lines: Vec<String> = writes.iter().map(inputs::ingest_line).collect();
    let ingest_decode = stats::median_of(&micro(&ingest_lines, MICRO_CALLS, |l| decode_line(l)));
    let ingest_e2e_us = stats::median_of(&obs.ingest_ms) * 1e3;
    let ingest_path = ingest_decode + stats::median_of(&publish_ms) * 1e3 + apply;

    rows.extend([
        ("cache.apply_publish_us", apply, "us"),
        ("user_cf.fit_ms", fit_ms, "ms"),
        ("substrate.build_ms", build_ms, "ms"),
        ("substrate.rebuild_ms", stats::median_of(&rebuild_ms), "ms"),
        ("substrate.mb", substrate_mb, "MiB"),
        ("live.publish_ms", stats::median_of(&publish_ms), "ms"),
        (
            "live.rebuilt_segments_per_publish",
            stats::mean(&rebuilt),
            "count",
        ),
        (
            "live.full_rebuild_frac",
            frac(full as f64, writes.len() as f64),
            "fraction",
        ),
        (
            "live.replay_ms",
            (recover_ms - build0_ms - scan_ms).max(0.0),
            "ms",
        ),
        ("wal.append_us", stats::median_of(&append_us), "us"),
        ("wal.commit_us", stats::median_of(&commit_us), "us"),
        (
            "wal.bytes_per_batch",
            stats::median_of(&frame_bytes),
            "bytes",
        ),
        ("wal.recover_scan_ms", scan_ms, "ms"),
        (
            "e2e.ingest_unattributed_pct",
            unattributed_pct(ingest_e2e_us, ingest_path),
            "%",
        ),
    ]);
    rows
}

fn decode_line(line: &str) -> protocol::Request {
    let v = json::parse(line).expect("sent lines parse");
    protocol::parse_request(&v).expect("sent lines are requests")
}

/// Keys the server's cache held during the timed window: the pool, or
/// for never-seen groups the groups just queried.
fn resident_keys(inp: &Inputs<'_>, live: &LiveEngine<'_>) -> Vec<QueryKey> {
    let pin = live.pin();
    let engine = pin.engine();
    let groups = if inp.groups.pool.is_empty() {
        &inp.observed.queried
    } else {
        &inp.groups.pool
    };
    groups
        .iter()
        .map(|g| engine.query(g).top(K).cache_key())
        .collect()
}

fn populate(cache: &ResultCache, epoch: u64, keys: &[QueryKey]) {
    let value = Arc::new(TopKResult {
        items: Vec::new(),
        stats: Default::default(),
        sweeps: 0,
        stop_reason: greca_core::StopReason::Exhausted,
    });
    for key in keys {
        cache.install(epoch, key.clone(), key.footprint(), Arc::clone(&value));
    }
}

/// The query-side rows, replayed on `live` at its current epoch.
fn query_layers(inp: &Inputs<'_>, live: &LiveEngine<'_>) -> Vec<Row> {
    let obs = inp.observed;
    let pin = live.pin();
    let engine = pin.engine();
    let epoch = pin.epoch();

    // core::query, core::greca, core::plan
    let sample: Vec<_> = obs.queried.iter().take(QUERY_SAMPLE).cloned().collect();
    let mut prepare_us = Vec::new();
    let mut kernel_us = Vec::new();
    let mut results: Vec<TopKResult> = Vec::new();
    for g in &sample {
        let query = engine.query(g).top(K);
        let t0 = Instant::now();
        let prepared = query.prepare().expect("sampled groups prepare");
        prepare_us.push(us_since(t0));
        let t0 = Instant::now();
        let result = prepared.run();
        kernel_us.push(us_since(t0));
        results.push(result);
    }
    let sa: Vec<f64> = results.iter().map(|r| r.stats.sa as f64).collect();
    let sa_pct: Vec<f64> = results.iter().map(|r| r.stats.sa_percent()).collect();
    let sweeps: Vec<f64> = results.iter().map(|r| r.sweeps as f64).collect();
    let arena = SharedMemberState::new();
    let mut shared_us = Vec::new();
    for g in &sample {
        let query = engine.query(g).top(K);
        let t0 = Instant::now();
        std::hint::black_box(query.run_shared(&arena).expect("sampled groups run"));
        shared_us.push(us_since(t0));
    }
    let run_shared = stats::median_of(&shared_us);

    // serve::json + serve::protocol
    let decode = stats::median_of(&micro(&obs.query_lines, MICRO_CALLS, |l| decode_line(l)));
    let response =
        |r: &TopKResult| protocol::query_response(r, epoch, "hit", None, &None, Some(1 << 40));
    let encode = stats::median_of(&micro(&results, MICRO_CALLS, response));
    let bytes: Vec<f64> = results.iter().map(|r| response(r).len() as f64).collect();

    // serve::cache: lookups against what the server's cache held.
    let cache = ResultCache::new(ServeConfig::default().cache_capacity);
    if !inp.groups.pool.is_empty() {
        populate(&cache, epoch, &resident_keys(inp, live));
    }
    let keys: Vec<QueryKey> = sample
        .iter()
        .map(|g| engine.query(g).top(K).cache_key())
        .collect();
    let lookup = stats::median_of(&micro(&keys, MICRO_CALLS, |key| cache.try_get(epoch, key)));

    // Served-side ratios, from the replies and the server's `stats`.
    let st = obs.stats.as_ref();
    let hit_frac = frac(obs.hits as f64, (obs.hits + obs.misses) as f64);
    let verbs = ["query", "ingest", "subscribe"];
    let shed: f64 = verbs
        .iter()
        .map(|v| stat(st, &["metrics", v, "shed"]))
        .sum();
    let requests: f64 = verbs
        .iter()
        .map(|v| stat(st, &["metrics", v, "requests"]))
        .sum();

    let query_e2e_us = stats::median_of(&obs.query_ms) * 1e3;
    let query_path = decode + lookup + encode + if hit_frac >= 0.5 { 0.0 } else { run_shared };
    vec![
        ("protocol.decode_us", decode, "us"),
        ("protocol.encode_us", encode, "us"),
        ("protocol.response_bytes", stats::median_of(&bytes), "bytes"),
        ("cache.hit_frac", hit_frac, "fraction"),
        ("cache.lookup_us", lookup, "us"),
        (
            "cache.survival_frac",
            stat(st, &["cache", "survival_rate"]),
            "fraction",
        ),
        (
            "admission.shed_frac",
            frac(shed, requests + shed),
            "fraction",
        ),
        ("query.prepare_us", stats::median_of(&prepare_us), "us"),
        ("greca.kernel_us", stats::median_of(&kernel_us), "us"),
        ("greca.sa_per_query", stats::mean(&sa), "count"),
        ("greca.sa_pct", stats::mean(&sa_pct), "%"),
        ("greca.sweeps_per_query", stats::mean(&sweeps), "count"),
        ("plan.run_shared_us", run_shared, "us"),
        (
            "plan.reused_member_frac",
            frac(
                arena.reused_members() as f64,
                (arena.resolved_members() + arena.reused_members()) as f64,
            ),
            "fraction",
        ),
        ("plan.arena_mb", arena.memory_bytes() as f64 / MIB, "MiB"),
        (
            "e2e.query_unattributed_pct",
            unattributed_pct(query_e2e_us, query_path),
            "%",
        ),
    ]
}
