//! The client side of a workload: closed loops over loopback sockets
//! against the in-process server, a subscriber connection for push
//! frames, and the correctness and determinism checks that ride along.
//!
//! Time spent on the benchmark's own checks (direct engine runs,
//! mirror bookkeeping) is paused out of the timed window, so
//! `--seconds` is seconds of load.

use crate::check::{self, payload_identical, Mirror};
use crate::inputs::{self, Groups, PoolPicks, Write, WriteStream, K};
use crate::Spec;
use greca_core::{LiveEngine, QueryFootprint, QueryKey, TopKResult};
use greca_dataset::{Group, ItemId, UserId};
use greca_serve::{json, Client, Json, ServeConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Verify every reply of every `VERIFY_EVERY`-th write cycle.
const VERIFY_EVERY: usize = 16;
/// Keep every `SAMPLE_EVERY`-th timed read reply for verification…
const SAMPLE_EVERY: usize = 64;
/// …up to this many.
const SAMPLE_CAP: usize = 24;
/// How long a push frame the inputs make certain may take to arrive.
const PUSH_TIMEOUT: Duration = Duration::from_secs(60);

/// Everything a run observed on the wire.
#[derive(Debug, Default)]
pub struct Observed {
    /// Client-observed query latencies of the timed phase, ms.
    pub query_ms: Vec<f64>,
    /// Ingest send → ack latencies, ms.
    pub ingest_ms: Vec<f64>,
    /// Ingest send → push frame arrival, ms.
    pub push_lag_ms: Vec<f64>,
    /// Seconds of load in the timed phase (checks paused out).
    pub active_s: f64,
    /// Requests sent in the measured phases (timed phase and tail).
    pub attempted: u64,
    /// Of those, replies that were not `ok` (or never came).
    pub failed: u64,
    /// Timed-phase query replies served from cache.
    pub hits: u64,
    /// Timed-phase query replies that ran the kernel.
    pub misses: u64,
    /// Served dispositions that differed from the mirror's prediction,
    /// plus push frames the inputs did not call for.
    pub nondeterministic: u64,
    /// Replies and push frames bit-compared with direct runs.
    pub verified: u64,
    /// Of those, the ones that differed.
    pub mismatched: u64,
    /// Exact counts over the fixed prefix of the query stream.
    pub prefix: PrefixCounts,
    /// Publishes acknowledged over the whole run.
    pub publishes: u64,
    /// The query lines sent (for the ledger's decode timing), capped.
    pub query_lines: Vec<String>,
    /// The groups queried in the timed phase, in order, capped.
    pub queried: Vec<Group>,
    /// The ingests sent, in order.
    pub writes: Vec<Write>,
    /// Push frames for publishes that left the subscribed answer
    /// unchanged (tolerated, not required).
    pub extra_pushes: u64,
    /// The `stats` verb's answer at the end of the run.
    pub stats: Option<Json>,
}

/// Counts over the first `prefix_queries` timed queries — a fixed
/// stretch of the seeded input, so the counts must repeat exactly for a
/// fixed seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PrefixCounts {
    /// Queries counted.
    pub queries: u64,
    /// Of those, cache hits.
    pub hits: u64,
    /// Of those, cache misses.
    pub misses: u64,
    /// Sum of the replies' sorted-access counts.
    pub sa_total: u64,
    /// Publishes acknowledged within the prefix.
    pub publishes: u64,
    /// Push frames received within the prefix.
    pub pushes: u64,
}

impl PrefixCounts {
    /// The counts as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("queries", Json::num(self.queries as f64)),
            ("hits", Json::num(self.hits as f64)),
            ("misses", Json::num(self.misses as f64)),
            ("sa_total", Json::num(self.sa_total as f64)),
            ("publishes", Json::num(self.publishes as f64)),
            ("pushes", Json::num(self.pushes as f64)),
        ])
    }
}

/// The fixed inputs and handles a workload runs against.
pub struct Ctx<'a, 'p> {
    /// The workload.
    pub spec: &'a Spec,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// The serving engine.
    pub live: &'a LiveEngine<'p>,
    /// The server's address.
    pub addr: SocketAddr,
    /// Users groups are drawn from.
    pub cohort: &'a [UserId],
    /// The catalog (ingest items are drawn from it).
    pub items: &'a [ItemId],
    /// The run's fixed groups.
    pub groups: &'a Groups,
}

/// A pause clock: wall time minus the stretches spent on checks.
struct Window {
    start: Instant,
    paused: Duration,
    budget: Duration,
}

impl Window {
    fn new(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            paused: Duration::ZERO,
            budget: Duration::from_secs_f64(seconds),
        }
    }

    fn active(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.paused)
    }

    fn open(&self) -> bool {
        self.active() < self.budget
    }

    /// Run `f` with the clock stopped.
    fn pause<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.paused += t0.elapsed();
        r
    }
}

/// The timed window is split into this many segments, each on a fresh
/// connection: which cores a connection's client and server threads
/// land on shifts hit latency between two modes, and pooling several
/// placements per run keeps a run from sitting in one of them.
const SEGMENTS: u32 = 6;

/// The segment `elapsed` falls in.
fn segment_of(elapsed: Duration, budget: Duration) -> u32 {
    ((elapsed.as_secs_f64() / budget.as_secs_f64()) * f64::from(SEGMENTS)) as u32
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Send one line, returning `(reply, latency)`; a transport failure is
/// an empty reply (counted as failed by the caller).
fn timed(client: &mut Client, line: &str) -> (String, Duration) {
    let t0 = Instant::now();
    let reply = client.request_raw(line).unwrap_or_default();
    (reply, t0.elapsed())
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("connect to the in-process server")
}

fn key_of(live: &LiveEngine<'_>, group: &Group) -> QueryKey {
    live.pin().engine().query(group).top(K).cache_key()
}

fn direct(live: &LiveEngine<'_>, group: &Group, epoch: u64) -> Option<TopKResult> {
    let pin = live.pin();
    (pin.epoch() == epoch)
        .then(|| pin.engine().query(group).top(K).run().ok())
        .flatten()
}

/// One push frame as the subscriber saw it.
struct Frame {
    epoch: u64,
    at: Instant,
    body: Json,
}

/// The subscription side: the subscribed group's last delivered result
/// and the channel its frames arrive on.
struct Subscription {
    line: String,
    key: QueryKey,
    footprint: QueryFootprint,
    last: TopKResult,
    frames: mpsc::Receiver<Frame>,
}

/// Mutable per-run bookkeeping shared by the phases.
struct Run<'c, 'a, 'p> {
    ctx: &'c Ctx<'a, 'p>,
    mirror: Mirror,
    obs: Observed,
    /// Timed replies kept for verification once the window closes.
    pending: Vec<(Group, String)>,
}

impl Run<'_, '_, '_> {
    /// Compare served replies with direct runs at `epoch`.
    fn verify(&mut self, epoch: u64, replies: &[(Group, String)]) {
        for (group, line) in replies {
            self.obs.verified += 1;
            let same = json::parse(line)
                .ok()
                .zip(direct(self.ctx.live, group, epoch));
            if !same.is_some_and(|(body, want)| payload_identical(&body, &want)) {
                self.obs.mismatched += 1;
            }
        }
    }

    /// Query every group once outside the timed window, checking the
    /// predicted dispositions; `verify_all` bit-compares every reply,
    /// otherwise every 8th.
    fn warm(&mut self, client: &mut Client, pool: &[Group], keys: &[QueryKey], verify_all: bool) {
        let epoch = self.ctx.live.epoch();
        let mut kept = Vec::new();
        for (i, (group, key)) in pool.iter().zip(keys).enumerate() {
            let predicted = self.mirror.predict(epoch, key);
            let reply = client
                .request_raw(&inputs::query_line(group))
                .unwrap_or_default();
            if check::cache_of(&reply) != predicted {
                self.obs.nondeterministic += 1;
            }
            if verify_all || i % 8 == 0 {
                kept.push((group.clone(), reply));
            }
        }
        self.verify(epoch, &kept);
    }

    /// Send one ingest, then settle its consequences for the
    /// subscription before the next timed request. When the publish
    /// touches the subscribed group, a barrier query for that group
    /// returns once its answer at the new epoch exists (it coalesces
    /// with the pump's re-run), and when that answer changed the push
    /// frame it causes is awaited. Either way the pump's work never
    /// overlaps a timed query.
    fn ingest(
        &mut self,
        client: &mut Client,
        window: &mut Window,
        write: Write,
        sub: &mut Subscription,
    ) -> bool {
        let line = inputs::ingest_line(&write);
        let sent = Instant::now();
        let (reply, latency) = timed(client, &line);
        self.obs.attempted += 1;
        self.obs.writes.push(write);
        let Some(epoch) = check::is_ok(&reply)
            .then(|| check::epoch_of(&reply))
            .flatten()
        else {
            self.obs.failed += 1;
            return false;
        };
        self.obs.ingest_ms.push(ms(latency));
        self.obs.publishes += 1;
        let affected = window.pause(|| {
            let deltas = self.mirror.catch_up();
            deltas.iter().any(|d| d.affects(&sub.footprint))
        });
        if !affected {
            return true;
        }
        self.obs.attempted += 1;
        let barrier = client.request_raw(&sub.line).unwrap_or_default();
        if !check::is_ok(&barrier) {
            self.obs.failed += 1;
        }
        let changed = window.pause(|| {
            self.mirror.install(epoch, &sub.key);
            let now = direct(self.ctx.live, &self.ctx.groups.subscribed, epoch)?;
            (now != sub.last).then_some(now)
        });
        // A changed answer is always pushed; the server may also push
        // an unchanged one (its first push after a subscription made
        // at epoch 0). Those extra frames are tolerated and counted.
        let Some(want) = changed else {
            return true;
        };
        self.obs.attempted += 1;
        let deadline = Instant::now() + PUSH_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match sub.frames.recv_timeout(left) {
                Ok(frame) if frame.epoch == epoch => {
                    self.obs.push_lag_ms.push(ms(frame.at.duration_since(sent)));
                    self.obs.verified += 1;
                    if !payload_identical(&frame.body, &want) {
                        self.obs.mismatched += 1;
                    }
                    sub.last = want;
                    return true;
                }
                Ok(frame) if frame.epoch < epoch => self.obs.extra_pushes += 1,
                Ok(_) => self.obs.nondeterministic += 1,
                Err(_) => {
                    self.obs.failed += 1;
                    return true;
                }
            }
        }
    }
}

/// Run the workload's phases against the server at `ctx.addr`, on the
/// connection `client` that answered the set-up probe.
pub fn drive(ctx: &Ctx<'_, '_>, mut client: Client, placeholder: TopKResult) -> Observed {
    let mut run = Run {
        ctx,
        // The server runs with the default cache capacity; so does its
        // mirror.
        mirror: Mirror::new(ServeConfig::default().cache_capacity, placeholder),
        obs: Observed::default(),
        pending: Vec::new(),
    };
    let sink = run.mirror.sink();
    ctx.live.on_publish_delta(move |delta| {
        sink.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(delta.clone());
    });
    run.mirror
        .install(ctx.live.epoch(), &key_of(ctx.live, &ctx.groups.probe));
    let pool_keys: Vec<QueryKey> = ctx
        .groups
        .pool
        .iter()
        .map(|g| key_of(ctx.live, g))
        .collect();
    let reads_only = ctx.spec.queries_per_ingest == 0;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Stops the subscriber even when a phase panics, so the scope
        // can join it and the panic surfaces instead of hanging.
        let _stop_guard = StopOnDrop(&stop);
        if reads_only {
            read_phase(&mut run, &mut client, &pool_keys);
        } else {
            run.warm(&mut client, &ctx.groups.pool, &pool_keys, true);
        }
        let (frames_tx, frames_rx) = mpsc::channel();
        let stop = &stop;
        let subscriber =
            s.spawn(move || subscriber(ctx.addr, &ctx.groups.subscribed, frames_tx, stop));
        let mut sub = run.subscribe(frames_rx);
        if reads_only {
            tail_phase(&mut run, &mut client, &mut sub);
        } else {
            write_phase(&mut run, &mut client, &pool_keys, &mut sub);
        }
        run.obs.stats = client.stats().ok();
        stop.store(true, Ordering::SeqCst);
        subscriber.join().expect("subscriber thread");
        run.obs.extra_pushes += sub.frames.try_iter().count() as u64;
    });
    run.obs
}

impl Run<'_, '_, '_> {
    /// Take the subscription's baseline off the frame channel, check it
    /// against a direct run, and record its cache install.
    fn subscribe(&mut self, frames: mpsc::Receiver<Frame>) -> Subscription {
        let baseline = frames
            .recv_timeout(PUSH_TIMEOUT)
            .map(|f| f.body)
            .expect("subscription baseline");
        let epoch = baseline.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        let key = key_of(self.ctx.live, &self.ctx.groups.subscribed);
        self.mirror.install(epoch, &key);
        let last = direct(self.ctx.live, &self.ctx.groups.subscribed, epoch).expect("baseline run");
        self.obs.verified += 1;
        if !payload_identical(&baseline, &last) {
            self.obs.mismatched += 1;
        }
        Subscription {
            line: inputs::query_line(&self.ctx.groups.subscribed),
            footprint: key.footprint(),
            key,
            last,
            frames,
        }
    }
}

/// Sets a stop flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The subscriber connection: subscribe, hand the baseline reply over,
/// then forward every push frame (with its arrival time) until told to
/// stop.
fn subscriber(addr: SocketAddr, group: &Group, out: mpsc::Sender<Frame>, stop: &AtomicBool) {
    let mut client = connect(addr);
    let baseline = client
        .request_raw(&inputs::subscribe_line(group))
        .ok()
        .and_then(|line| json::parse(&line).ok())
        .unwrap_or(Json::Null);
    let _ = out.send(Frame {
        epoch: 0,
        at: Instant::now(),
        body: baseline,
    });
    while !stop.load(Ordering::SeqCst) {
        if let Ok(Some(body)) = client.poll_push(Duration::from_millis(20)) {
            let at = Instant::now();
            let epoch = body.get("epoch").and_then(Json::as_u64).unwrap_or(0);
            if out.send(Frame { epoch, at, body }).is_err() {
                return;
            }
        }
    }
}

/// Timed read phase: one connection in closed loop. With a pool, every
/// query picks a warmed pool group (all hits); without one, every query
/// is a never-seen group (all misses).
fn read_phase(run: &mut Run<'_, '_, '_>, client: &mut Client, pool_keys: &[QueryKey]) {
    let ctx = run.ctx;
    let warm = !ctx.groups.pool.is_empty();
    if warm {
        run.warm(client, &ctx.groups.pool, pool_keys, false);
    }
    let epoch = ctx.live.epoch();
    let pool_lines: Vec<String> = ctx.groups.pool.iter().map(inputs::query_line).collect();
    // Never-seen groups are drawn up front, so the draw costs nothing
    // inside the window.
    let fresh: Vec<Group> = if warm {
        Vec::new()
    } else {
        let mut draw = ctx.groups.fresh.clone();
        (0..(ctx.seconds * 2_000.0) as usize + 1_000)
            .map(|_| draw.next_group())
            .collect()
    };
    let mut picks = PoolPicks::new(ctx.seed, ctx.groups.pool.len().max(1));
    let mut log = ReaderLog::default();
    let window = Window::new(ctx.seconds);
    let mut segment = 0;
    let mut n = 0usize;
    while window.open() {
        let now = segment_of(window.active(), window.budget);
        if now != segment {
            segment = now;
            client.reconnect().expect("reconnect");
        }
        let (group, line, key) = if warm {
            let i = picks.next_index();
            (
                ctx.groups.pool[i].clone(),
                pool_lines[i].clone(),
                pool_keys[i].clone(),
            )
        } else {
            let g = fresh.get(n).expect("enough never-seen groups drawn");
            (g.clone(), inputs::query_line(g), key_of(ctx.live, g))
        };
        let predicted = run.mirror.predict(epoch, &key);
        let (reply, latency) = timed(client, &line);
        log.record(&reply, latency, predicted, n < ctx.spec.prefix_queries);
        if n.is_multiple_of(SAMPLE_EVERY) && log.samples.len() < SAMPLE_CAP {
            log.samples.push((group.clone(), reply));
        }
        if log.lines.len() < 512 {
            log.lines.push(line);
            log.groups.push(group);
        }
        n += 1;
    }
    run.obs.active_s = window.active().as_secs_f64();
    run.absorb(log);
    let samples = std::mem::take(&mut run.pending);
    run.verify(epoch, &samples);
}

/// The timed phase's record of its queries.
#[derive(Default)]
struct ReaderLog {
    query_ms: Vec<f64>,
    failed: u64,
    hits: u64,
    misses: u64,
    nondeterministic: u64,
    prefix: PrefixCounts,
    samples: Vec<(Group, String)>,
    lines: Vec<String>,
    groups: Vec<Group>,
}

impl ReaderLog {
    fn record(&mut self, reply: &str, latency: Duration, predicted: &str, in_prefix: bool) {
        let ok = check::is_ok(reply);
        let served = check::cache_of(reply);
        if !ok {
            self.failed += 1;
        } else {
            self.query_ms.push(ms(latency));
        }
        match served {
            "hit" => self.hits += 1,
            "miss" => self.misses += 1,
            _ => {}
        }
        if served != predicted {
            self.nondeterministic += 1;
        }
        if in_prefix {
            self.prefix.queries += 1;
            self.prefix.hits += u64::from(served == "hit");
            self.prefix.misses += u64::from(served == "miss");
            self.prefix.sa_total += check::field(reply, "sa")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
}

impl Run<'_, '_, '_> {
    fn absorb(&mut self, log: ReaderLog) {
        self.obs.attempted += (log.query_ms.len() as u64) + log.failed;
        self.obs.failed += log.failed;
        self.obs.query_ms.extend(log.query_ms);
        self.obs.hits += log.hits;
        self.obs.misses += log.misses;
        self.obs.nondeterministic += log.nondeterministic;
        self.obs.prefix = log.prefix;
        self.pending.extend(log.samples);
        self.obs.query_lines.extend(log.lines);
        self.obs.queried.extend(log.groups);
    }
}

/// Timed write phase: one connection runs the seeded interleave — one
/// single-rating ingest, then `spec.queries_per_ingest` queries over the
/// warmed pool — while the subscriber connection collects push frames.
fn write_phase(
    run: &mut Run<'_, '_, '_>,
    client: &mut Client,
    pool_keys: &[QueryKey],
    sub: &mut Subscription,
) {
    let ctx = run.ctx;
    let pool_lines: Vec<String> = ctx.groups.pool.iter().map(inputs::query_line).collect();
    let mut writes = WriteStream::new(
        ctx.seed,
        4,
        ctx.cohort,
        &ctx.groups.subscribed,
        ctx.items,
        ctx.spec.touch_every,
    );
    let mut picks = PoolPicks::new(ctx.seed, ctx.groups.pool.len());
    let mut log = ReaderLog::default();
    let mut window = Window::new(ctx.seconds);
    let mut n = 0usize;
    let mut cycle = 0usize;
    let mut segment = 0;
    while window.open() {
        let now = segment_of(window.active(), window.budget);
        if now != segment {
            segment = now;
            client.reconnect().expect("reconnect");
        }
        let in_prefix = n < ctx.spec.prefix_queries;
        let pushes_before = run.obs.push_lag_ms.len();
        if !run.ingest(
            client,
            &mut window,
            writes.next_write(hot_item(&sub.last)),
            sub,
        ) {
            break;
        }
        if in_prefix {
            log.prefix.publishes += 1;
            log.prefix.pushes += (run.obs.push_lag_ms.len() - pushes_before) as u64;
        }
        let epoch = ctx.live.epoch();
        let mut kept = Vec::new();
        for _ in 0..ctx.spec.queries_per_ingest {
            let i = picks.next_index();
            let predicted = run.mirror.predict(epoch, &pool_keys[i]);
            let (reply, latency) = timed(client, &pool_lines[i]);
            log.record(&reply, latency, predicted, n < ctx.spec.prefix_queries);
            if cycle.is_multiple_of(VERIFY_EVERY) {
                kept.push((ctx.groups.pool[i].clone(), reply));
            }
            if log.lines.len() < 512 {
                log.lines.push(pool_lines[i].clone());
                log.groups.push(ctx.groups.pool[i].clone());
            }
            n += 1;
        }
        window.pause(|| run.verify(epoch, &kept));
        cycle += 1;
    }
    run.obs.active_s = window.active().as_secs_f64();
    run.absorb(log);
}

/// The untimed-for-queries tail of the read workloads: ingests that
/// each re-rate the subscribed group's top item, so ingest latency and
/// push lag are measured on the same world and model, after the timed
/// read window has closed.
fn tail_phase(run: &mut Run<'_, '_, '_>, client: &mut Client, sub: &mut Subscription) {
    let ctx = run.ctx;
    let mut writes = WriteStream::new(
        ctx.seed,
        5,
        ctx.cohort,
        &ctx.groups.subscribed,
        ctx.items,
        1,
    );
    let mut window = Window::new(1e9);
    for _ in 0..ctx.spec.tail_ingests {
        run.ingest(
            client,
            &mut window,
            writes.next_write(hot_item(&sub.last)),
            sub,
        );
    }
}

/// The item a touching ingest rates: the subscribed group's current top
/// item.
fn hot_item(baseline: &TopKResult) -> ItemId {
    baseline.items.first().expect("a non-empty top-k").item
}
