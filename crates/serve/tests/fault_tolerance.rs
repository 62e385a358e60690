//! Fault-tolerance tests over real sockets: degraded mode when the
//! WAL stalls (reads keep serving, annotated; mutations fail typed),
//! end-to-end idempotent ingest retries, per-request deadline budgets,
//! subscription retirement on dead subscriber writes, and worker-panic
//! containment — all driven by deterministic [`FaultPlan`] schedules.

use greca_affinity::{PopulationAffinity, TableAffinitySource};
use greca_core::{FaultCtx, FaultPlan, IoFault, LiveEngine, LiveModel, Wal, WalOptions};
use greca_dataset::{
    Granularity, ItemId, Rating, RatingMatrix, RatingMatrixBuilder, Timeline, UserId,
};
use greca_serve::{Client, GrecaServer, Json, ServeConfig};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: u32 = 16;
const ITEMS: u32 = 40;

fn world() -> (RatingMatrix, PopulationAffinity, Vec<ItemId>) {
    let mut b = RatingMatrixBuilder::new(USERS as usize, ITEMS as usize);
    for u in 0..USERS {
        for i in 0..ITEMS {
            if (u + i) % 3 == 0 {
                b.rate(UserId(u), ItemId(i), ((u * i) % 5 + 1) as f32, 0);
            }
        }
    }
    let mut src = TableAffinitySource::new();
    let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
    for u in 0..USERS {
        for v in (u + 1)..USERS {
            src.set_static(UserId(u), UserId(v), f64::from((u + v) % 10) / 10.0);
            src.set_periodic(
                UserId(u),
                UserId(v),
                tl.periods()[0].start,
                f64::from((u * v) % 10) / 10.0,
            );
        }
    }
    let users: Vec<UserId> = (0..USERS).map(UserId).collect();
    let pop = PopulationAffinity::build(&src, &users, &tl);
    (b.build(), pop, (0..ITEMS).map(ItemId).collect())
}

/// Shuts the server down even when an assertion panics mid-scope, so a
/// test failure surfaces instead of deadlocking on the scope join.
struct ShutdownOnDrop(greca_serve::ServerHandle);
impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("greca-servefault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A `ServeConfig` that ignores any ambient `GRECA_FAULT_PLAN` (these
/// tests need exact schedules, or none).
fn quiet_config() -> ServeConfig {
    ServeConfig {
        fault_plan: None,
        ..ServeConfig::default()
    }
}

fn ok_of(v: &Json) -> Option<bool> {
    v.get("ok").and_then(Json::as_bool)
}

fn code_of(v: &Json) -> Option<&str> {
    v.get("code").and_then(Json::as_str)
}

/// While the WAL is stalled the server answers reads from the last
/// healthy epoch — bit-identical, annotated with `degraded` +
/// `staleness_ms` — instead of shedding, mutations fail with the typed
/// `degraded` code, and the first successful publish clears the stall.
#[test]
fn wal_stall_degrades_reads_and_recovers() {
    let (matrix, pop, items) = world();
    let dir = scratch_dir("degraded");
    // Ingest #1 consumes WAL write ops 0 (batch) + 1 (commit) and
    // succeeds; ops 2 and 3 — the appends attempted by ingests #2 and
    // #3 — hit a full disk; ingest #4 (ops 4 + 5) succeeds again.
    let plan = Arc::new(
        FaultPlan::new(11)
            .schedule(FaultCtx::WalWrite, 2, IoFault::DiskFull)
            .schedule(FaultCtx::WalWrite, 3, IoFault::DiskFull),
    );
    let wal_options = WalOptions {
        fault: Some(Arc::clone(&plan)),
        ..WalOptions::default()
    };
    let wal = Wal::create(&dir, wal_options).unwrap();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items)
        .unwrap()
        .with_wal(wal);
    let server = GrecaServer::bind(&live, quiet_config()).unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).unwrap();

        let r = client.ingest(&[(0, 0, 5.0, 0)]).unwrap();
        assert_eq!(ok_of(&r), Some(true), "{r:?}");
        assert_eq!(r.get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(r.get("duplicate").and_then(Json::as_bool), Some(false));

        // Healthy reads carry no degraded annotation.
        let healthy = client.query(&[1, 2], None, Some(3)).unwrap();
        assert_eq!(ok_of(&healthy), Some(true));
        assert!(healthy.get("degraded").is_none(), "{healthy:?}");
        assert!(healthy.get("staleness_ms").is_none());

        // The disk fills: the append fails, the mutation is refused
        // with the typed code, and the engine enters degraded mode.
        let refused = client.ingest(&[(0, 1, 4.0, 0)]).unwrap();
        assert_eq!(ok_of(&refused), Some(false));
        assert_eq!(code_of(&refused), Some("degraded"), "{refused:?}");
        let h = client.health().unwrap();
        assert_eq!(h.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(h.get("wal_attached").and_then(Json::as_bool), Some(true));

        // Reads are still answered — same epoch, same items, annotated
        // instead of shed.
        let stale = client.query(&[1, 2], None, Some(3)).unwrap();
        assert_eq!(ok_of(&stale), Some(true), "degraded reads must serve");
        assert_eq!(stale.get("degraded").and_then(Json::as_bool), Some(true));
        assert!(
            stale.get("staleness_ms").and_then(Json::as_u64).is_some(),
            "{stale:?}"
        );
        assert_eq!(stale.get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(
            format!("{:?}", stale.get("items")),
            format!("{:?}", healthy.get("items")),
            "degraded reads serve the last healthy epoch bit-identically"
        );

        // Still stalled on the next attempt…
        let refused = client.ingest(&[(0, 2, 3.0, 0)]).unwrap();
        assert_eq!(code_of(&refused), Some("degraded"));

        // …until an append lands again: publish succeeds, stall clears.
        let r = client.ingest(&[(0, 3, 2.0, 0)]).unwrap();
        assert_eq!(ok_of(&r), Some(true), "{r:?}");
        assert_eq!(r.get("epoch").and_then(Json::as_u64), Some(2));
        let h = client.health().unwrap();
        assert_eq!(h.get("degraded").and_then(Json::as_bool), Some(false));
        let fresh = client.query(&[1, 2], None, Some(3)).unwrap();
        assert_eq!(ok_of(&fresh), Some(true));
        assert!(fresh.get("degraded").is_none());

        assert_eq!(plan.injected().len(), 2, "exactly the two planned faults");
        handle.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// An ingest retried with the same `batch` key is acknowledged as a
/// duplicate — same batch id, no second apply, no epoch bump.
#[test]
fn keyed_ingest_is_idempotent_over_the_wire() {
    let (matrix, pop, items) = world();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
    let server = GrecaServer::bind(&live, quiet_config()).unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).unwrap();

        let first = client.ingest_keyed(42, &[(0, 0, 5.0, 0)]).unwrap();
        assert_eq!(ok_of(&first), Some(true), "{first:?}");
        assert_eq!(first.get("duplicate").and_then(Json::as_bool), Some(false));
        assert_eq!(first.get("epoch").and_then(Json::as_u64), Some(1));
        let batch_id = first.get("batch_id").and_then(Json::as_u64).unwrap();

        // The retry (same key, even different payload) is a no-op.
        let retry = client.ingest_keyed(42, &[(0, 0, 1.0, 0)]).unwrap();
        assert_eq!(ok_of(&retry), Some(true), "{retry:?}");
        assert_eq!(retry.get("duplicate").and_then(Json::as_bool), Some(true));
        assert_eq!(retry.get("batch_id").and_then(Json::as_u64), Some(batch_id));
        assert_eq!(
            retry.get("epoch").and_then(Json::as_u64),
            Some(1),
            "a duplicate must not publish a new epoch"
        );

        // A fresh key applies normally.
        let second = client.ingest_keyed(43, &[(0, 1, 4.0, 0)]).unwrap();
        assert_eq!(second.get("duplicate").and_then(Json::as_bool), Some(false));
        assert_eq!(second.get("epoch").and_then(Json::as_u64), Some(2));
        handle.shutdown();
    });
}

/// A keyed ingest whose *commit* failed leaves its batch staged (not
/// committed) and its key remembered. The retry hits the duplicate
/// branch — and must not be false-acked off the idempotency map: it
/// re-attempts the publish, answering `degraded` again while the WAL
/// still fails, and acking only once the batch is really committed.
#[test]
fn keyed_retry_after_failed_commit_publishes_instead_of_false_acking() {
    let (matrix, pop, items) = world();
    let dir = scratch_dir("dup-commit");
    // WAL write op 0 is the batch append (succeeds); op 1 is the
    // commit marker (disk full → degraded, batch restaged); op 2 is
    // the commit re-attempted by the first retry (still full); op 3,
    // the second retry's commit, lands.
    let plan = Arc::new(
        FaultPlan::new(17)
            .schedule(FaultCtx::WalWrite, 1, IoFault::DiskFull)
            .schedule(FaultCtx::WalWrite, 2, IoFault::DiskFull),
    );
    let wal_options = WalOptions {
        fault: Some(Arc::clone(&plan)),
        ..WalOptions::default()
    };
    let wal = Wal::create(&dir, wal_options).unwrap();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items)
        .unwrap()
        .with_wal(wal);
    let server = GrecaServer::bind(&live, quiet_config()).unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).unwrap();

        let first = client.ingest_keyed(99, &[(0, 0, 5.0, 0)]).unwrap();
        assert_eq!(ok_of(&first), Some(false), "{first:?}");
        assert_eq!(code_of(&first), Some("degraded"));

        // Retry while the WAL is still failing: the batch is staged
        // but uncommitted, so `ok: true, duplicate: true` here would
        // acknowledge a write a crash could lose.
        let retry = client.ingest_keyed(99, &[(0, 0, 5.0, 0)]).unwrap();
        assert_eq!(
            ok_of(&retry),
            Some(false),
            "an uncommitted duplicate must not be acked: {retry:?}"
        );
        assert_eq!(code_of(&retry), Some("degraded"));

        // The disk drains: this retry's publish commits the staged
        // batch and the duplicate ack finally means "committed".
        let committed = client.ingest_keyed(99, &[(0, 0, 5.0, 0)]).unwrap();
        assert_eq!(ok_of(&committed), Some(true), "{committed:?}");
        assert_eq!(
            committed.get("duplicate").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(committed.get("epoch").and_then(Json::as_u64), Some(1));

        let h = client.health().unwrap();
        assert_eq!(h.get("degraded").and_then(Json::as_bool), Some(false));
        assert_eq!(h.get("epoch").and_then(Json::as_u64), Some(1));
        handle.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request whose `deadline_ms` budget is already spent when a worker
/// picks it up is answered `deadline_exceeded` without executing; a
/// generous budget is served normally.
#[test]
fn exhausted_deadlines_are_answered_without_executing() {
    let (matrix, pop, items) = world();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
    let server = GrecaServer::bind(&live, quiet_config()).unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).unwrap();

        let raw = client
            .request_raw(r#"{"verb":"query","group":[1,2],"k":3,"deadline_ms":0}"#)
            .unwrap();
        let v = greca_serve::json::parse(&raw).unwrap();
        assert_eq!(ok_of(&v), Some(false), "{raw}");
        assert_eq!(code_of(&v), Some("deadline_exceeded"), "{raw}");
        assert_eq!(
            server.metrics().deadline_exceeded.load(Ordering::Relaxed),
            1
        );

        let raw = client
            .request_raw(r#"{"verb":"query","group":[1,2],"k":3,"deadline_ms":30000}"#)
            .unwrap();
        let v = greca_serve::json::parse(&raw).unwrap();
        assert_eq!(ok_of(&v), Some(true), "{raw}");
        assert_eq!(
            server.metrics().deadline_exceeded.load(Ordering::Relaxed),
            1,
            "the served request must not tick the counter"
        );
        handle.shutdown();
    });
}

/// When a push write fails the subscription is retired (counted in
/// `subscribers_dropped`) instead of the pump spinning on a dead
/// socket forever.
#[test]
fn failed_push_writes_retire_the_subscription() {
    let (matrix, pop, items) = world();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
    // Socket-write op 0 is the subscribe response; op 1 is the first
    // push frame, which the plan turns into a dead-connection write.
    let plan = Arc::new(FaultPlan::new(3).schedule(FaultCtx::SockWrite, 1, IoFault::DropConn));
    let config = ServeConfig {
        fault_plan: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let server = GrecaServer::bind(&live, config).unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).unwrap();

        // An explicit itemset holding item 0, so the rating below moves
        // the answer (over the default candidate set it could not:
        // member 0 has rated item 0 already) and the push is real.
        let feed: Vec<u32> = (0..6).collect();
        let sub = client.subscribe(&[0, 1], Some(&feed), Some(3)).unwrap();
        assert_eq!(ok_of(&sub), Some(true), "{sub:?}");

        // Publish straight through the engine (not a client request, so
        // the push is deterministically socket-write op 1) with a
        // rating that rockets item 0 to the top for both members.
        live.ingest(&[
            Rating {
                user: UserId(0),
                item: ItemId(0),
                value: 5.0,
                ts: 0,
            },
            Rating {
                user: UserId(1),
                item: ItemId(0),
                value: 5.0,
                ts: 0,
            },
        ])
        .unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().subscribers_dropped.load(Ordering::Relaxed) == 0 {
            assert!(
                Instant::now() < deadline,
                "push failure never retired the subscription"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            server.metrics().subscribers_dropped.load(Ordering::Relaxed),
            1
        );
        assert!(server.metrics().push_errors.load(Ordering::Relaxed) >= 1);
        assert_eq!(server.metrics().pushes.load(Ordering::Relaxed), 0);
        handle.shutdown();
    });
}

/// An injected worker panic answers that one request with a typed
/// `internal` error; the server and the connection keep serving.
#[test]
fn a_worker_panic_is_contained_to_its_request() {
    let (matrix, pop, items) = world();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
    let plan = Arc::new(FaultPlan::new(5).schedule(FaultCtx::Work, 0, IoFault::Panic));
    let config = ServeConfig {
        fault_plan: Some(plan),
        query_workers: 2,
        ..ServeConfig::default()
    };
    let server = GrecaServer::bind(&live, config).unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).unwrap();

        let poisoned = client.query(&[1, 2], None, Some(3)).unwrap();
        assert_eq!(ok_of(&poisoned), Some(false), "{poisoned:?}");
        assert_eq!(code_of(&poisoned), Some("internal"), "{poisoned:?}");

        // Same connection, next request: served by a surviving worker.
        let fine = client.query(&[2, 3], None, Some(3)).unwrap();
        assert_eq!(ok_of(&fine), Some(true), "{fine:?}");
        handle.shutdown();
    });
}
