//! Concurrency stress for continuous queries: subscriptions, hot
//! queries and ingest publishes racing across 10k+ operations.
//!
//! What must hold under the race:
//!
//! * the single-flight cache never wedges — every request gets exactly
//!   one response and the test runs to completion;
//! * no pushed delta reflects a stale epoch — each subscriber's push
//!   epochs are strictly increasing;
//! * graceful drain flushes pending subscription notifications — the
//!   final targeted publish right before `shutdown()` still reaches
//!   every subscriber, whose last frame must be bit-identical to a
//!   direct engine run at the final epoch.

use greca_affinity::{PopulationAffinity, TableAffinitySource};
use greca_core::{LiveEngine, LiveModel};
use greca_dataset::{Granularity, Group, ItemId, RatingMatrix, Timeline, UserId};
use greca_serve::{Client, GrecaServer, Json, ServeConfig};
use std::time::Duration;

const USERS: u32 = 24;
const ITEMS: u32 = 50;
const SUBSCRIBERS: usize = 4;
const QUERY_CLIENTS: usize = 6;
const QUERIES_PER_CLIENT: usize = 1700;
const INGEST_CLIENTS: usize = 2;
const BATCHES_PER_CLIENT: usize = 300;

/// A deterministic mid-sized world (the `cache_correctness` one).
fn world() -> (RatingMatrix, PopulationAffinity, Vec<ItemId>) {
    let mut b = greca_dataset::RatingMatrixBuilder::new(USERS as usize, ITEMS as usize);
    let mut next = lcg(0x9e3779b9);
    for u in 0..USERS {
        for i in 0..ITEMS {
            if next().is_multiple_of(3) {
                let value = (next() % 5 + 1) as f32;
                b.rate(UserId(u), ItemId(i), value, i64::from(next() % 100));
            }
        }
    }
    let mut src = TableAffinitySource::new();
    let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
    for u in 0..USERS {
        for v in (u + 1)..USERS {
            src.set_static(UserId(u), UserId(v), f64::from(next() % 100) / 100.0);
            for p in tl.periods() {
                src.set_periodic(
                    UserId(u),
                    UserId(v),
                    p.start,
                    f64::from(next() % 100) / 100.0,
                );
            }
        }
    }
    let users: Vec<UserId> = (0..USERS).map(UserId).collect();
    let pop = PopulationAffinity::build(&src, &users, &tl);
    let items: Vec<ItemId> = (0..ITEMS).map(ItemId).collect();
    (b.build(), pop, items)
}

/// A seeded LCG — per-thread determinism without a shared RNG.
fn lcg(seed: u64) -> impl FnMut() -> u32 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    }
}

/// `(item, lb-bits, ub-bits)` rows of a response or push frame.
type Rows = Vec<(u64, u64, u64)>;

/// Push frames as `(epoch, rows)`, in wire arrival order.
type Frames = Vec<(u64, Rows)>;

/// Extract the [`Rows`] of a response or push frame.
fn rows_of(frame: &Json) -> Rows {
    frame
        .get("items")
        .and_then(Json::as_array)
        .expect("items array")
        .iter()
        .map(|t| {
            (
                t.get("item").and_then(Json::as_u64).expect("item"),
                t.get("lb").and_then(Json::as_f64).expect("lb").to_bits(),
                t.get("ub").and_then(Json::as_f64).expect("ub").to_bits(),
            )
        })
        .collect()
}

fn epoch_of(frame: &Json) -> u64 {
    frame.get("epoch").and_then(Json::as_u64).expect("epoch")
}

/// Shuts the server down even when an assertion panics mid-scope.
struct ShutdownOnDrop(greca_serve::ServerHandle);
impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Subscriber `s` watches the disjoint group `{3s, 3s+1, 3s+2}` over
/// the full catalog (k = |items|, so any member-row change moves the
/// result and must produce a push).
fn sub_group(s: usize) -> Vec<u32> {
    (0..3).map(|i| (s * 3 + i) as u32).collect()
}

#[test]
fn subscriptions_hot_queries_and_publishes_race() {
    let (matrix, pop, items) = world();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
    let server = GrecaServer::bind(&live, ServeConfig::default()).unwrap();
    let handle = server.handle();
    let item_ids: Vec<u32> = (0..ITEMS).collect();

    // (baseline epoch+rows, pushed frames) per subscriber, collected
    // until the server closes the socket at the end of its drain.
    let mut collected: Vec<(u64, Rows, Frames)> = Vec::new();

    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());

        let sub_handles: Vec<_> = (0..SUBSCRIBERS)
            .map(|i| {
                let handle = handle.clone();
                let item_ids = &item_ids;
                s.spawn(move || {
                    let mut client = Client::connect(handle.addr()).unwrap();
                    let baseline = client
                        .subscribe(&sub_group(i), Some(item_ids), Some(ITEMS as usize))
                        .unwrap();
                    assert_eq!(
                        baseline.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "subscribe must succeed: {baseline:?}"
                    );
                    assert!(baseline.get("sub").and_then(Json::as_u64).is_some());
                    let base = (epoch_of(&baseline), rows_of(&baseline));
                    let mut frames = Vec::new();
                    loop {
                        match client.poll_push(Duration::from_millis(100)) {
                            Ok(Some(frame)) => {
                                assert_eq!(
                                    frame.get("push").and_then(Json::as_str),
                                    Some("delta"),
                                    "push frames carry the delta marker"
                                );
                                frames.push((epoch_of(&frame), rows_of(&frame)));
                            }
                            Ok(None) => continue,
                            Err(_) => break, // server drained and closed
                        }
                    }
                    (base.0, base.1, frames)
                })
            })
            .collect();

        // One subscriber that unsubscribes mid-storm: the inline verb
        // must work (and stop its stream) while the pump is busy.
        let cancel_handle = handle.clone();
        let cancel_items = &item_ids;
        let canceller = s.spawn(move || {
            let mut client = Client::connect(cancel_handle.addr()).unwrap();
            let baseline = client
                .subscribe(&[1, 7, 13], Some(cancel_items), Some(10))
                .unwrap();
            let sub = baseline.get("sub").and_then(Json::as_u64).unwrap();
            // Let a few publishes land first.
            let mut seen = 0u32;
            while seen < 2 {
                match client.poll_push(Duration::from_millis(100)) {
                    Ok(Some(_)) => seen += 1,
                    Ok(None) => continue,
                    Err(_) => return,
                }
            }
            let off = client.unsubscribe(sub).unwrap();
            assert_eq!(off.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(off.get("removed").and_then(Json::as_bool), Some(true));
            // A frame already in flight may still arrive; after the
            // stream quiesces nothing more does.
            let mut quiet = 0;
            while quiet < 3 {
                match client.poll_push(Duration::from_millis(50)) {
                    Ok(Some(_)) => quiet = 0,
                    Ok(None) => quiet += 1,
                    Err(_) => return,
                }
            }
        });

        let query_handles: Vec<_> = (0..QUERY_CLIENTS)
            .map(|c| {
                let handle = handle.clone();
                let item_ids = &item_ids;
                s.spawn(move || {
                    let mut client = Client::connect(handle.addr()).unwrap();
                    let mut next = lcg(0xA11CE ^ ((c as u64) << 17));
                    let mut answered = 0usize;
                    for _ in 0..QUERIES_PER_CLIENT {
                        // Half the traffic hammers the subscribed
                        // groups (max single-flight contention with the
                        // pump); the rest roams.
                        let group: Vec<u32> = if next().is_multiple_of(2) {
                            sub_group((next() % SUBSCRIBERS as u32) as usize)
                        } else {
                            let base = next() % (USERS - 3);
                            (0..2 + next() % 2).map(|i| base + i).collect()
                        };
                        let reply = client.query(&group, Some(item_ids), Some(5)).unwrap();
                        let ok = reply.get("ok").and_then(Json::as_bool) == Some(true);
                        let typed_error = reply.get("error").and_then(Json::as_str).is_some();
                        assert!(ok || typed_error, "untyped reply: {reply:?}");
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();

        let ingest_handles: Vec<_> = (0..INGEST_CLIENTS)
            .map(|c| {
                let handle = handle.clone();
                s.spawn(move || {
                    let mut client = Client::connect(handle.addr()).unwrap();
                    let mut next = lcg(0x1326e57 ^ ((c as u64) << 23));
                    for _ in 0..BATCHES_PER_CLIENT {
                        let ratings: Vec<(u32, u32, f32, i64)> = (0..1 + next() % 3)
                            .map(|_| {
                                (
                                    next() % USERS,
                                    next() % ITEMS,
                                    (next() % 5 + 1) as f32,
                                    i64::from(next() % 100),
                                )
                            })
                            .collect();
                        let reply = client.ingest(&ratings).unwrap();
                        assert_eq!(
                            reply.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "ingest must succeed: {reply:?}"
                        );
                    }
                })
            })
            .collect();

        let answered: usize = query_handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(
            answered,
            QUERY_CLIENTS * QUERIES_PER_CLIENT,
            "single-flight must never wedge a query"
        );
        for h in ingest_handles {
            h.join().unwrap();
        }
        canceller.join().unwrap();

        // The drain-flush probe: dirty one member of every subscribed
        // group with a value no random batch produces (they are all
        // integral), publish, and shut down immediately — the pending
        // notification must still reach every subscriber.
        let mut control = Client::connect(handle.addr()).unwrap();
        let finale: Vec<(u32, u32, f32, i64)> = (0..SUBSCRIBERS)
            .map(|i| (sub_group(i)[0], 0, 4.33, 0))
            .collect();
        let reply = control.ingest(&finale).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let final_epoch = reply.get("epoch").and_then(Json::as_u64).unwrap();

        // Server-side counters before shutdown: pushes flowed, none
        // failed, and the wire stayed clean.
        let stats = control.stats().unwrap();
        let subs = stats.get("subscriptions").expect("subscriptions block");
        assert!(subs.get("sub_runs").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(subs.get("push_errors").and_then(Json::as_u64), Some(0));
        assert_eq!(
            stats
                .get("metrics")
                .and_then(|m| m.get("protocol_errors"))
                .and_then(Json::as_u64),
            Some(0)
        );

        assert!(final_epoch >= 1);
        handle.shutdown();
        for (i, h) in sub_handles.into_iter().enumerate() {
            let got = h.join().unwrap();
            assert!(!got.2.is_empty(), "subscriber {i} saw no pushes");
            collected.push(got);
        }
    });

    // Post-drain verification against the engine itself.
    let pin = live.pin();
    let final_epoch = pin.epoch();
    let engine = pin.engine();
    for (i, (_base_epoch, _base_rows, frames)) in collected.iter().enumerate() {
        // No pushed delta reflects a stale epoch: push epochs strictly
        // increase in wire order. (A push may carry an epoch below the
        // *baseline's* — the pump's first re-runs race subscription
        // registration and land on the wire before the baseline
        // response — but the push stream itself never goes backwards.)
        for pair in frames.windows(2) {
            assert!(
                pair[1].0 > pair[0].0,
                "subscriber {i}: push epoch {} after {} is stale",
                pair[1].0,
                pair[0].0
            );
        }
        // Drain flushed the final notification: the last frame sits at
        // the final epoch and matches a direct engine run bit for bit.
        let (last_epoch, last_rows) = frames.last().expect("non-empty, asserted above");
        assert_eq!(
            *last_epoch, final_epoch,
            "subscriber {i}: the pre-shutdown publish was not flushed"
        );
        let group = Group::new(sub_group(i).into_iter().map(UserId).collect()).unwrap();
        let direct = engine
            .query(&group)
            .items(&items)
            .top(ITEMS as usize)
            .run()
            .unwrap();
        let direct_rows: Rows = direct
            .items
            .iter()
            .map(|t| (u64::from(t.item.0), t.lb.to_bits(), t.ub.to_bits()))
            .collect();
        assert_eq!(
            last_rows, &direct_rows,
            "subscriber {i}: final pushed result differs from direct execution"
        );
    }
}

/// A subscription made at epoch 0 records its baseline: a publish that
/// re-runs it without changing its answer pushes nothing.
#[test]
fn epoch_zero_subscription_pushes_only_changed_answers() {
    let (matrix, pop, items) = world();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
    assert_eq!(live.epoch(), 0, "fresh engines start at epoch 0");
    let server = GrecaServer::bind(&live, ServeConfig::default()).unwrap();
    let handle = server.handle();
    let feed: Vec<u32> = (0..10).collect();
    let mut frames = Vec::new();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).unwrap();
        let baseline = client.subscribe(&[0, 1, 2], Some(&feed), Some(5)).unwrap();
        assert_eq!(baseline.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(epoch_of(&baseline), 0);

        // Member 0 rates an item outside the subscribed itemset: the
        // publish dirties the subscription's footprint (so the pump
        // re-runs it) but cannot move its answer.
        let mut control = Client::connect(handle.addr()).unwrap();
        let reply = control.ingest(&[(0, ITEMS - 1, 5.0, 1)]).unwrap();
        assert_eq!(reply.get("epoch").and_then(Json::as_u64), Some(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let stats = control.stats().unwrap();
            let runs = stats
                .get("subscriptions")
                .and_then(|s| s.get("sub_runs"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if runs >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the pump never re-ran"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // Shutdown drains the pump and flushes every pending push
        // before the socket closes, so this collects all of them.
        handle.shutdown();
        loop {
            match client.poll_push(Duration::from_millis(100)) {
                Ok(Some(frame)) => frames.push(epoch_of(&frame)),
                Ok(None) => continue,
                Err(_) => break,
            }
        }
    });
    assert!(
        frames.is_empty(),
        "an unchanged answer was pushed at epochs {frames:?}"
    );
}
