//! Cache-correctness contract tests over the full server stack:
//!
//! 1. responses served over TCP — cache hits included — are
//!    bit-identical to direct `GrecaEngine` execution on the same
//!    epoch;
//! 2. a `publish` epoch swap invalidates the cache: no stale epoch is
//!    ever served, and the new epoch's results flow immediately;
//! 3. concurrent identical queries coalesce onto one kernel execution
//!    (no stampede).

use greca_affinity::{PopulationAffinity, TableAffinitySource};
use greca_core::{LiveEngine, LiveModel, TopKResult};
use greca_dataset::{Granularity, Group, ItemId, RatingMatrix, Timeline, UserId};
use greca_serve::{Client, GrecaServer, Json, ServeConfig};
use std::sync::Barrier;

const USERS: u32 = 24;
const ITEMS: u32 = 50;

/// A deterministic mid-sized world: every user rates a pseudo-random
/// third of the catalog; affinities cover a clique with two periods.
fn world() -> (RatingMatrix, PopulationAffinity, Vec<ItemId>) {
    let mut b = greca_dataset::RatingMatrixBuilder::new(USERS as usize, ITEMS as usize);
    let mut state = 0x9e3779b9u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for u in 0..USERS {
        for i in 0..ITEMS {
            if next() % 3 == 0 {
                let value = (next() % 5 + 1) as f32;
                b.rate(UserId(u), ItemId(i), value, i64::from(next() % 100));
            }
        }
    }
    let mut src = TableAffinitySource::new();
    let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
    let (p1, p2) = (tl.periods()[0], tl.periods()[1]);
    for u in 0..USERS {
        for v in (u + 1)..USERS {
            src.set_static(UserId(u), UserId(v), f64::from(next() % 100) / 100.0);
            src.set_periodic(
                UserId(u),
                UserId(v),
                p1.start,
                f64::from(next() % 100) / 100.0,
            );
            src.set_periodic(
                UserId(u),
                UserId(v),
                p2.start,
                f64::from(next() % 100) / 100.0,
            );
        }
    }
    let users: Vec<UserId> = (0..USERS).map(UserId).collect();
    let pop = PopulationAffinity::build(&src, &users, &tl);
    let items: Vec<ItemId> = (0..ITEMS).map(ItemId).collect();
    (b.build(), pop, items)
}

/// A query response's comparable pieces: epoch, cache disposition,
/// `(item, lb, ub)` rows, and the `sa`/`ra`/`sweeps` counters.
type Payload = (u64, String, Vec<(u64, f64, f64)>, u64, u64, u64);

/// Parse a query response's payload into comparable pieces.
fn parsed_payload(response: &Json) -> Payload {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "query must succeed: {response:?}"
    );
    let items = response
        .get("items")
        .and_then(Json::as_array)
        .expect("items array")
        .iter()
        .map(|t| {
            (
                t.get("item").and_then(Json::as_u64).expect("item id"),
                t.get("lb").and_then(Json::as_f64).expect("lb"),
                t.get("ub").and_then(Json::as_f64).expect("ub"),
            )
        })
        .collect();
    (
        response.get("epoch").and_then(Json::as_u64).expect("epoch"),
        response
            .get("cache")
            .and_then(Json::as_str)
            .expect("cache disposition")
            .to_string(),
        items,
        response.get("sa").and_then(Json::as_u64).expect("sa"),
        response.get("ra").and_then(Json::as_u64).expect("ra"),
        response
            .get("sweeps")
            .and_then(Json::as_u64)
            .expect("sweeps"),
    )
}

/// Assert a served payload equals a direct engine result, bit for bit.
fn assert_payload_matches(served: &Json, direct: &TopKResult) {
    let (_, _, items, sa, ra, sweeps) = parsed_payload(served);
    assert_eq!(items.len(), direct.items.len(), "result size");
    for (got, want) in items.iter().zip(&direct.items) {
        assert_eq!(got.0, u64::from(want.item.0), "item id");
        assert_eq!(got.1.to_bits(), want.lb.to_bits(), "lb bits");
        assert_eq!(got.2.to_bits(), want.ub.to_bits(), "ub bits");
    }
    assert_eq!((sa, ra), (direct.stats.sa, direct.stats.ra));
    assert_eq!(sweeps, direct.sweeps);
}

/// Shuts the server down even when an assertion panics mid-scope, so a
/// test failure surfaces instead of deadlocking on the scope join.
struct ShutdownOnDrop(greca_serve::ServerHandle);
impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[test]
fn served_responses_bit_identical_to_direct_engine_across_parameters() {
    let (matrix, pop, items) = world();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
    let server = GrecaServer::bind(&live, ServeConfig::default()).unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).unwrap();

        let item_ids: Vec<u32> = (0..ITEMS).collect();
        let subset: Vec<u32> = (0..ITEMS).step_by(3).collect();
        let cases: Vec<Json> = vec![
            // Paper defaults over the full catalog.
            Json::obj(vec![
                ("verb", Json::str("query")),
                (
                    "group",
                    Json::Arr(vec![Json::num(1u32), Json::num(4u32), Json::num(9u32)]),
                ),
                (
                    "items",
                    Json::Arr(item_ids.iter().map(|&i| Json::num(i)).collect()),
                ),
            ]),
            // Default (candidate) itemset, custom k.
            Json::obj(vec![
                ("verb", Json::str("query")),
                ("group", Json::Arr(vec![Json::num(2u32), Json::num(7u32)])),
                ("k", Json::num(4u32)),
            ]),
            // Subset itemset, early period, static-only affinity, MO.
            Json::obj(vec![
                ("verb", Json::str("query")),
                (
                    "group",
                    Json::Arr(vec![Json::num(0u32), Json::num(5u32), Json::num(11u32)]),
                ),
                (
                    "items",
                    Json::Arr(subset.iter().map(|&i| Json::num(i)).collect()),
                ),
                ("k", Json::num(7u32)),
                ("period", Json::num(0u32)),
                ("mode", Json::str("static")),
                ("consensus", Json::str("mo")),
            ]),
            // Pairwise disagreement.
            Json::obj(vec![
                ("verb", Json::str("query")),
                ("group", Json::Arr(vec![Json::num(3u32), Json::num(8u32)])),
                ("consensus", Json::str("pd:0.8")),
                ("k", Json::num(5u32)),
            ]),
        ];

        for body in &cases {
            // Twice: the first answer computes, the second must be a
            // cache hit — and both must equal the direct run.
            let first = client.request(body).unwrap();
            let second = client.request(body).unwrap();
            let (_, disposition1, ..) = parsed_payload(&first);
            let (_, disposition2, ..) = parsed_payload(&second);
            assert_eq!(disposition1, "miss", "{body:?}");
            assert_eq!(disposition2, "hit", "{body:?}");

            // Rebuild the exact same query directly on a pinned engine.
            let pin = live.pin();
            let engine = pin.engine();
            let members: Vec<UserId> = body
                .get("group")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|v| UserId(v.as_u64().unwrap() as u32))
                .collect();
            let group = Group::new(members).unwrap();
            let direct_items: Option<Vec<ItemId>> = body.get("items").map(|v| {
                v.as_array()
                    .unwrap()
                    .iter()
                    .map(|v| ItemId(v.as_u64().unwrap() as u32))
                    .collect()
            });
            let mut query = engine.query(&group);
            if let Some(items) = &direct_items {
                query = query.items(items);
            }
            if let Some(k) = body.get("k").and_then(Json::as_u64) {
                query = query.top(k as usize);
            }
            if let Some(p) = body.get("period").and_then(Json::as_u64) {
                query = query.period(p as usize);
            }
            if body.get("mode").and_then(Json::as_str) == Some("static") {
                query = query.affinity(greca_affinity::AffinityMode::StaticOnly);
            }
            match body.get("consensus").and_then(Json::as_str) {
                Some("mo") => {
                    query = query.consensus(greca_consensus::ConsensusFunction::least_misery())
                }
                Some("pd:0.8") => {
                    query = query.consensus(
                        greca_consensus::ConsensusFunction::pairwise_disagreement(0.8),
                    )
                }
                _ => {}
            }
            let direct = query.run().unwrap();
            assert_payload_matches(&first, &direct);
            assert_payload_matches(&second, &direct);
        }
        handle.shutdown();
    });
}

#[test]
fn publish_invalidates_cache_and_never_serves_a_stale_epoch() {
    let (matrix, pop, items) = world();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
    let server = GrecaServer::bind(&live, ServeConfig::default()).unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).unwrap();
        let group = [1u32, 4, 9];
        let item_ids: Vec<u32> = (0..ITEMS).collect();

        // Warm the cache at epoch 0.
        let before = client.query(&group, Some(&item_ids), Some(5)).unwrap();
        let (epoch0, _, items_before, ..) = parsed_payload(&before);
        assert_eq!(epoch0, 0);
        let (_, disposition, ..) =
            parsed_payload(&client.query(&group, Some(&item_ids), Some(5)).unwrap());
        assert_eq!(disposition, "hit");

        // Publish a rating that reshuffles member 1's preferences:
        // give their worst-ranked item a top score.
        let reply = client
            .ingest(&[(1, items_before.last().unwrap().0 as u32, 5.0, 1_000)])
            .unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("epoch").and_then(Json::as_u64), Some(1));

        // The very next identical query must recompute at epoch 1 —
        // a hit here would be a stale-epoch bug.
        let after = client.query(&group, Some(&item_ids), Some(5)).unwrap();
        let (epoch1, disposition, ..) = parsed_payload(&after);
        assert_eq!(epoch1, 1, "served epoch must advance with the publish");
        assert_eq!(disposition, "miss", "stale cache entry must not survive");

        // And the payload equals a direct engine run on the new epoch.
        let pin = live.pin();
        assert_eq!(pin.epoch(), 1);
        let engine = pin.engine();
        let g = Group::new(group.iter().map(|&u| UserId(u)).collect()).unwrap();
        let direct = engine.query(&g).items(&items).top(5).run().unwrap();
        assert_payload_matches(&after, &direct);

        // The invalidation came through the publish hook — selectively
        // (the default), with the stale entry in the dropped column:
        // the warmed group contains user 1, whom the publish dirtied.
        let stats = &server.cache().stats;
        assert!(
            stats
                .selective_publishes
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
        assert!(stats.dropped.load(std::sync::atomic::Ordering::Relaxed) >= 1);
        handle.shutdown();
    });
}

#[test]
fn overlapping_group_misses_share_member_state_and_stay_identical() {
    let (matrix, pop, items) = world();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
    let server = GrecaServer::bind(&live, ServeConfig::default()).unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).unwrap();
        let item_ids: Vec<u32> = (0..ITEMS).collect();

        // A chain of overlapping groups: every interior member appears
        // in three distinct (differently-keyed) queries, so each miss
        // after the first finds most of its members already resolved in
        // the epoch's shared arena.
        for g in 0..8u32 {
            let response = client
                .query(&[g, g + 1, g + 2], Some(&item_ids), Some(5))
                .unwrap();
            let (_, disposition, ..) = parsed_payload(&response);
            assert_eq!(disposition, "miss");

            // Bit-identical to a direct, unshared engine run.
            let pin = live.pin();
            let engine = pin.engine();
            let group = Group::new(vec![UserId(g), UserId(g + 1), UserId(g + 2)]).unwrap();
            let direct = engine.query(&group).items(&items).top(5).run().unwrap();
            assert_payload_matches(&response, &direct);
        }

        // The stats verb surfaces the arena: members were resolved
        // once and reused across the overlapping misses.
        let stats = client.stats().unwrap();
        let planner = stats.get("planner").expect("planner stats block");
        let num = |k: &str| planner.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
        assert!(num("resolved_members") >= 10.0, "{planner:?}");
        assert!(num("reused_members") > 0.0, "{planner:?}");
        assert!(num("entries") > 0.0, "{planner:?}");
        handle.shutdown();
    });
}

#[test]
fn concurrent_identical_queries_do_not_stampede_the_kernel() {
    const CLIENTS: usize = 8;
    let (matrix, pop, items) = world();
    let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
    let server = GrecaServer::bind(&live, ServeConfig::default()).unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(server.handle());
        s.spawn(|| server.run());
        let gate = Barrier::new(CLIENTS);
        let payloads: Vec<Payload> = std::thread::scope(|inner| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let gate = &gate;
                    let addr = handle.addr();
                    inner.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        gate.wait();
                        let response = client.query(&[2, 6, 13], None, Some(6)).unwrap();
                        parsed_payload(&response)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Single-flight: exactly one kernel execution for the herd —
        // everyone else hit the entry or coalesced onto the in-flight
        // run.
        let stats = &server.cache().stats;
        let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(load(&stats.misses), 1, "one kernel run, not {CLIENTS}");
        assert_eq!(
            load(&stats.hits) + load(&stats.coalesced),
            (CLIENTS - 1) as u64
        );
        assert_eq!(load(&stats.bypasses), 0);
        // Every client saw the identical payload.
        for p in &payloads[1..] {
            assert_eq!(
                (&p.2, p.3, p.4, p.5),
                (&payloads[0].2, payloads[0].3, payloads[0].4, payloads[0].5)
            );
        }
        handle.shutdown();
    });
}
