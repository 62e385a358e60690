//! Seeded inputs. Every group, every query order and every rating a
//! workload sends is drawn here from `--seed`, so two runs with the same
//! seed send the same requests in the same order. Each purpose has its
//! own RNG stream: how far one stream is consumed (which depends on how
//! many requests fit into the timed window) never shifts another.

use greca_dataset::{Group, ItemId, Rating, UserId};
use greca_serve::Json;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// Members per group (the paper's default).
pub const GROUP_SIZE: usize = 6;
/// Result size (the paper's default).
pub const K: usize = 10;

/// One independent RNG stream of the run.
fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Draws groups from the cohort, never repeating a member set.
#[derive(Clone)]
pub struct GroupDraw {
    rng: StdRng,
    cohort: Vec<UserId>,
    seen: HashSet<Vec<UserId>>,
}

impl GroupDraw {
    /// A fresh draw over `cohort` on stream `purpose`.
    pub fn new(seed: u64, purpose: u64, cohort: &[UserId]) -> Self {
        GroupDraw {
            rng: stream(seed, purpose),
            cohort: cohort.to_vec(),
            seen: HashSet::new(),
        }
    }

    /// Mark `group` as used so no later draw returns it.
    pub fn exclude(&mut self, group: &Group) {
        self.seen.insert(group.members().to_vec());
    }

    /// The next never-seen group of [`GROUP_SIZE`] cohort members.
    pub fn next_group(&mut self) -> Group {
        loop {
            let mut pool = self.cohort.clone();
            for i in 0..GROUP_SIZE {
                let j = self.rng.random_range(i..pool.len());
                pool.swap(i, j);
            }
            let group = Group::new(pool[..GROUP_SIZE].to_vec()).expect("distinct members");
            if self.seen.insert(group.members().to_vec()) {
                return group;
            }
        }
    }
}

/// The fixed groups of a run: the probe answered at the end of set-up,
/// the subscribed group, and the warmed query pool. All distinct.
pub struct Groups {
    /// First request after bind; its answer ends the set-up timer.
    pub probe: Group,
    /// The group a second connection subscribes to. Never in the pool,
    /// so the pump's re-runs touch no key the readers look up.
    pub subscribed: Group,
    /// The query pool.
    pub pool: Vec<Group>,
    /// Draws further never-seen groups (the cold workload's stream).
    pub fresh: GroupDraw,
}

impl Groups {
    /// Draw the fixed groups for a pool of `pool` groups.
    pub fn draw(seed: u64, cohort: &[UserId], pool: usize) -> Self {
        let mut draw = GroupDraw::new(seed, 1, cohort);
        let probe = draw.next_group();
        let subscribed = draw.next_group();
        let pool: Vec<Group> = (0..pool).map(|_| draw.next_group()).collect();
        let mut fresh = GroupDraw::new(seed, 2, cohort);
        fresh.exclude(&probe);
        fresh.exclude(&subscribed);
        for g in &pool {
            fresh.exclude(g);
        }
        Groups {
            probe,
            subscribed,
            pool,
            fresh,
        }
    }
}

/// Uniform picks from a pool of `len` groups.
pub struct PoolPicks {
    rng: StdRng,
    len: usize,
}

impl PoolPicks {
    /// The pick stream for `seed`.
    pub fn new(seed: u64, len: usize) -> Self {
        PoolPicks {
            rng: stream(seed, 16),
            len,
        }
    }

    /// The next pool index.
    pub fn next_index(&mut self) -> usize {
        self.rng.random_range(0..self.len)
    }
}

/// One single-pair ingest.
#[derive(Debug, Clone, Copy)]
pub enum Write {
    /// Upsert one rating.
    Rate(Rating),
    /// Retract one `(user, item)` rating.
    Retract(UserId, ItemId),
}

impl Write {
    /// The batch as the engine's `(upserts, retractions)`.
    pub fn batch(&self) -> (Vec<Rating>, Vec<(UserId, ItemId)>) {
        match *self {
            Write::Rate(r) => (vec![r], Vec::new()),
            Write::Retract(u, i) => (Vec::new(), vec![(u, i)]),
        }
    }
}

/// The seeded single-pair ingest stream. Every `touch_every`-th ingest
/// touches the subscribed group, alternating two moves that both change
/// the group's answer, so a push follows each: one of its members
/// (rotating) rates the item the caller names, the group's current top
/// item, which removes it from the group's default candidate set; the
/// next touch retracts that rating and puts the item back. The
/// alternation keeps the candidate set from draining over a long run.
/// The other ingests rate a random catalog item by a cohort user
/// outside the subscribed group.
pub struct WriteStream {
    rng: StdRng,
    others: Vec<UserId>,
    members: Vec<UserId>,
    items: Vec<ItemId>,
    touch_every: usize,
    count: usize,
    touched: usize,
    /// The rating the last touch added, until the next touch retracts it.
    placed: Option<(UserId, ItemId)>,
}

impl WriteStream {
    /// The stream on RNG purpose `purpose`.
    pub fn new(
        seed: u64,
        purpose: u64,
        cohort: &[UserId],
        subscribed: &Group,
        items: &[ItemId],
        touch_every: usize,
    ) -> Self {
        let members = subscribed.members().to_vec();
        WriteStream {
            rng: stream(seed, purpose),
            others: cohort
                .iter()
                .copied()
                .filter(|u| !members.contains(u))
                .collect(),
            members,
            items: items.to_vec(),
            touch_every: touch_every.max(1),
            count: 0,
            touched: 0,
            placed: None,
        }
    }

    /// The next ingest; a touching one that rates picks `hot_item`.
    pub fn next_write(&mut self, hot_item: ItemId) -> Write {
        let ts = 1_000_000 + self.count as i64;
        self.count += 1;
        if self.count.is_multiple_of(self.touch_every) {
            if let Some((user, item)) = self.placed.take() {
                return Write::Retract(user, item);
            }
            let member = self.members[self.touched % self.members.len()];
            self.touched += 1;
            self.placed = Some((member, hot_item));
            return Write::Rate(Rating {
                user: member,
                item: hot_item,
                value: 4.5,
                ts,
            });
        }
        let user = self.others[self.rng.random_range(0..self.others.len())];
        let item = self.items[self.rng.random_range(0..self.items.len())];
        let value = 1.0 + 0.5 * self.rng.random_range(0..9u32) as f32;
        Write::Rate(Rating {
            user,
            item,
            value,
            ts,
        })
    }
}

/// The wire line of a `query` for `group` (server defaults apart from
/// an explicit k).
pub fn query_line(group: &Group) -> String {
    Json::obj(vec![
        ("verb", Json::str("query")),
        (
            "group",
            Json::Arr(group.members().iter().map(|u| Json::num(u.0)).collect()),
        ),
        ("k", Json::num(K as f64)),
    ])
    .to_line()
}

/// The wire line of a `subscribe` for `group`.
pub fn subscribe_line(group: &Group) -> String {
    query_line(group).replacen("\"query\"", "\"subscribe\"", 1)
}

/// The wire line of a single-pair `ingest`.
pub fn ingest_line(w: &Write) -> String {
    let (field, entry) = match *w {
        Write::Rate(r) => (
            "ratings",
            vec![
                Json::num(r.user.0),
                Json::num(r.item.0),
                Json::num(f64::from(r.value)),
                Json::num(r.ts as f64),
            ],
        ),
        Write::Retract(u, i) => ("retract", vec![Json::num(u.0), Json::num(i.0)]),
    };
    Json::obj(vec![
        ("verb", Json::str("ingest")),
        (field, Json::Arr(vec![Json::Arr(entry)])),
    ])
    .to_line()
}
