//! The repository benchmark: seeded serving workloads driven through
//! the real `greca-serve` stack in process, over loopback sockets.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_read|cold_read|write_mix|cf_write> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer ledger, built by
//! replaying the same seeded inputs through each layer's public calls.
//! Earlier lines record provenance, the exact counts of the run's fixed
//! input prefix, and a readable summary. See `perfbench/README.md`.

mod check;
mod drive;
mod inputs;
mod ledger;
mod provenance;
mod stats;

use drive::{Ctx, Observed};
use greca_bench::PerfWorld;
use greca_core::{BuildOptions, LiveEngine, LiveModel, RecoveryReport, Wal, WalOptions};
use greca_dataset::{ItemId, UserId};
use greca_serve::{Client, GrecaServer, Json, ServeConfig};
use inputs::Groups;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// One workload's shape. See `perfbench/README.md` for why each exists.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// The paper-scale world (`PerfWorld::build`) or the small study
    /// world (`PerfWorld::build_small`).
    pub paper_world: bool,
    /// User-based CF (`true`) or raw ratings.
    pub user_cf: bool,
    /// Whether the engine is restarted from a write-ahead log.
    pub wal: bool,
    /// Set-ups timed per run (the median is reported).
    pub setup_reps: usize,
    /// Warmed query pool size (0: every query is a never-seen group).
    pub pool: usize,
    /// Queries per ingest in a write workload (0: a read workload).
    pub queries_per_ingest: usize,
    /// Every n-th ingest of a write workload re-rates the subscribed
    /// group.
    pub touch_every: usize,
    /// Ingests after a read workload's timed window.
    pub tail_ingests: usize,
    /// Batches the write-ahead log holds before the restart.
    pub log_batches: usize,
    /// Queries (per connection) whose counts must repeat exactly.
    pub prefix_queries: usize,
}

impl Spec {
    /// The named workload.
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            paper_world: true,
            user_cf: true,
            wal: false,
            setup_reps: 3,
            pool: 0,
            queries_per_ingest: 0,
            touch_every: 1,
            tail_ingests: 0,
            log_batches: 0,
            prefix_queries: 0,
        };
        Some(match name {
            "hot_read" => Spec {
                name: "hot_read",
                pool: 256,
                tail_ingests: 2,
                prefix_queries: 2_000,
                ..base
            },
            "cold_read" => Spec {
                name: "cold_read",
                tail_ingests: 2,
                prefix_queries: 400,
                ..base
            },
            "write_mix" => Spec {
                name: "write_mix",
                paper_world: false,
                user_cf: false,
                setup_reps: 9,
                wal: true,
                pool: 64,
                queries_per_ingest: 11,
                touch_every: 8,
                log_batches: 2_000,
                prefix_queries: 800,
                ..base
            },
            "cf_write" => Spec {
                name: "cf_write",
                paper_world: false,
                setup_reps: 9,
                pool: 64,
                queries_per_ingest: 8,
                touch_every: 4,
                prefix_queries: 120,
                ..base
            },
            _ => return None,
        })
    }

    fn world_label(&self) -> &'static str {
        if self.paper_world {
            "paper (PerfWorld::build)"
        } else {
            "study (PerfWorld::build_small)"
        }
    }

    fn model_label(&self) -> &'static str {
        if self.user_cf {
            "user_cf"
        } else {
            "raw"
        }
    }

    fn build_world(&self) -> PerfWorld {
        if self.paper_world {
            PerfWorld::build()
        } else {
            PerfWorld::build_small()
        }
    }

    fn model(&self, pw: &PerfWorld) -> LiveModel {
        if self.user_cf {
            LiveModel::UserCf(pw.world().config.cf)
        } else {
            LiveModel::Raw
        }
    }
}

/// Seconds after which a run that has not finished exits with an error.
const WATCHDOG_SECS: u64 = 170;

/// Parsed command line.
struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set when this process is one of a run's helper processes.
    child: Option<Child>,
}

/// The helper processes a run starts (see [`timed_setup`] and
/// [`logged_epoch`]); each gets the run's own arguments plus
/// `--child <role>` and `--log-dir <dir>`.
enum Child {
    /// One set-up: build, bind, answer the probe, print `ready`, exit.
    Setup { log: Option<PathBuf> },
    /// Write the restart log into `log`, print `epoch <n>`, exit.
    Log { log: PathBuf },
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let spec = Spec::named(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes a u64".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    let log = value("--log-dir").ok().map(PathBuf::from);
    let child = match value("--child").ok() {
        None => None,
        Some("setup") => Some(Child::Setup { log }),
        Some("log") => Some(Child::Log {
            log: log.ok_or("--child log needs --log-dir")?,
        }),
        Some(other) => return Err(format!("unknown --child role '{other}'")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        child,
    })
}

/// Peak resident set of this process (it hosts the server), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scratch space inside the working directory (the checkout), removed
/// when dropped — also when a run panics.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = Path::new(".bench_build")
            .join("perfbench-scratch")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The WAL the write workload restarts from: an engine over a fresh
/// world ingests and publishes `spec.log_batches` seeded single-rating
/// batches through its public API under the default fsync policy, then
/// is dropped. Returns the epoch it had reached.
fn write_log(spec: &Spec, seed: u64, dir: &Path) -> u64 {
    let pw = spec.build_world();
    let w = pw.world();
    let items = pw.items(usize::MAX);
    let wal = Wal::create(dir, WalOptions::default()).expect("create the WAL");
    let live = LiveEngine::new(&w.population, spec.model(&pw), &w.movielens.matrix, &items)
        .expect("finite ratings")
        .with_wal(wal);
    let cohort = w.study_users();
    let groups = Groups::draw(seed, &cohort, 0);
    let mut writes =
        inputs::WriteStream::new(seed, 3, &cohort, &groups.subscribed, &items, usize::MAX);
    for _ in 0..spec.log_batches {
        let (upserts, retractions) = writes.next_write(items[0]).batch();
        live.stage_keyed(None, &upserts, &retractions)
            .and_then(|_| live.publish())
            .expect("log-building ingest");
    }
    live.epoch()
}

/// Copy the files of directory `from` into a new directory `to`.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create the log copy");
    for entry in std::fs::read_dir(from).expect("read the log directory") {
        let entry = entry.expect("log directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy a log segment");
    }
}

/// Start this executable in helper role `role` for the run `args`
/// describes, returning it with its stdout piped.
fn start_child(args: &Args, role: &str, log: Option<&Path>) -> std::process::Child {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.spec.name,
        "--trace",
        "0",
        "--child",
        role,
    ])
    .args(["--seed", &args.seed.to_string()])
    .args(["--seconds", &args.seconds.to_string()])
    .stdout(Stdio::piped());
    if let Some(log) = log {
        cmd.arg("--log-dir").arg(log);
    }
    cmd.spawn().expect("start a helper process")
}

/// Wait for a helper to exit, failing the run unless it succeeded.
fn finish_child(mut child: std::process::Child, role: &str) {
    let status = child.wait().expect("wait for a helper process");
    assert!(status.success(), "the {role} process failed: {status}");
}

/// One `setup_s` sample from a fresh process, which times itself from
/// its start until the first request is answered. The extra set-ups run
/// in their own processes so the serving process starts from a clean
/// heap, not one left fragmented by earlier set-ups.
fn timed_setup(args: &Args, log: Option<&Path>) -> f64 {
    let mut child = start_child(args, "setup", log);
    let stdout = child.stdout.take().expect("piped stdout");
    let seconds = BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
        .find_map(|l| l.strip_prefix("ready ").and_then(|s| s.parse().ok()));
    finish_child(child, "set-up");
    seconds.expect("the set-up process reports its time")
}

/// Write the restart log in a helper process; returns the epoch the
/// logging engine reached.
fn logged_epoch(args: &Args, log: &Path) -> u64 {
    let mut child = start_child(args, "log", Some(log));
    let stdout = child.stdout.take().expect("piped stdout");
    let epoch = BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
        .find_map(|l| l.strip_prefix("epoch ").and_then(|e| e.parse().ok()));
    finish_child(child, "log-writing");
    epoch.expect("the log-writing process reports its epoch")
}

/// Everything a served stack holds, for the code that drives it.
struct Stack<'a, 'p> {
    pw: &'a PerfWorld,
    live: &'a LiveEngine<'p>,
    items: &'a [ItemId],
    cohort: &'a [UserId],
    groups: &'a Groups,
    recovery: Option<RecoveryReport>,
}

/// The set-up probe's outcome: the connection that sent it, its reply,
/// and the seconds from the set-up's start until the reply came.
struct Probe {
    client: Client,
    reply: String,
    setup_s: f64,
}

/// Build the world and the engine (restarting from `log` when given),
/// bind a server, answer the probe query, and hand everything to `body`.
/// The set-up is timed from `t0`.
fn with_stack<R>(
    spec: &Spec,
    seed: u64,
    log: Option<&Path>,
    t0: Instant,
    body: impl FnOnce(&Stack<'_, '_>, &GrecaServer<'_, '_>, Probe) -> R,
) -> R {
    let pw = spec.build_world();
    let w = pw.world();
    let items: Vec<ItemId> = pw.items(usize::MAX);
    let model = spec.model(&pw);
    let (live, recovery) = match log {
        Some(log) => {
            let (live, report) = LiveEngine::recover(
                &w.population,
                model,
                &w.movielens.matrix,
                &items,
                BuildOptions::default(),
                log,
                WalOptions::default(),
            )
            .expect("recover from the WAL");
            (live, Some(report))
        }
        None => {
            let live = LiveEngine::new(&w.population, model, &w.movielens.matrix, &items)
                .expect("finite ratings");
            (live, None)
        }
    };
    let cohort: Vec<UserId> = w.study_users();
    let groups = Groups::draw(seed, &cohort, spec.pool);
    let stack = Stack {
        pw: &pw,
        live: &live,
        items: &items,
        cohort: &cohort,
        groups: &groups,
        recovery,
    };
    serve(
        spec,
        &live,
        &inputs::query_line(&groups.probe),
        t0,
        |server, probe| body(&stack, server, probe),
    )
}

/// Bind a server over `live`, answer the probe query on a fresh
/// connection, and hand the outcome to `body`.
fn serve<R>(
    spec: &Spec,
    live: &LiveEngine<'_>,
    probe_line: &str,
    t0: Instant,
    body: impl FnOnce(&GrecaServer<'_, '_>, Probe) -> R,
) -> R {
    let config = ServeConfig {
        world_label: spec.world_label().to_string(),
        fault_plan: None,
        ..ServeConfig::default()
    };
    let server = GrecaServer::bind(live, config).expect("bind the server");
    let handle = server.handle();
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        // Shuts the server down even when `body` panics, so the scope
        // can join it and the panic surfaces instead of hanging.
        let _shutdown = ShutdownOnDrop(handle.clone());
        let mut client = Client::connect(handle.addr()).expect("connect");
        let reply = client.request_raw(probe_line).expect("probe reply");
        let setup_s = t0.elapsed().as_secs_f64();
        let r = body(
            &server,
            Probe {
                client,
                reply,
                setup_s,
            },
        );
        handle.shutdown();
        r
    })
}

/// Shuts a server down when dropped.
struct ShutdownOnDrop(greca_serve::ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Result of one run, ready to print.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    provenance: Json,
    counts: Json,
    notes: Vec<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = &args.spec;
    let scratch = Scratch::new(spec.name);
    let wal_dir = scratch.0.join("log");
    let log_epoch = spec.wal.then(|| logged_epoch(args, &wal_dir));
    let log = spec.wal.then_some(wal_dir.as_path());
    // The ledger replays from the log as it stands before the restart
    // (the served engine appends to the original).
    let log_copy = (spec.wal && args.trace).then(|| {
        let copy = scratch.0.join("log-copy");
        copy_dir(&wal_dir, &copy);
        copy
    });
    // All but one set-up sample come from helper processes; the serving
    // process's own set-up is the last.
    let mut setup_s: Vec<f64> = if args.trace {
        Vec::new()
    } else {
        (1..spec.setup_reps)
            .map(|_| timed_setup(args, log))
            .collect()
    };
    let (obs, probe_ok, recovery, ledger) = with_stack(
        spec,
        args.seed,
        log,
        Instant::now(),
        |stack, server, probe| {
            setup_s.push(probe.setup_s);
            let Probe { client, reply, .. } = probe;
            let live = stack.live;
            let placeholder = live
                .pin()
                .engine()
                .query(&stack.groups.probe)
                .top(inputs::K)
                .run()
                .expect("probe runs directly");
            let probe_ok =
                json_ok(&reply).is_some_and(|body| check::payload_identical(&body, &placeholder));
            let ctx = Ctx {
                spec,
                seed: args.seed,
                seconds: args.seconds,
                live,
                addr: server.addr(),
                cohort: stack.cohort,
                items: stack.items,
                groups: stack.groups,
            };
            let obs = drive::drive(&ctx, client, placeholder);
            // The server stays up but idle while the ledger replays on
            // engines of its own.
            let ledger = args.trace.then(|| {
                ledger::build(&ledger::Inputs {
                    spec,
                    pw: stack.pw,
                    items: stack.items,
                    cohort: stack.cohort,
                    groups: stack.groups,
                    observed: &obs,
                    scratch: &scratch.0,
                    log: log_copy.as_deref(),
                })
            });
            (obs, probe_ok, stack.recovery, ledger)
        },
    );
    let mut setup_failures = Vec::new();
    if !probe_ok {
        setup_failures.push("the set-up probe's answer differs from a direct run".to_string());
    }
    if let (Some(report), Some(epoch)) = (&recovery, log_epoch) {
        if report.epoch != epoch {
            setup_failures.push(format!(
                "RecoveryReport.epoch {} differs from the logged engine's final epoch {epoch}",
                report.epoch
            ));
        }
    }
    let fsync = if spec.wal {
        format!("{:?}", WalOptions::default().fsync)
    } else {
        "none (no WAL)".to_string()
    };
    let provenance = provenance::record(
        spec.name,
        args.seed,
        spec.world_label(),
        spec.model_label(),
        &fsync,
        &scratch.0,
    );
    summarize(
        args,
        &obs,
        setup_failures,
        recovery.as_ref(),
        &setup_s,
        ledger,
        provenance,
    )
}

fn json_ok(line: &str) -> Option<Json> {
    greca_serve::json::parse(line)
        .ok()
        .filter(|v| v.get("ok").and_then(Json::as_bool) == Some(true))
}

fn summarize(
    args: &Args,
    obs: &Observed,
    setup_failures: Vec<String>,
    recovery: Option<&RecoveryReport>,
    setup_s: &[f64],
    ledger: Option<Vec<(&'static str, f64, &'static str)>>,
    provenance: Json,
) -> Result<Outcome, String> {
    let served = obs.attempted - obs.failed;
    let query_ms = stats::sorted(obs.query_ms.clone());
    let mut correct = setup_failures.is_empty();
    let mut notes = setup_failures;
    let mut fail = |why: String| {
        correct = false;
        notes.push(why);
    };
    if obs.mismatched > 0 {
        fail(format!(
            "{} of {} verified answers differ from direct runs",
            obs.mismatched, obs.verified
        ));
    }
    if obs.nondeterministic > 0 {
        fail(format!(
            "nondeterminism: {} cache dispositions or push frames differ from what the inputs fix",
            obs.nondeterministic
        ));
    }
    if obs.prefix.queries < args.spec.prefix_queries as u64 {
        fail(format!(
            "the timed window ended after {} queries, before the {}-query count prefix",
            obs.prefix.queries, args.spec.prefix_queries
        ));
    }
    if obs.ingest_ms.is_empty() || obs.push_lag_ms.is_empty() {
        fail("no ingest acknowledged or no push frame received".into());
    }
    let mut counts = vec![
        ("prefix", obs.prefix.to_json()),
        ("publishes", Json::num(obs.publishes as f64)),
    ];
    if let Some(r) = recovery {
        counts.push(("recovered_epoch", Json::num(r.epoch as f64)));
        counts.push(("replayed_batches", Json::num(r.batches_replayed as f64)));
        counts.push(("replayed_publishes", Json::num(r.publishes_replayed as f64)));
    }
    let metrics = match ledger {
        Some(rows) => rows,
        None => vec![
            ("setup_s", stats::median_of(setup_s), "s"),
            ("query_p50_ms", stats::median(&query_ms), "ms"),
            (
                "query_p95_ms",
                stats::guarded_percentile(&query_ms, 0.95)
                    .map_err(|e| format!("query_p95_ms cannot be reported: {e}"))?,
                "ms",
            ),
            ("query_qps", query_ms.len() as f64 / obs.active_s, "1/s"),
            ("ingest_p50_ms", stats::median_of(&obs.ingest_ms), "ms"),
            ("push_lag_p50_ms", stats::median_of(&obs.push_lag_ms), "ms"),
            (
                "served_frac",
                served as f64 / obs.attempted.max(1) as f64,
                "fraction",
            ),
            ("rss_mb", peak_rss_mb(), "MiB"),
        ],
    };
    notes.push(format!(
        "timed queries {} (hits {}, misses {}) over {:.2} s active; ingests {}; pushes {} (+{} unchanged); verified {}",
        query_ms.len(),
        obs.hits,
        obs.misses,
        obs.active_s,
        obs.ingest_ms.len(),
        obs.push_lag_ms.len(),
        obs.extra_pushes,
        obs.verified
    ));
    if query_ms.len() >= 2 {
        notes.push(format!(
            "query latency quartiles (ms): {:?}; p99 {}",
            stats::quartiles(&query_ms),
            stats::guarded_percentile(&query_ms, 0.99)
                .map_or_else(|e| format!("not reported: {e}"), |v| format!("{v} ms")),
        ));
    }
    let setups = stats::sorted(setup_s.to_vec());
    if setups.len() >= 2 {
        notes.push(format!(
            "set-up samples (s): {setups:?}, IQR {:.1}% of median",
            100.0 * stats::relative_iqr(&setups)
        ));
    }
    Ok(Outcome {
        correct,
        attempted: obs.attempted,
        failed: obs.failed,
        metrics,
        provenance,
        counts: Json::obj(counts),
        notes,
    })
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <hot_read|cold_read|write_mix|cf_write> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // A run that wedges must still end: fail it well inside the
    // harness's per-run limit.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_SECS));
        eprintln!("perfbench: no result after {WATCHDOG_SECS} s; giving up");
        std::process::exit(3);
    });
    match &args.child {
        Some(Child::Setup { log }) => {
            with_stack(
                &args.spec,
                args.seed,
                log.as_deref(),
                start,
                |_, _, probe| {
                    println!("ready {}", probe.setup_s);
                },
            );
            return;
        }
        Some(Child::Log { log }) => {
            println!("epoch {}", write_log(&args.spec, args.seed, log));
            return;
        }
        None => {}
    }
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("provenance {}", outcome.provenance.to_line());
    println!("counts {}", outcome.counts.to_line());
    for note in &outcome.notes {
        println!("note {note}");
    }
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let last = Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", last.to_line());
}
