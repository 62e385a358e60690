//! Where a result came from: host cores, source revision, compiler,
//! seed, world, model, WAL fsync policy and the filesystem the WAL
//! directory sits on. Printed with every result so numbers from
//! different hosts or commits are never compared blind.

use greca_serve::Json;
use std::path::Path;
use std::process::Command;

/// Run `program args…` in the current directory and return its first
/// output line, or `"unknown"` when it is missing or fails.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The source revision: `git rev-parse HEAD` when the working directory
/// is a git checkout, `"unknown"` in an exported tree.
pub fn git_rev() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

/// The compiler this binary was built with (captured by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest matching mount point wins).
pub fn fs_type(path: &Path) -> String {
    let Ok(canonical) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent major:minor root mount-point options … - fstype source …
        let mut halves = line.splitn(2, " - ");
        let (Some(head), Some(tail)) = (halves.next(), halves.next()) else {
            continue;
        };
        let Some(mount) = head.split(' ').nth(4) else {
            continue;
        };
        let Some(fstype) = tail.split(' ').next() else {
            continue;
        };
        if canonical.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Host logical cores as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything above as one JSON object.
pub fn record(
    workload: &str,
    seed: u64,
    world: &str,
    model: &str,
    fsync: &str,
    wal_dir: &Path,
) -> Json {
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::str(seed.to_string())),
        ("nproc", Json::num(nproc() as f64)),
        ("git_rev", Json::str(git_rev())),
        ("rustc", Json::str(rustc_version())),
        ("world", Json::str(world)),
        ("model", Json::str(model)),
        ("fsync", Json::str(fsync)),
        ("wal_fs", Json::str(fs_type(wal_dir))),
    ])
}
