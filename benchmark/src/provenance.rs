//! Where a number came from: host cores, thread width, commit, build
//! profile, compiler. Stamped into every output so two rows are comparable.

use crate::json::Json;
use std::path::Path;

/// The provenance block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `std::thread::available_parallelism` on this host.
    pub available_parallelism: usize,
    /// Worker width the process ran at (`RAYON_THREADS`; the harness itself
    /// is one thread, one client).
    pub threads: usize,
    /// `git` commit of the checkout, or `unknown` outside a repository.
    pub commit: String,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// `rustc --version` of the compiler that built it.
    pub rustc: &'static str,
}

/// Why the benchmark refuses to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooWide {
    /// Requested width.
    pub threads: usize,
    /// Host cores.
    pub cores: usize,
}

impl std::fmt::Display for TooWide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "refusing to run {} threads wide on a {}-core host: the numbers would measure \
             oversubscription",
            self.threads, self.cores
        )
    }
}

/// The thread width this process will run at: `RAYON_THREADS` when set,
/// else 1 — checked against the host and pinned into the environment so
/// the rayon shim inside the program agrees with what is recorded.
pub fn pin_thread_width() -> Result<usize, TooWide> {
    let requested = std::env::var("RAYON_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1)
        .max(1);
    let threads = check_width(requested, host_cores())?;
    std::env::set_var("RAYON_THREADS", threads.to_string());
    Ok(threads)
}

/// A width is acceptable only up to the host's cores.
pub fn check_width(threads: usize, cores: usize) -> Result<usize, TooWide> {
    if threads > cores {
        Err(TooWide { threads, cores })
    } else {
        Ok(threads)
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Provenance {
    /// Gather the block for a process running `threads` wide.
    pub fn gather(threads: usize) -> Provenance {
        Provenance {
            available_parallelism: host_cores(),
            threads,
            commit: git_commit(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..")),
            profile: env!("EUS_BENCH_PROFILE"),
            rustc: env!("EUS_BENCH_RUSTC"),
        }
    }

    /// As JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "available_parallelism",
                Json::Int(self.available_parallelism as u64),
            ),
            ("threads", Json::Int(self.threads as u64)),
            ("commit", Json::str(self.commit.clone())),
            ("profile", Json::str(self.profile)),
            ("rustc", Json::str(self.rustc)),
        ])
    }
}

/// The checked-out commit, read from `.git` directly (no process is
/// started): `HEAD`, then the ref it names, loose or packed.
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&git.join(refname)) {
        return sha.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_than_the_host_is_refused() {
        assert_eq!(check_width(1, 2), Ok(1));
        assert_eq!(check_width(2, 2), Ok(2));
        let err = check_width(4, 2).unwrap_err();
        assert_eq!(
            err,
            TooWide {
                threads: 4,
                cores: 2
            }
        );
        assert!(err.to_string().contains("refusing"));
    }

    #[test]
    fn commit_outside_a_repository_is_unknown() {
        assert_eq!(git_commit(Path::new("/nonexistent")), "unknown");
    }
}
