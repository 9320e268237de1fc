//! Host context of a run, so a noisy-neighbour outlier can be explained
//! rather than committed: core count, load before and after, build
//! profile, commit, and the process's memory high-water mark.

use std::fs;
use std::path::Path;

/// First three fields of `/proc/loadavg`, or `unknown`.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".into())
}

/// Cores this process may run on (1 when pinned).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cores the host has online, from `/sys/devices/system/cpu/online`
/// (a list such as `0-1` or `0,2-3`); 0 when unavailable.
pub fn cpus_online() -> usize {
    fs::read_to_string("/sys/devices/system/cpu/online")
        .map_or(0, |list| count_cpu_list(list.trim()))
}

fn count_cpu_list(list: &str) -> usize {
    list.split(',')
        .filter_map(|part| match part.split_once('-') {
            Some((lo, hi)) => Some(hi.parse::<usize>().ok()? + 1 - lo.parse::<usize>().ok()?),
            None => part.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// `release` or `debug`, as compiled.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, read from `.git` under `root` without
/// spawning git; `none` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::count_cpu_list;

    #[test]
    fn cpu_lists_count_every_core() {
        assert_eq!(count_cpu_list("0-1"), 2);
        assert_eq!(count_cpu_list("0,2-3"), 3);
        assert_eq!(count_cpu_list("5"), 1);
        assert_eq!(count_cpu_list(""), 0);
    }
}
