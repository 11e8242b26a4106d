//! Exact percentiles over raw samples, and process / thread readings
//! from `/proc/self`.

use std::collections::BTreeMap;

/// Raw samples; percentiles are exact order statistics of what was
/// recorded (no bucketing).
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile (`q` in 0..=100); 0 when empty.
    pub fn pct(&self, q: f64) -> f64 {
        pct_of(self.0.clone(), q)
    }
}

fn pct_of(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of a handful of repeated measurements.
pub fn median(xs: Vec<f64>) -> f64 {
    pct_of(xs, 50.0)
}

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`,
/// fixed at 100 on Linux for every mainstream architecture).
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in seconds from a `/proc/.../stat` line. The comm
/// field may contain spaces, so fields are counted after its `)`.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After the comm: state(0) ... utime(11) stime(12).
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// CPU seconds one task has run: nanosecond `schedstat` when the
/// kernel keeps it, else the tick counts in `stat`.
fn task_cpu_s(task: &std::path::Path) -> Option<f64> {
    let sched = std::fs::read_to_string(task.join("schedstat")).ok();
    if let Some(ns) = sched.and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok()) {
        return Some(ns / 1e9);
    }
    stat_cpu_s(&std::fs::read_to_string(task.join("stat")).ok()?)
}

/// CPU seconds per live thread, keyed by tid, with the thread's group.
pub fn thread_cpu() -> BTreeMap<u64, (&'static str, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if let Some(cpu) = task_cpu_s(&entry.path()) {
            out.insert(tid, (thread_group(comm.trim_end()), cpu));
        }
    }
    out
}

/// User + system CPU seconds of the process's live threads. Every
/// thread of the system under test lives through the timed phase, so
/// differences of this reading are the process's CPU use.
pub fn process_cpu_s() -> f64 {
    thread_cpu().values().map(|(_, c)| c).sum()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM present");
    kib / 1024.0
}

/// The layer a thread works for, from the names the program gives its
/// threads (`comm` is cut to 15 bytes, hence the short prefixes).
fn thread_group(comm: &str) -> &'static str {
    if comm.starts_with("ensemble-shard") {
        "runtime"
    } else if comm.starts_with("ensemble-clust") {
        "cluster"
    } else if comm.starts_with("ensemble-kv-wor") || comm.starts_with("ensemble-kv-acc") {
        "kv_server"
    } else if comm
        .strip_prefix("ensemble-kv-")
        .is_some_and(|id| id.starts_with(|c: char| c.is_ascii_digit()))
    {
        "kv_apply"
    } else {
        "other"
    }
}

/// CPU seconds each thread group used between two [`thread_cpu`]
/// readings. Threads that started in between count from zero.
pub fn group_cpu_delta(
    before: &BTreeMap<u64, (&'static str, f64)>,
    after: &BTreeMap<u64, (&'static str, f64)>,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (tid, (group, cpu)) in after {
        let base = before.get(tid).map(|(_, c)| *c).unwrap_or(0.0);
        *out.entry(*group).or_insert(0.0) += cpu - base;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.pct(50.0), 50.0);
        assert_eq!(s.pct(99.0), 99.0);
        assert_eq!(s.pct(100.0), 100.0);
    }

    #[test]
    fn median_of_unsorted_values() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn stat_parsing_skips_a_comm_with_spaces() {
        let line = "12 (a b) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(stat_cpu_s(line), Some(3.0));
    }

    #[test]
    fn thread_names_map_to_layers() {
        assert_eq!(thread_group("ensemble-shard-"), "runtime");
        assert_eq!(thread_group("ensemble-cluste"), "cluster");
        assert_eq!(thread_group("ensemble-kv-wor"), "kv_server");
        assert_eq!(thread_group("ensemble-kv-acc"), "kv_server");
        assert_eq!(thread_group("ensemble-kv-2"), "kv_apply");
        assert_eq!(thread_group("perfbench"), "other");
    }
}
