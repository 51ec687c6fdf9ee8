//! Order statistics and the process counters the benchmark reads from
//! `/proc`.

/// Nearest-rank quantile of an ascending slice; 0 for an empty one.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, averaging the two middle values of an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// User plus system CPU time of this process, all threads, in clock ticks
/// (fields 14 and 15 of `/proc/self/stat`).
pub fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the fields after it start past ')'.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field n is at index n - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Time the hypervisor gave this machine's virtual CPUs to other guests
/// while they were ready to run, summed over CPUs, in clock ticks (the
/// `steal` field of the first line of `/proc/stat`). It is 0 on bare metal.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Wall time less the share of it the hypervisor stole: `wall` scaled by
/// the CPU time the process got (`cpu`) over that plus the time stolen
/// from the machine's CPUs (`steal`) in the same interval. Steal accrues
/// on a virtual CPU that has work to run, so while the process's threads
/// are the machine's only work, `cpu / (cpu + steal)` estimates the share
/// of their running time the host really ran them. A process's CPU time
/// excludes steal on a paravirtualized guest. With no steal it is `wall`.
pub fn unstolen(wall: f64, cpu: f64, steal: f64) -> f64 {
    if cpu + steal > 0.0 {
        wall * cpu / (cpu + steal)
    } else {
        wall
    }
}

/// Clock ticks per second for `/proc/self/stat` and `/proc/stat`.
/// `USER_HZ` is 100 on every Linux architecture the benchmark builds for.
pub const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
