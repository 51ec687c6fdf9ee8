//! End-to-end and per-layer benchmark of the measurement study.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <full-1x|stream-10x|depth3-1x> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. The process started here only
//! coordinates: every measurement happens in a child process of its own
//! (this binary with `--child`), so lazy statics and peak RSS belong to
//! one workload. With `--trace 0`, [`SETUPS`] children each set up, run
//! one untimed warm-up iteration, and then run study iterations back to
//! back for their share of `--seconds`; the result line carries the
//! end-to-end metrics, their wall times less the time the hypervisor
//! stole from this machine ([`stats::unstolen`]). With `--trace 1`, one
//! child alternates untimed and traced iterations, then runs the probe
//! pass of [`trace::probe`]; the result line carries the per-layer
//! metrics. Every iteration's rendered
//! output is checked. The last line of standard output is one JSON object;
//! README.md defines every metric.

#![forbid(unsafe_code)]

mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Scratch, Workload};

/// Processes per timed run; `setup_s` is the median of their set-up times.
const SETUPS: usize = 3;

/// The end-to-end metrics, with units, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("study_s_p50", "s"),
    ("sites_per_s", "1/s"),
    ("cpu_ms_per_site", "ms"),
    ("peak_rss_mb", "MiB"),
    ("archive_bytes_per_site", "B"),
];

/// The per-layer metrics of the traced run, with units, in output order.
const PER_LAYER: [(&str, &str); 38] = [
    ("web.generate_ms", "ms"),
    ("tokens.build_ms", "ms"),
    ("tokens.count", "count"),
    ("crawler.run_ms", "ms"),
    ("crawler.crawl_ms", "ms"),
    ("crawler.sites", "count"),
    ("crawler.records", "count"),
    ("crawler.records_per_s", "1/s"),
    ("crawler.quarantined", "count"),
    ("browsers.evaluate_ms", "ms"),
    ("blocklist.table4_ms", "ms"),
    ("store.append_ms", "ms"),
    ("store.append_us_p50", "us"),
    ("store.append_us_p99", "us"),
    ("store.append_wait_ms", "ms"),
    ("store.finish_ms", "ms"),
    ("store.compression_ratio", "ratio"),
    ("store.open_ms", "ms"),
    ("store.read_ms", "ms"),
    ("store.read_us_p50", "us"),
    ("store.read_us_p99", "us"),
    ("store.codec.encode_ms", "ms"),
    ("store.codec.decode_ms", "ms"),
    ("store.codec.deflate_ms", "ms"),
    ("store.codec.inflate_ms", "ms"),
    ("detect.site_ms", "ms"),
    ("detect.site_us_p50", "us"),
    ("detect.site_us_p99", "us"),
    ("detect.records", "count"),
    ("detect.events", "count"),
    ("detect.events_per_krecord", "count"),
    ("analysis.tracking_ms", "ms"),
    ("analysis.render_ms", "ms"),
    ("analysis.comparisons_matched", "count"),
    ("trace.iteration_ms", "ms"),
    ("trace.untimed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Expected output digests and comparison counts, per workload and seed.
const REFERENCES: &str = include_str!("../references.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <full-1x|stream-10x|depth3-1x> --seed <u64> --seconds <n> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: Workload::Full1x,
        seed: workload::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut named = false;
    let mut rest = argv.as_slice();
    while let Some(flag) = rest.first() {
        if flag == "--child" {
            args.child = true;
            rest = &rest[1..];
            continue;
        }
        let value = rest.get(1)?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(value)?;
                named = true;
            }
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
        rest = &rest[2..];
    }
    named.then_some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let result = if args.child {
        child(&args)
    } else {
        coordinate(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Child: one workload process.

/// Say one protocol line to the coordinator.
macro_rules! say {
    ($($arg:tt)*) => {{
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, $($arg)*);
        let _ = out.flush();
    }};
}

fn child(args: &Args) -> Result<(), String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    if pii_telemetry::enabled() {
        return Err("telemetry must stay off in a benchmark run".into());
    }
    let (workload, seed) = (args.workload, args.seed);
    // The untimed warm-up iteration: its output is the reference every
    // later iteration is held to.
    let warm = workload::run(workload, seed, &scratch).map_err(|e| e.to_string())?;
    let digest = pii_hashes::hex_digest(pii_hashes::HashAlgorithm::Sha256, warm.text.as_bytes());
    say!("digest {digest} {}", warm.comparisons_matched);
    say!("sites {}", warm.sites);
    // The process's CPU time since it started, for the set-up's share of
    // steal, and its peak memory: that of a cold single run.
    let setup_cpu = stats::cpu_ticks().ok_or("cannot read /proc/self/stat")?;
    let setup_peak = stats::peak_rss_kib().ok_or("cannot read /proc/self/status")?;
    say!("setup {} {setup_peak}", ticks_ms(setup_cpu));
    say!("ready");
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    if args.trace {
        return traced_loop(args, &warm.text, &scratch, deadline);
    }
    loop {
        let (cpu_before, steal_before) = counters()?;
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            workload::run(workload, seed, &scratch)
        }));
        let took = start.elapsed().as_secs_f64();
        let (cpu_after, steal_after) = counters()?;
        let ok = matches!(&outcome, Ok(Ok(out)) if out.text == warm.text);
        say!(
            "iter {took} {} {} {}",
            u8::from(ok),
            ticks_ms(cpu_after - cpu_before),
            ticks_ms(steal_after - steal_before)
        );
        if Instant::now() >= deadline {
            break;
        }
    }
    if pii_telemetry::enabled() {
        return Err("telemetry was switched on during the timed run".into());
    }
    // The archive the capture makes: the iteration's own on stream-10x;
    // on the 1x workloads, the same capture crawled once more into one.
    let archive = match warm.archive {
        Some(summary) => summary,
        None => {
            let path = scratch.file("capture.store");
            let (summary, _) = workload
                .study(seed)
                .crawl_to_archive(&path.0)
                .map_err(|e| e.to_string())?;
            summary
        }
    };
    say!("archive {} {}", archive.bytes_written, archive.segments);
    Ok(())
}

/// This process's CPU time and the machine's steal time, in ticks.
fn counters() -> Result<(u64, u64), String> {
    let cpu = stats::cpu_ticks().ok_or("cannot read /proc/self/stat")?;
    let steal = stats::steal_ticks().ok_or("cannot read /proc/stat")?;
    Ok((cpu, steal))
}

fn ticks_ms(ticks: u64) -> f64 {
    ticks as f64 * 1e3 / stats::TICKS_PER_S
}

/// The traced run: untimed and traced iterations alternate until the
/// deadline, then the probe pass runs once.
fn traced_loop(
    args: &Args,
    expected: &str,
    scratch: &Scratch,
    deadline: Instant,
) -> Result<(), String> {
    let mut untimed = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut last = None;
    while last.is_none() || Instant::now() < deadline {
        let start = Instant::now();
        let out = workload::run(args.workload, args.seed, scratch).map_err(|e| e.to_string())?;
        untimed.push(start.elapsed().as_secs_f64());
        say!(
            "iter {} {}",
            untimed[untimed.len() - 1],
            u8::from(out.text == expected)
        );
        drop(out);
        let traced = trace::iteration(args.workload, args.seed, scratch)?;
        let ok = traced.output.text == expected;
        say!("iter {} {}", traced.wall.as_secs_f64(), u8::from(ok));
        traced_walls.push(traced.wall.as_secs_f64());
        for (name, value) in &traced.metrics {
            layers.entry(name.clone()).or_default().push(*value);
        }
        last = Some(traced);
    }
    let mut metrics: BTreeMap<String, f64> = layers
        .iter()
        .map(|(name, values)| (name.clone(), stats::median(values)))
        .collect();
    let untimed_s = stats::median(&untimed);
    metrics.insert("trace.untimed_ms".into(), untimed_s * 1e3);
    metrics.insert(
        "trace.overhead_pct".into(),
        100.0 * (stats::median(&traced_walls) / untimed_s - 1.0),
    );
    let traced = last.expect("the loop runs at least once");
    let (probed, replays_same) = trace::probe(args.workload, traced, expected, scratch)?;
    say!("check archive-replay {}", u8::from(replays_same));
    for (name, value) in probed {
        metrics.entry(name).or_insert(value);
    }
    for (name, value) in metrics {
        say!("layer {name} {value}");
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Coordinator.

/// Everything one child reported.
#[derive(Default)]
struct Report {
    setup_s: f64,
    /// The child's CPU time, and the machine's steal time, in milliseconds,
    /// from its spawning until it was ready.
    setup_cpu_ms: f64,
    setup_steal_ms: f64,
    /// The child's `VmHWM` when it was ready, in KiB.
    setup_peak_kib: f64,
    digest: Option<(String, usize)>,
    /// Universe sites one iteration carries.
    sites: usize,
    iterations: Vec<(f64, bool)>,
    /// Per timed iteration: the process's CPU time and the machine's steal
    /// time, in milliseconds.
    cpu_ms: Vec<f64>,
    steal_ms: Vec<f64>,
    archive: Option<(f64, f64)>,
    layers: BTreeMap<String, f64>,
    /// Named equivalence checks and whether each held.
    checks: Vec<(String, bool)>,
}

/// Run this binary as a child for `seconds` and collect its report.
fn spawn(args: &Args, seconds: f64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let steal = stats::steal_ticks().ok_or("cannot read /proc/stat")?;
    let started = (Instant::now(), steal);
    let mut child = Command::new(exe)
        .args(["--child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut report = Report::default();
    let mut parsed = Ok(());
    for line in std::io::BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if parsed.is_ok() {
            parsed = report.parse(&line, started);
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("the workload process failed ({status})"));
    }
    parsed.map(|()| report)
}

impl Report {
    fn parse(&mut self, line: &str, started: (Instant, u64)) -> Result<(), String> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("malformed line from the workload process: {line}"))
        };
        match fields.first().copied() {
            Some("ready") => {
                self.setup_s = started.0.elapsed().as_secs_f64();
                let steal = stats::steal_ticks().ok_or("cannot read /proc/stat")?;
                self.setup_steal_ms = ticks_ms(steal.saturating_sub(started.1));
            }
            Some("setup") => {
                self.setup_cpu_ms = num(1)?;
                self.setup_peak_kib = num(2)?;
            }
            Some("sites") => self.sites = num(1)? as usize,
            Some("digest") => {
                let digest = fields.get(1).ok_or("digest line without a digest")?;
                self.digest = Some((digest.to_string(), num(2)? as usize));
            }
            Some("iter") => {
                self.iterations.push((num(1)?, num(2)? == 1.0));
                if fields.len() > 3 {
                    self.cpu_ms.push(num(3)?);
                    self.steal_ms.push(num(4)?);
                }
            }
            Some("archive") => self.archive = Some((num(1)?, num(2)?)),
            Some("check") => {
                let name = fields.get(1).ok_or("check line without a name")?;
                self.checks.push((name.to_string(), num(2)? == 1.0));
            }
            Some("layer") => {
                let name = fields.get(1).ok_or("layer line without a name")?;
                self.layers.insert(name.to_string(), num(2)?);
            }
            _ => return Err(format!("unknown line from the workload process: {line}")),
        }
        Ok(())
    }
}

/// The checked-in reference for this workload and seed, if any.
fn reference(workload: Workload, seed: u64) -> Option<(String, usize)> {
    REFERENCES.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [name, s, digest, matched] if *name == workload.name() && s.parse() == Ok(seed) => {
                Some((digest.to_string(), matched.parse().ok()?))
            }
            _ => None,
        }
    })
}

fn coordinate(args: &Args) -> Result<(), String> {
    let reports = if args.trace {
        vec![spawn(args, args.seconds)?]
    } else {
        (0..SETUPS)
            .map(|_| spawn(args, args.seconds / SETUPS as f64))
            .collect::<Result<Vec<_>, _>>()?
    };
    let name = args.workload.name();
    println!(
        "workload {name}  seed {}  workers {}  trace {}",
        args.seed,
        workload::WORKERS,
        u8::from(args.trace)
    );

    // Correctness: one output across processes, equal to the reference.
    let digests: Vec<&(String, usize)> = reports.iter().filter_map(|r| r.digest.as_ref()).collect();
    let mut correct = digests.len() == reports.len() && digests.windows(2).all(|w| w[0] == w[1]);
    match (reference(args.workload, args.seed), digests.first()) {
        (Some(expected), Some(got)) => {
            let same = expected == **got;
            println!(
                "reference  {name} seed {}: {}",
                args.seed,
                if same { "match" } else { "MISMATCH" }
            );
            correct &= same;
        }
        (None, Some(got)) => println!(
            "reference  none for seed {}; held to the first iteration (digest {}, {} comparisons match)",
            args.seed, got.0, got.1
        ),
        (_, None) => correct = false,
    }
    for (check, held) in reports.iter().flat_map(|r| &r.checks) {
        println!("check  {check}: {}", if *held { "ok" } else { "FAILED" });
        correct &= held;
    }
    let iterations: Vec<(f64, bool)> = reports.iter().flat_map(|r| r.iterations.clone()).collect();
    let attempted = iterations.len();
    let failed = iterations.iter().filter(|(_, ok)| !ok).count();
    correct &= attempted > 0 && failed == 0;
    println!(
        "failed_ratio  {}  ({failed} of {attempted} iterations)",
        failed as f64 / attempted.max(1) as f64
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let layers = &reports[0].layers;
        PER_LAYER
            .iter()
            .map(|&(metric, unit)| {
                layers
                    .get(metric)
                    .map(|v| (metric, unit, *v))
                    .ok_or_else(|| format!("the traced run did not report {metric}"))
            })
            .collect::<Result<_, _>>()?
    } else {
        let times: Vec<f64> = iterations.iter().map(|(t, _)| *t).collect();
        // Wall times less the hypervisor's steal (see `stats::unstolen`).
        let unstolen: Vec<f64> = reports
            .iter()
            .flat_map(|r| {
                r.iterations
                    .iter()
                    .zip(r.cpu_ms.iter().zip(&r.steal_ms))
                    .map(|((t, _), (cpu, steal))| stats::unstolen(*t, *cpu, *steal))
            })
            .collect();
        let setups: Vec<f64> = reports.iter().map(|r| r.setup_s).collect();
        let setups_unstolen: Vec<f64> = reports
            .iter()
            .map(|r| stats::unstolen(r.setup_s, r.setup_cpu_ms, r.setup_steal_ms))
            .collect();
        let cpu_ms: f64 = reports.iter().flat_map(|r| &r.cpu_ms).sum();
        let steal_ms: f64 = reports.iter().flat_map(|r| &r.steal_ms).sum();
        let sites: usize = reports.iter().map(|r| r.sites * r.iterations.len()).sum();
        let archives: Vec<(f64, f64)> = reports.iter().filter_map(|r| r.archive).collect();
        correct &= archives.len() == reports.len() && archives.windows(2).all(|w| w[0] == w[1]);
        let (bytes, segments) = archives.first().copied().unwrap_or((0.0, 1.0));
        println!(
            "samples  {} iterations over {} processes",
            times.len(),
            reports.len()
        );
        println!(
            "steal  {:.1}% of the iterations' CPU plus steal; wall time with steal: setup_s {:.4} s, study_s_p50 {:.4} s",
            100.0 * steal_ms / (cpu_ms + steal_ms).max(f64::MIN_POSITIVE),
            stats::median(&setups),
            stats::median(&times),
        );
        let values = [
            stats::median(&setups_unstolen),
            stats::median(&unstolen),
            sites as f64 / unstolen.iter().sum::<f64>(),
            cpu_ms / sites.max(1) as f64,
            stats::median(&reports.iter().map(|r| r.setup_peak_kib).collect::<Vec<_>>()) / 1024.0,
            bytes / segments.max(1.0),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(metric, unit), value)| (metric, unit, value))
            .collect()
    };
    for (metric, unit, value) in &metrics {
        println!("{metric:<30} {value:>14.4} {unit}");
    }
    if let Some((metric, ..)) = metrics.iter().find(|(.., value)| !value.is_finite()) {
        return Err(format!("{metric} is not a finite number"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, unit, value)| {
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}
