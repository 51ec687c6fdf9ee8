//! Integration tests for the telemetry layer's two contracts:
//!
//! 1. **Strict pass-through.** With telemetry disabled (the default), the
//!    full study renders byte-identically to an instrumented run — the
//!    layer observes the pipeline, it never participates in it.
//! 2. **Deterministic metric values.** Under a fixed seed the counters the
//!    pipeline records are a pure function of the seed: identical across
//!    repeated runs *and* across worker-pool sizes, except for the
//!    explicitly tagged scheduling artifacts (per-worker site claims, DNS
//!    cache locality), which [`pii_suite::telemetry::Snapshot::deterministic_counters`]
//!    filters out.
//!
//! The tests share one process-global collector, so they serialize on a
//! mutex and restore the disabled state before returning.

use pii_suite::analysis::Study;
use pii_suite::net::fault::FaultProfile;
use pii_suite::store::FailPoint;
use pii_suite::telemetry;
use pii_suite::web::UniverseSpec;
use serde::Value;
use std::sync::Mutex;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// A scaled-down universe: same funnel shape, ~7x fewer sites, so each test
/// run stays fast in debug builds.
fn small_spec() -> UniverseSpec {
    UniverseSpec {
        total_sites: 60,
        unreachable: 3,
        no_auth_flow: 3,
        blocked_phone: 5,
        blocked_id_docs: 2,
        blocked_geo: 1,
        email_confirmation: 10,
        bot_detection: 6,
        senders: 20,
        emails: (200, 20),
        ..UniverseSpec::default()
    }
}

fn small_study(workers: usize, faults: FaultProfile) -> Study {
    let mut study = Study::with_workers(workers);
    study.spec = small_spec();
    study.faults = faults;
    study
}

/// Look up a key in a JSON object value.
fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

#[test]
fn disabled_telemetry_leaves_study_output_byte_identical() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::disable();
    telemetry::reset();
    let plain = small_study(3, FaultProfile::PaperMay2021)
        .run()
        .render_all();

    telemetry::enable();
    let instrumented = small_study(3, FaultProfile::PaperMay2021)
        .run()
        .render_all();
    let snapshot = telemetry::snapshot();
    telemetry::disable();
    telemetry::reset();

    assert_eq!(
        plain, instrumented,
        "telemetry must be strictly pass-through: study output changed"
    );
    // ...and the instrumented run really did record (the comparison above
    // would hold vacuously if instrumentation were dead code).
    assert!(snapshot.counter("browser.pages") > 0);
    assert!(snapshot.counter("detect.requests") > 0);
    assert!(!snapshot.spans.is_empty());
    // A live run folds its capture in memory: no archive is read or written.
    assert!(
        snapshot.counters.keys().all(|k| !k.starts_with("store."))
            && !snapshot
                .gauges
                .contains_key("study.stream.peak_resident_bytes"),
        "a live run touched the archive path: {:?} / {:?}",
        snapshot.counters.keys().collect::<Vec<_>>(),
        snapshot.gauges
    );
}

#[test]
fn seeded_counters_reproduce_across_runs_and_worker_counts() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::enable();
    let mut runs = Vec::new();
    // Same seed, different pool sizes (and 3 twice: repeated-run stability).
    for workers in [3, 3, 6] {
        telemetry::reset();
        small_study(workers, FaultProfile::PaperMay2021).run();
        runs.push(telemetry::snapshot().deterministic_counters());
    }
    telemetry::disable();
    telemetry::reset();

    assert_eq!(runs[0], runs[1], "same-seed same-workers runs must agree");
    assert_eq!(
        runs[0], runs[2],
        "worker count must not change the counters"
    );
    for key in [
        "browser.pages",
        "browser.requests",
        "detect.requests",
        "detect.leaks.uri",
        "dns.queries",
        "net.fault.observed",
        "crawler.retries",
    ] {
        assert!(
            runs[0].get(key).copied().unwrap_or(0) > 0,
            "{key} never recorded: {runs:?}"
        );
    }
    // The scheduling artifacts were filtered out, not merely equal by luck.
    assert!(runs[0]
        .keys()
        .all(|k| !telemetry::is_scheduling_dependent(k)));
}

/// The crash-recovery counters (`store.resume.*`) are part of the
/// deterministic set: a single-worker kill-then-resume cycle records the
/// same truncated-byte count, kept-segment count and requeue count on
/// every repetition — and actually records them (non-zero).
#[test]
fn resume_counters_are_deterministic_and_recorded() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::disable();
    telemetry::reset();
    // Size the kill from an uninterrupted run: cutting at half the archive
    // guarantees both a torn tail to truncate and missing sites to requeue.
    let dir = std::env::temp_dir();
    let baseline = dir.join(format!(
        "pii-resume-counters-baseline-{}.store",
        std::process::id()
    ));
    small_study(1, FaultProfile::PaperMay2021)
        .crawl_to_archive(&baseline)
        .expect("baseline crawl");
    let half = std::fs::metadata(&baseline).expect("baseline size").len() / 2;

    telemetry::enable();
    let mut runs = Vec::new();
    for attempt in 0..2 {
        telemetry::reset();
        let path = dir.join(format!(
            "pii-resume-counters-{}-{attempt}.store",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        small_study(1, FaultProfile::PaperMay2021)
            .crawl_to_archive_with(&path, false, Some(FailPoint::AtByte(half)))
            .expect_err("the byte limit must abort the crawl");
        small_study(1, FaultProfile::PaperMay2021)
            .crawl_to_archive_with(&path, true, None)
            .expect("resume");
        runs.push(telemetry::snapshot().deterministic_counters());
    }
    telemetry::disable();
    telemetry::reset();

    assert_eq!(
        runs[0], runs[1],
        "resume counters must be a pure function of the seed and kill point"
    );
    for key in [
        "store.resume.truncated_bytes",
        "store.resume.segments_kept",
        "store.resume.sites_requeued",
    ] {
        assert!(
            runs[0].get(key).copied().unwrap_or(0) > 0,
            "{key} never recorded: {:?}",
            runs[0]
        );
    }
}

#[test]
fn trace_export_is_valid_chrome_trace_json() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::enable();
    telemetry::reset();
    small_study(2, FaultProfile::None).run();
    let json = telemetry::trace::chrome_trace_json(&telemetry::snapshot());
    telemetry::disable();
    telemetry::reset();

    let doc: Value = serde_json::from_str(&json).expect("trace must parse as JSON");
    assert_eq!(
        field(&doc, "displayTimeUnit").and_then(|v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }),
        Some("ms")
    );
    let events = match field(&doc, "traceEvents").expect("traceEvents present") {
        Value::Arr(events) => events,
        other => panic!("traceEvents is {}, not an array", other.kind()),
    };
    assert!(!events.is_empty());
    let mut phases = std::collections::BTreeSet::new();
    for event in events {
        let ph = match field(event, "ph").expect("every event has ph") {
            Value::Str(s) => s.as_str(),
            other => panic!("ph is {}", other.kind()),
        };
        assert!(
            matches!(ph, "M" | "X" | "C"),
            "unexpected trace phase {ph:?}"
        );
        phases.insert(ph.to_string());
        assert!(matches!(field(event, "name"), Some(Value::Str(_))));
        assert!(field(event, "ts").and_then(as_u64).is_some());
        assert!(field(event, "pid").and_then(as_u64).is_some());
        if ph == "X" {
            assert!(field(event, "dur").and_then(as_u64).is_some());
            assert!(field(event, "tid").and_then(as_u64).is_some());
            assert!(matches!(field(event, "args"), Some(Value::Obj(_))));
        }
    }
    // Spans, counters and process metadata all made it into the file.
    assert_eq!(
        phases.into_iter().collect::<Vec<_>>(),
        vec!["C".to_string(), "M".to_string(), "X".to_string()]
    );
}
