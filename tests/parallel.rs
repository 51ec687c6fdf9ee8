//! The sharded pipeline must be indistinguishable from the sequential one:
//! per-site shards are merged in canonical site order, so every event, every
//! counter, and every downstream table is byte-identical regardless of the
//! worker count.

use pii_suite::analysis::streaming::{fold, Capture};
use pii_suite::net::cache::CacheStrategy;
use pii_suite::prelude::*;
use std::sync::OnceLock;

fn fixture() -> &'static (Universe, PublicSuffixList, CrawlDataset, TokenSet) {
    static F: OnceLock<(Universe, PublicSuffixList, CrawlDataset, TokenSet)> = OnceLock::new();
    F.get_or_init(|| {
        let universe = Universe::generate();
        let psl = PublicSuffixList::embedded();
        let dataset = Crawler::new(&universe).run(BrowserKind::Firefox88Vanilla);
        let tokens = TokenSetBuilder::default().build(&universe.persona);
        (universe, psl, dataset, tokens)
    })
}

#[test]
fn parallel_equals_sequential() {
    let (universe, psl, dataset, tokens) = fixture();
    let detector = LeakDetector::new(tokens, psl, &universe.zones);
    let sequential = detector.detect(dataset);
    for workers in [1, 2, 3, 4, 8, 64] {
        // The study's capture fold over an in-memory capture: per-site
        // detection in parallel batches, merged in canonical site order.
        let parallel = fold(
            Capture::Memory(dataset.crawls.clone()),
            &detector,
            workers,
            &mut |_| {},
        )
        .report;
        // Events identical, in order — senders, receivers, methods,
        // encoding buckets, params, everything.
        assert_eq!(
            sequential.events, parallel.events,
            "event stream diverged at {workers} workers"
        );
        assert_eq!(sequential.senders(), parallel.senders());
        assert_eq!(sequential.receivers(), parallel.receivers());
        assert_eq!(
            sequential.third_party_requests,
            parallel.third_party_requests
        );
        assert_eq!(sequential.total_requests, parallel.total_requests);
        assert_eq!(sequential.skipped_records, parallel.skipped_records);
    }
}

#[test]
fn study_with_workers_matches_sequential_study() {
    // End to end: the whole study through the sharded crawl + detection
    // produces the same report and tracking analysis as a one-worker run.
    let serial = Study::with_workers(1).run();
    let parallel = Study::with_workers(4).run();
    assert_eq!(serial.report.events, parallel.report.events);
    assert_eq!(serial.report.senders(), parallel.report.senders());
    assert_eq!(serial.report.receivers(), parallel.report.receivers());
    assert_eq!(
        serial.report.third_party_requests,
        parallel.report.third_party_requests
    );
    assert_eq!(
        serial.report.skipped_records,
        parallel.report.skipped_records
    );
    assert_eq!(
        serial.tracking.confirmed().len(),
        parallel.tracking.confirmed().len()
    );
    // The rendered paper tables are byte-identical too.
    assert_eq!(serial.render_all(), parallel.render_all());
}

#[test]
fn study_is_deterministic_across_invocations() {
    // Regression guard: two independent paper runs produce the same event
    // stream in the same order (not just equal aggregate counts).
    let a = Study::paper().run();
    let b = Study::paper().run();
    assert_eq!(a.report.events, b.report.events);
    assert_eq!(a.report.total_requests, b.report.total_requests);
    assert_eq!(a.render_all(), b.render_all());
}

#[test]
fn warm_cache_revisits_are_deterministic_across_worker_counts() {
    let (universe, ..) = fixture();
    let targets: Vec<String> = universe
        .sender_sites()
        .take(6)
        .map(|s| s.domain.clone())
        .collect();
    let crawl = |workers: usize, repeat: u32| {
        let mut crawler = Crawler::new(universe);
        crawler.workers = workers;
        crawler.cache = Some(CacheStrategy::CacheFirst);
        crawler.repeat = repeat;
        crawler.run_on(BrowserKind::Firefox88Vanilla, Some(&targets))
    };
    let json = |ds: &CrawlDataset| serde_json::to_string(ds).expect("dataset serializes");
    let serial = crawl(1, 2);
    assert_eq!(json(&serial), json(&crawl(4, 2)));
    // The second visit really happened against a warm cache: some requests
    // were answered locally (suppressed) instead of going on the wire.
    let suppressed = serial
        .crawls
        .iter()
        .flat_map(|c| &c.records)
        .filter(|r| r.from_cache.is_some_and(|d| d.suppressed()))
        .count();
    assert!(suppressed > 0, "warm revisits should serve from cache");
    // And a single-visit run has strictly less traffic.
    let count = |ds: &CrawlDataset| ds.crawls.iter().map(|c| c.records.len()).sum::<usize>();
    assert!(count(&serial) > count(&crawl(4, 1)));
}
