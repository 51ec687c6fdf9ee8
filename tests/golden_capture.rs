//! Golden capture digests: the SHA-256 of the serialized crawl dataset,
//! pinned per configuration cell. Any change to the crawl — page order,
//! outcome rules, reason strings, retry bookkeeping, the watchdog, the
//! panic-retry policy, cache revisits — that alters a single captured byte
//! fails here, so a refactor of the crawler can be checked without the old
//! code around to compare against.

use pii_suite::hashes::{hex_digest, HashAlgorithm};
use pii_suite::net::cache::CacheStrategy;
use pii_suite::net::fault::{DomainSchedule, FaultProfile};
use pii_suite::prelude::*;
use std::sync::OnceLock;

fn universe() -> &'static Universe {
    static U: OnceLock<Universe> = OnceLock::new();
    U.get_or_init(Universe::generate)
}

/// Crawl the default universe with two workers under `profile`'s fault plan,
/// after `tweak` adjusts the crawler, and hash the serialized dataset.
fn digest(profile: FaultProfile, kind: BrowserKind, tweak: impl FnOnce(&mut Crawler)) -> String {
    let u = universe();
    let mut crawler = Crawler::new(u);
    crawler.workers = 2;
    crawler.faults = u.fault_plan(profile);
    tweak(&mut crawler);
    let json = serde_json::to_string(&crawler.run(kind)).expect("dataset serializes");
    hex_digest(HashAlgorithm::Sha256, json.as_bytes())
}

fn firefox(profile: FaultProfile, tweak: impl FnOnce(&mut Crawler)) -> String {
    digest(profile, BrowserKind::Firefox88Vanilla, tweak)
}

#[test]
fn faultless_capture_matches_its_golden_digest() {
    assert_eq!(
        firefox(FaultProfile::None, |_| {}),
        "33e12fa1578f3995d2071808ae33537d5077b76d7a8c3582c2ade3a76d1395e0"
    );
}

#[test]
fn paper_profile_capture_matches_its_golden_digest() {
    assert_eq!(
        firefox(FaultProfile::PaperMay2021, |_| {}),
        "b2788dbbcc20c0bcea50c276ba23d0bc2461cee7f1213ec93a2d16b6b356d5a8"
    );
}

#[test]
fn hostile_capture_matches_its_golden_digest() {
    assert_eq!(
        firefox(FaultProfile::Hostile, |_| {}),
        "2997db5d4cf0ddd06ba68c07c2a4055cfb6755288fbcc4c68db9d5a11172368b"
    );
}

#[test]
fn watchdogged_hostile_capture_matches_its_golden_digest() {
    assert_eq!(
        firefox(FaultProfile::Hostile, |c| c.watchdog_ms = Some(5_000)),
        "6f5f499f8e93e49b2f6bedab515a19b53f183607d586e1bff8a562a7d56c0954"
    );
}

#[test]
fn cache_first_revisit_capture_matches_its_golden_digest() {
    assert_eq!(
        firefox(FaultProfile::None, |c| {
            c.cache = Some(CacheStrategy::CacheFirst);
            c.repeat = 2;
        }),
        "43c9dde0d3343f959e424e869720d1a517a1b6f2d19885c5f468ec1c001d0c97"
    );
}

#[test]
fn stale_while_revalidate_revisit_capture_matches_its_golden_digest() {
    assert_eq!(
        firefox(FaultProfile::PaperMay2021, |c| {
            c.cache = Some(CacheStrategy::StaleWhileRevalidate);
            c.repeat = 3;
        }),
        "0f708ccc0153abe597b17cf4debaa85a5cb44a0f83075ac1d98febf95ad589f4"
    );
}

#[test]
fn panicking_site_capture_matches_its_golden_digest_at_any_worker_count() {
    let victim = universe()
        .sender_sites()
        .nth(5)
        .map(|s| s.domain.clone())
        .expect("universe has senders");
    for workers in [1, 4] {
        let digest = firefox(FaultProfile::PaperMay2021, |c| {
            c.workers = workers;
            c.faults.set(&victim, DomainSchedule::Panic);
        });
        assert_eq!(
            digest, "7001aa4554d0e672d68e5f262b220d3b43bb1918f9fd29ec254d518c17c5534d",
            "{workers} workers"
        );
    }
}

#[test]
fn brave_capture_matches_its_golden_digest() {
    assert_eq!(
        digest(FaultProfile::None, BrowserKind::Brave129, |_| {}),
        "0eee05b1c88e4a8da029406314bf1009cf1dc31695e97c7434ed9be4a87a4874"
    );
}
