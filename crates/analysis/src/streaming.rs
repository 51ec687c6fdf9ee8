//! The capture fold: every study runs its capture through here exactly
//! once, whether the capture is a live crawl held in memory or a `.store`
//! archive replayed segment by segment.
//!
//! The fold walks the capture in canonical site order, in fixed-size
//! batches. Each batch's sites are detected in parallel (archive segments
//! are also decoded in parallel), with every site isolated by
//! [`LeakDetector::detect_site_isolated`]. The batch is then folded
//! **sequentially in canonical site order** into the running funnel,
//! degradation and detection accumulators, and each crawl is handed by
//! value to the caller's sink. Because `detect_site` is a pure function of
//! one crawl and fragments merge in canonical order, the folded report is
//! byte-identical to [`LeakDetector::detect`] for any worker count and
//! either source; `tests/parallel.rs` and `tests/streaming.rs` pin this.
//!
//! Over an archive, peak residency is bounded by one batch of segments
//! when the sink drops its crawls. It is tracked as the deterministic
//! `study.stream.peak_resident_bytes` gauge (max over batches of the
//! batch's summed segment bytes) — a pure function of the archive, so it
//! can be asserted flat across universe scales.

use crate::degradation::DegradationBuilder;
use pii_core::detect::{DetectionReport, LeakDetector};
use pii_crawler::{FunnelStats, SiteCrawl};
use pii_store::reader::{ArchiveReader, ReplayReport};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sites decoded + detected per batch. Large enough to keep a worker pool
/// busy, small enough that a batch of even record-heavy sites stays far
/// below a materialized dataset.
pub const STREAM_BATCH: usize = 64;

/// What one archive replay measured about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Indexed site segments replayed (verified + skipped).
    pub sites: usize,
    /// Batches the index was split into.
    pub batches: usize,
    /// Max over batches of the summed on-disk segment bytes held at once —
    /// the replay's deterministic memory bound. Grows with site size, never
    /// with site *count*.
    pub peak_resident_bytes: u64,
}

/// Where the fold's crawls come from.
pub enum Capture<'a> {
    /// Crawls already in memory, in canonical site order (a live crawl).
    Memory(Vec<SiteCrawl>),
    /// A capture archive, read segment by segment through its index.
    Archive(&'a ArchiveReader),
}

/// Everything the fold accumulates from one capture.
pub struct CaptureFold {
    pub funnel: FunnelStats,
    pub degradation: DegradationBuilder,
    pub report: DetectionReport,
    /// Archive health and replay stats; `None` for an in-memory capture.
    pub archive: Option<(ReplayReport, StreamStats)>,
}

/// Fold `capture` through `detector` batch by batch, handing every crawl to
/// `sink` in canonical site order. Damaged archive segments reach the sink
/// as the `Quarantined` placeholders of [`ArchiveReader::settle`], so a
/// collecting sink rebuilds exactly [`ArchiveReader::read_dataset`]'s rows.
pub fn fold(
    capture: Capture<'_>,
    detector: &LeakDetector,
    workers: usize,
    sink: &mut dyn FnMut(SiteCrawl),
) -> CaptureFold {
    let mut fold = CaptureFold {
        funnel: FunnelStats::default(),
        degradation: DegradationBuilder::default(),
        report: DetectionReport::default(),
        archive: None,
    };
    let mut push = |crawl: SiteCrawl, fragment: DetectionReport| {
        fold.funnel.observe(&crawl.outcome);
        fold.degradation.observe(&crawl);
        fold.report.merge(fragment);
        sink(crawl);
    };
    match capture {
        Capture::Memory(crawls) => {
            let mut crawls = crawls.into_iter();
            loop {
                let batch: Vec<SiteCrawl> = crawls.by_ref().take(STREAM_BATCH).collect();
                if batch.is_empty() {
                    break;
                }
                let fragments = parallel_map(workers, &batch, |crawl| detect(detector, crawl));
                for (crawl, fragment) in batch.into_iter().zip(fragments) {
                    push(crawl, fragment);
                }
            }
        }
        Capture::Archive(reader) => {
            let entries = reader.entries();
            let mut replay = reader.replay_report();
            let mut stats = StreamStats {
                sites: entries.len(),
                batches: 0,
                peak_resident_bytes: 0,
            };
            for batch in entries.chunks(STREAM_BATCH) {
                stats.batches += 1;
                let resident: u64 = batch.iter().map(|e| u64::from(e.segment_len)).sum();
                stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
                let slots = parallel_map(workers, batch, |entry| {
                    let read = reader.read_entry(entry);
                    let fragment = read
                        .as_ref()
                        .map(|crawl| detect(detector, crawl))
                        .unwrap_or_default();
                    (read, fragment)
                });
                for (entry, (read, fragment)) in batch.iter().zip(slots) {
                    push(ArchiveReader::settle(entry, read, &mut replay), fragment);
                }
            }
            pii_telemetry::gauge(
                "study.stream.peak_resident_bytes",
                stats.peak_resident_bytes as i64,
            );
            fold.archive = Some((replay, stats));
        }
    }
    fold
}

/// One site's detection fragment: empty unless its flow completed.
fn detect(detector: &LeakDetector, crawl: &SiteCrawl) -> DetectionReport {
    if crawl.outcome.completed() {
        detector.detect_site_isolated(crawl)
    } else {
        DetectionReport::default()
    }
}

/// `work` over `items` on up to `workers` scoped threads, results in item
/// order. A slot no worker filled is computed on the calling thread, so
/// every item yields exactly one result.
fn parallel_map<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    work: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(work).collect();
    }
    let slots: Vec<parking_lot::Mutex<Option<R>>> = items
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let (Some(slot), Some(item)) = (slots.get(index), items.get(index)) else {
                    break;
                };
                *slot.lock() = Some(work(item));
            });
        }
    });
    slots
        .into_iter()
        .zip(items)
        .map(|(slot, item)| slot.into_inner().unwrap_or_else(|| work(item)))
        .collect()
}
