//! Constant-memory batch replay: archive → detection without ever holding a
//! [`pii_crawler::CrawlDataset`].
//!
//! The materialized replay path decodes every segment into one dataset and
//! hands it to `detect_parallel`; peak memory is the whole capture. This
//! module replays the archive's footer index in fixed-size batches instead:
//! each batch's segments are decoded and detected in parallel (one worker
//! pool pass, per-site `catch_unwind` exactly like `detect_parallel`), then
//! folded **sequentially in canonical site order** into the running funnel,
//! degradation, and detection accumulators — and dropped. Because
//! `detect_site` is a pure function of one crawl and fragments merge in
//! canonical order, the folded report is byte-identical to the materialized
//! path for any worker count; `tests/streaming.rs` pins this across worker
//! counts and fault profiles.
//!
//! Peak residency is bounded by one batch of segments, tracked as the
//! deterministic `study.stream.peak_resident_bytes` gauge (max over batches
//! of the batch's summed segment bytes) — a pure function of the archive,
//! so it can be asserted flat across universe scales.

use crate::degradation::DegradationBuilder;
use pii_core::detect::{DetectionReport, LeakDetector};
use pii_crawler::FunnelStats;
use pii_store::reader::{ArchiveReader, ReplayReport, SkippedSegment};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sites decoded + detected per batch. Large enough to keep a worker pool
/// busy, small enough that a batch of even record-heavy sites stays far
/// below a materialized dataset.
pub const STREAM_BATCH: usize = 64;

/// What one streaming replay measured about itself.
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

/// Everything a streaming replay folds out of the archive.
pub struct StreamReplay {
    pub funnel: FunnelStats,
    pub degradation: DegradationBuilder,
    pub report: DetectionReport,
    pub replay: ReplayReport,
    pub stats: StreamStats,
}

/// Replay `reader`'s indexed segments batch by batch through `detector`.
///
/// Per batch: parallel decode + per-site detection (each site's fragment is
/// computed under `catch_unwind`, degrading to skipped records like
/// `detect_parallel`), then a sequential canonical-order fold. Damaged
/// segments become the same `Quarantined` placeholder rows and
/// [`SkippedSegment`] notes as [`ArchiveReader::read_dataset`], so the
/// degradation accounting cannot drift between the two paths.
pub fn replay(reader: &ArchiveReader, detector: &LeakDetector, workers: usize) -> StreamReplay {
    let _span = pii_telemetry::span("study.stream");
    let entries = reader.entries();
    let mut funnel = FunnelStats::default();
    let mut degradation = DegradationBuilder::default();
    let mut report = DetectionReport::default();
    let mut replay_report = ReplayReport {
        segments_total: entries.len(),
        used_footer: reader.used_footer(),
        skipped: reader.scan_damage().to_vec(),
        ..ReplayReport::default()
    };
    let mut stats = StreamStats {
        sites: entries.len(),
        batches: 0,
        peak_resident_bytes: 0,
    };
    for batch in entries.chunks(STREAM_BATCH) {
        stats.batches += 1;
        let resident: u64 = batch.iter().map(|e| u64::from(e.segment_len)).sum();
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
        for (entry, slot) in batch
            .iter()
            .zip(decode_batch(reader, detector, workers, batch))
        {
            match slot {
                Ok((crawl, fragment)) => {
                    replay_report.segments_verified += 1;
                    pii_telemetry::counter("store.segments_verified", 1);
                    funnel.observe(&crawl.outcome);
                    degradation.observe(&crawl);
                    report.merge(fragment);
                }
                Err(e) => {
                    pii_telemetry::counter("store.segments_skipped", 1);
                    replay_report.skipped.push(SkippedSegment {
                        label: Some(entry.label.clone()),
                        offset: entry.offset,
                        records: entry.records,
                        reason: e.to_string(),
                    });
                    let placeholder = ArchiveReader::quarantine_placeholder(entry, &e);
                    funnel.observe(&placeholder.outcome);
                    degradation.observe(&placeholder);
                }
            }
        }
    }
    pii_telemetry::gauge(
        "study.stream.peak_resident_bytes",
        stats.peak_resident_bytes as i64,
    );
    StreamReplay {
        funnel,
        degradation,
        report,
        replay: replay_report,
        stats,
    }
}

/// One batch slot: the decoded crawl plus its detection fragment (empty for
/// non-completed sites, skipped-records-only when the detect worker
/// panicked), or the frame error that cost the segment.
type Slot = Result<(pii_crawler::SiteCrawl, DetectionReport), pii_store::format::FrameError>;

/// Decode and detect a batch in parallel, returning slots in batch order.
fn decode_batch(
    reader: &ArchiveReader,
    detector: &LeakDetector,
    workers: usize,
    batch: &[pii_store::format::IndexEntry],
) -> Vec<Slot> {
    let fill = |entry: &pii_store::format::IndexEntry| -> Slot {
        let crawl = reader.read_entry(entry)?;
        let fragment = if crawl.outcome.completed() {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut fragment = DetectionReport::default();
                detector.detect_site(&crawl, &mut fragment);
                fragment
            }))
            .unwrap_or_else(|_| {
                // Mirror `detect_parallel`'s quarantine: the site degrades
                // into counted skipped records, the replay continues.
                pii_telemetry::counter("detect.sites_quarantined", 1);
                DetectionReport {
                    skipped_records: crawl.records.len(),
                    ..DetectionReport::default()
                }
            })
        } else {
            DetectionReport::default()
        };
        Ok((crawl, fragment))
    };
    let workers = workers.max(1).min(batch.len().max(1));
    if workers <= 1 {
        return batch.iter().map(fill).collect();
    }
    let slots: Vec<parking_lot::Mutex<Option<Slot>>> = batch
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= batch.len() {
                    break;
                }
                let (Some(slot), Some(item)) = (slots.get(index), batch.get(index)) else {
                    break;
                };
                *slot.lock() = Some(fill(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or(Err(
                // A worker lost outside the panic guard never filled its
                // slot; the segment degrades like a damaged one.
                pii_store::format::FrameError::Corrupt("replay worker lost"),
            ))
        })
        .collect()
}
