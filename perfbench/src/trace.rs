//! The traced run: the calls `Study` makes, in the same order, each timed
//! from here at the boundary of the layer it enters. No program code is
//! instrumented; telemetry stays off.
//!
//! Timing model. A main-thread call into one layer ([`Tracer::span`]) adds
//! its wall time to the layer and to the covered share of the iteration.
//! A parallel section ([`Tracer::phase`]) only counts as covered; the layer
//! calls inside it ([`Tracer::call`]) add thread time, summed over the
//! worker threads. `trace.unattributed_pct` is the iteration's wall time
//! that no span or phase covers.

use crate::workload::{self, Output, Scratch, TempFile, Workload};
use pii_analysis::streaming::{StreamStats, STREAM_BATCH};
use pii_analysis::{browsers, degradation, table4, StudyResults};
use pii_core::detect::{DetectionReport, LeakDetector};
use pii_core::tracking::analyze;
use pii_crawler::{CrawlDataset, CrawlOutcome, CrawlSummary, Crawler, FunnelStats, SiteCrawl};
use pii_dns::PublicSuffixList;
use pii_encodings::deflate;
use pii_store::{ArchiveMeta, ArchiveReader, ArchiveWriter};
use pii_web::Universe;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-layer time and counts for one traced pass.
#[derive(Default)]
struct Record {
    busy: BTreeMap<&'static str, Duration>,
    samples: BTreeMap<&'static str, Vec<Duration>>,
    counts: BTreeMap<&'static str, f64>,
    covered: Duration,
}

/// Times layer calls when on; a plain pass-through when off, so the
/// untimed iteration and the traced one share their rendering code.
pub struct Tracer {
    on: bool,
    record: Mutex<Record>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            record: Mutex::default(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            on: true,
            record: Mutex::default(),
        }
    }

    fn with<T>(&self, f: impl FnOnce(&mut Record) -> T) -> T {
        f(&mut self.record.lock().expect("tracer lock poisoned by a panic"))
    }

    /// A main-thread call into `layer`: its wall time is the layer's busy
    /// time and is covered.
    pub fn span<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let value = f();
        let took = start.elapsed();
        self.with(|r| {
            *r.busy.entry(layer).or_default() += took;
            r.covered += took;
        });
        value
    }

    /// A main-thread section whose layer calls are timed inside it.
    pub fn phase<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let value = f();
        let took = start.elapsed();
        self.with(|r| r.covered += took);
        value
    }

    /// One call into `layer` from any thread, kept as a per-call sample.
    pub fn call<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let value = f();
        let took = start.elapsed();
        self.with(|r| {
            *r.busy.entry(layer).or_default() += took;
            r.samples.entry(layer).or_default().push(took);
        });
        value
    }

    /// Busy time measured by the caller.
    fn add(&self, layer: &'static str, took: Duration) {
        if self.on {
            self.with(|r| *r.busy.entry(layer).or_default() += took);
        }
    }

    fn count(&self, name: &'static str, n: f64) {
        if self.on {
            self.with(|r| *r.counts.entry(name).or_default() += n);
        }
    }

    /// The layer metrics this pass recorded, by name.
    fn metrics(&self) -> BTreeMap<String, f64> {
        self.with(|r| {
            let mut out = BTreeMap::new();
            for (layer, took) in &r.busy {
                out.insert(format!("{layer}_ms"), took.as_secs_f64() * 1e3);
            }
            for (layer, samples) in &r.samples {
                let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
                us.sort_by(f64::total_cmp);
                out.insert(
                    format!("{layer}_us_p50"),
                    crate::stats::nearest_rank(&us, 0.50),
                );
                out.insert(
                    format!("{layer}_us_p99"),
                    crate::stats::nearest_rank(&us, 0.99),
                );
            }
            for (name, n) in &r.counts {
                out.insert((*name).to_string(), *n);
            }
            let ratio = |out: &BTreeMap<String, f64>, num: &str, den: &str| {
                Some(out.get(num)? / out.get(den)?.max(1e-9))
            };
            if let Some(v) = ratio(&out, "crawler.records", "crawler.crawl_ms") {
                out.insert("crawler.records_per_s".into(), v * 1e3);
            }
            if let Some(v) = ratio(&out, "detect.events", "detect.records") {
                out.insert("detect.events_per_krecord".into(), v * 1e3);
            }
            out
        })
    }
}

/// Run `f` over `items` on `workers` threads; results in item order.
fn parallel_map<I: Sync, T: Send>(
    workers: usize,
    items: &[I],
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else { break };
                *slots[index].lock().expect("slot lock poisoned") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("every item is mapped before the scope ends")
        })
        .collect()
}

/// `Crawler::run_streaming` (`crawler.run`, inclusive), with each worker's
/// time between deliveries charged to `crawler.crawl` and the sink's own
/// time left out of it.
fn crawl(
    tracer: &Tracer,
    crawler: &Crawler<'_>,
    study: &pii_analysis::Study,
    sink: &(dyn Fn(usize, &SiteCrawl) + Sync),
) -> CrawlSummary {
    tracer.count("crawler.quarantined", 0.0);
    let start = Instant::now();
    let last_exit: Mutex<HashMap<std::thread::ThreadId, Instant>> = Mutex::default();
    tracer.span("crawler.run", || {
        crawler.run_streaming(study.capture_browser, &|index, site| {
            let entered = Instant::now();
            let thread = std::thread::current().id();
            let since = last_exit
                .lock()
                .expect("crawl clock lock poisoned")
                .get(&thread)
                .copied()
                .unwrap_or(start);
            tracer.add("crawler.crawl", entered - since);
            tracer.count("crawler.sites", 1.0);
            tracer.count("crawler.records", site.records.len() as f64);
            if matches!(site.outcome, CrawlOutcome::Quarantined(_)) {
                tracer.count("crawler.quarantined", 1.0);
            }
            sink(index, site);
            last_exit
                .lock()
                .expect("crawl clock lock poisoned")
                .insert(thread, Instant::now());
        })
    })
}

/// A configured crawler, as `Study` configures it.
fn crawler<'u>(universe: &'u Universe, study: &pii_analysis::Study) -> Crawler<'u> {
    let mut crawler = Crawler::new(universe);
    crawler.workers = study.workers;
    crawler.faults = universe.fault_plan(study.faults);
    crawler.retry = study.retry;
    crawler.watchdog_ms = study.watchdog_ms;
    crawler.cache = study.cache;
    crawler.repeat = study.repeat;
    crawler
}

/// Detect one site into its own fragment, as `detect_parallel` does.
fn detect_site(tracer: &Tracer, detector: &LeakDetector<'_>, site: &SiteCrawl) -> DetectionReport {
    tracer.count("detect.records", site.records.len() as f64);
    tracer.call("detect.site", || {
        let mut fragment = DetectionReport::default();
        detector.detect_site(site, &mut fragment);
        fragment
    })
}

/// `Study::run`, traced.
fn materialized(workload: Workload, seed: u64, tracer: &Tracer) -> Result<StudyResults, String> {
    let study = workload.study(seed);
    let universe = tracer.span("web.generate", || {
        Universe::generate_with(study.spec.clone())
    });
    let crawler = crawler(&universe, &study);
    let slots: Vec<Mutex<Option<SiteCrawl>>> =
        universe.sites.iter().map(|_| Mutex::new(None)).collect();
    let summary = crawl(tracer, &crawler, &study, &|index, site| {
        if let Some(slot) = slots.get(index) {
            *slot.lock().expect("crawl slot lock poisoned") = Some(site.clone());
        }
    });
    let crawls = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("crawl slot lock poisoned"))
        .collect::<Option<Vec<_>>>()
        .ok_or("the crawl did not deliver every site")?;
    let dataset = CrawlDataset {
        browser: summary.browser,
        crawls,
    };
    let psl = PublicSuffixList::embedded();
    let tokens = tracer.span("tokens.build", || study.tokens.build(&universe.persona));
    tracer.count("tokens.count", tokens.len() as f64);
    let report = tracer.phase(|| {
        let detector = LeakDetector::new(&tokens, &psl, &universe.zones);
        let completed: Vec<&SiteCrawl> = dataset.completed().collect();
        let mut report = DetectionReport::default();
        for fragment in parallel_map(study.workers, &completed, |site| {
            detect_site(tracer, &detector, site)
        }) {
            report.merge(fragment);
        }
        report
    });
    tracer.count("detect.events", report.events.len() as f64);
    let (tracking, degradation, funnel) = tracer.span("analysis.tracking", || {
        (
            analyze(&report),
            degradation::compute(&dataset, study.faults),
            dataset.funnel(),
        )
    });
    Ok(StudyResults {
        universe,
        psl,
        dataset,
        funnel,
        tokens,
        report,
        tracking,
        degradation,
        stream: None,
    })
}

/// `Study::crawl_to_archive` then `Study::run_streaming` on the archive,
/// traced.
fn streaming(
    workload: Workload,
    seed: u64,
    tracer: &Tracer,
    archive: &std::path::Path,
) -> Result<StudyResults, String> {
    let study = workload.study(seed);
    // crawl_to_archive
    let universe = tracer.span("web.generate", || {
        Universe::generate_with(study.spec.clone())
    });
    let meta = ArchiveMeta {
        spec: universe.spec.clone(),
        browser: study.capture_browser,
        faults: study.faults,
    };
    let crawler = crawler(&universe, &study);
    let writer = tracer
        .span("store.create", || ArchiveWriter::create(archive, &meta))
        .map_err(|e| format!("create {}: {e}", archive.display()))?;
    let writer = Mutex::new(writer);
    let write_error: Mutex<Option<std::io::Error>> = Mutex::default();
    crawl(tracer, &crawler, &study, &|index, site| {
        append(tracer, &writer, &write_error, index, site)
    });
    if let Some(e) = write_error.into_inner().expect("write error lock poisoned") {
        return Err(format!("append: {e}"));
    }
    let writer = writer.into_inner().expect("writer lock poisoned");
    let summary = tracer
        .span("store.finish", || writer.finish())
        .map_err(|e| format!("finish: {e}"))?;
    tracer.count("store.compression_ratio", summary.compression_ratio());
    drop(crawler);
    drop(universe);

    // run_streaming on the archive
    let reader = tracer
        .span("store.open", || ArchiveReader::open(archive))
        .map_err(|e| format!("open {}: {e}", archive.display()))?;
    if !reader.scan_damage().is_empty() {
        return Err("the archive reads back damaged".into());
    }
    let meta = reader.meta().clone();
    let universe = tracer.span("web.generate", || {
        Universe::generate_with(meta.spec.clone())
    });
    let psl = PublicSuffixList::embedded();
    let tokens = tracer.span("tokens.build", || study.tokens.build(&universe.persona));
    tracer.count("tokens.count", tokens.len() as f64);
    let detector = LeakDetector::new(&tokens, &psl, &universe.zones);
    let entries = reader.entries();
    let mut funnel = FunnelStats::default();
    let mut accounting = degradation::DegradationBuilder::default();
    let mut report = DetectionReport::default();
    let mut stats = StreamStats {
        sites: entries.len(),
        batches: 0,
        peak_resident_bytes: 0,
    };
    for batch in entries.chunks(STREAM_BATCH) {
        stats.batches += 1;
        let resident: u64 = batch.iter().map(|e| u64::from(e.segment_len)).sum();
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
        let slots = tracer.phase(|| {
            parallel_map(study.workers, batch, |entry| {
                let site = tracer.call("store.read", || reader.read_entry(entry))?;
                let fragment = if site.outcome.completed() {
                    detect_site(tracer, &detector, &site)
                } else {
                    DetectionReport::default()
                };
                Ok::<_, pii_store::format::FrameError>((site, fragment))
            })
        });
        for slot in slots {
            let (site, fragment) = slot.map_err(|e| format!("read_entry: {e}"))?;
            funnel.observe(&site.outcome);
            accounting.observe(&site);
            report.merge(fragment);
        }
    }
    tracer.count("detect.events", report.events.len() as f64);
    let (tracking, degradation) = tracer.span("analysis.tracking", || {
        (analyze(&report), accounting.finish(meta.faults, funnel))
    });
    Ok(StudyResults {
        dataset: CrawlDataset {
            browser: meta.browser,
            crawls: Vec::new(),
        },
        universe,
        psl,
        funnel,
        tokens,
        report,
        tracking,
        degradation,
        stream: Some(stats),
    })
}

/// The crawl sink of `Study::crawl_to_archive`: lock the writer (the wait
/// is `store.append_wait`), append the site.
fn append<W: std::io::Write>(
    tracer: &Tracer,
    writer: &Mutex<ArchiveWriter<W>>,
    write_error: &Mutex<Option<std::io::Error>>,
    index: usize,
    site: &SiteCrawl,
) {
    let waiting = Instant::now();
    let mut w = writer.lock().expect("writer lock poisoned");
    tracer.add("store.append_wait", waiting.elapsed());
    if let Err(e) = tracer.call("store.append", || w.append_site(index, site)) {
        write_error
            .lock()
            .expect("write error lock poisoned")
            .get_or_insert(e);
    }
}

/// One traced iteration: its output and its layer metrics, with the wall
/// time and the share no layer covers.
pub struct Traced {
    pub output: Output,
    pub wall: Duration,
    pub metrics: BTreeMap<String, f64>,
    /// The traced iteration's archive (stream-10x only), kept for the
    /// replay check and the probe pass.
    pub archive: Option<TempFile>,
    pub results: StudyResults,
}

pub fn iteration(workload: Workload, seed: u64, scratch: &Scratch) -> Result<Traced, String> {
    let tracer = Tracer::on();
    let start = Instant::now();
    let (results, archive) = match workload {
        Workload::Full1x | Workload::Depth3x1 => (materialized(workload, seed, &tracer)?, None),
        Workload::Stream10x => {
            let archive = scratch.file("traced.store");
            (
                streaming(workload, seed, &tracer, &archive.0)?,
                Some(archive),
            )
        }
    };
    let output = workload::output(workload, &results, &tracer, None);
    let wall = start.elapsed();
    let mut metrics = tracer.metrics();
    let covered = tracer.with(|r| r.covered);
    metrics.insert(
        "trace.unattributed_pct".into(),
        100.0 * (wall.saturating_sub(covered)).as_secs_f64() / wall.as_secs_f64(),
    );
    metrics.insert("trace.iteration_ms".into(), wall.as_secs_f64() * 1e3);
    metrics.insert(
        "analysis.comparisons_matched".into(),
        output.comparisons_matched as f64,
    );
    Ok(Traced {
        output,
        wall,
        metrics,
        archive,
        results,
    })
}

/// The pass after the traced iterations, over the same sites and outside
/// the coverage sum:
///
/// - the store codec breakdown (encode, deflate, inflate, decode) on every
///   workload;
/// - for a workload whose iteration writes no archive, the capture written
///   to one and read back (the `store.*` write and read metrics);
/// - the archive replayed through `Study`, whose output must equal the
///   untimed iteration's (the returned flag);
/// - Table 4 and the §7.1 recrawls over the replayed capture, for a
///   workload whose iteration does not render them.
pub fn probe(
    workload: Workload,
    traced: Traced,
    expected: &str,
    scratch: &Scratch,
) -> Result<(BTreeMap<String, f64>, bool), String> {
    let tracer = Tracer::on();
    let Traced {
        results, archive, ..
    } = traced;
    let archive = match archive {
        Some(archive) => archive,
        None => {
            let archive = scratch.file("probe.store");
            write_archive(&tracer, &results, &archive.0)?;
            archive
        }
    };
    drop(results);
    let reader = ArchiveReader::open(&archive.0).map_err(|e| e.to_string())?;
    for entry in reader.entries() {
        let site = reader
            .read_entry(entry)
            .map_err(|e| format!("read_entry: {e}"))?;
        codec(&tracer, &site)?;
    }
    drop(reader);

    let replayed = workload.replay(&archive.0).run();
    let (text, _) = workload::render(workload, &replayed, &Tracer::off());
    let replays_same = text == expected;
    if !workload.renders_countermeasures() {
        tracer.span("blocklist.table4", || {
            let _ = table4::table(&replayed).render();
            let _ = table4::missed_tracking_providers(&replayed);
            let _ = table4::comparisons(&replayed);
        });
        tracer.span("browsers.evaluate", || browsers::evaluate_all(&replayed));
    }
    Ok((tracer.metrics(), replays_same))
}

/// `Study::crawl_to_archive`'s write path over an already captured
/// dataset: one locked `append_site` per site, then `finish`, then
/// `ArchiveReader::open` and `read_entry` over every entry.
fn write_archive(
    tracer: &Tracer,
    results: &StudyResults,
    path: &std::path::Path,
) -> Result<(), String> {
    let meta = ArchiveMeta {
        spec: results.universe.spec.clone(),
        browser: results.dataset.browser,
        faults: results.degradation.profile,
    };
    let writer = tracer
        .span("store.create", || ArchiveWriter::create(path, &meta))
        .map_err(|e| e.to_string())?;
    let writer = Mutex::new(writer);
    let write_error: Mutex<Option<std::io::Error>> = Mutex::default();
    for (index, site) in results.dataset.crawls.iter().enumerate() {
        append(tracer, &writer, &write_error, index, site);
    }
    if let Some(e) = write_error.into_inner().expect("write error lock poisoned") {
        return Err(format!("append: {e}"));
    }
    let writer = writer.into_inner().expect("writer lock poisoned");
    let summary = tracer
        .span("store.finish", || writer.finish())
        .map_err(|e| e.to_string())?;
    tracer.count("store.compression_ratio", summary.compression_ratio());
    let reader = tracer
        .span("store.open", || ArchiveReader::open(path))
        .map_err(|e| e.to_string())?;
    for entry in reader.entries() {
        tracer
            .call("store.read", || reader.read_entry(entry))
            .map_err(|e| format!("read_entry: {e}"))?;
    }
    Ok(())
}

/// The site codec, one stage at a time; the round trip must be exact.
fn codec(tracer: &Tracer, site: &SiteCrawl) -> Result<(), String> {
    let mut raw = Vec::new();
    tracer.call("store.codec.encode", || {
        pii_store::fast::encode_site_crawl(site, &mut raw)
    });
    let packed = tracer.call("store.codec.deflate", || deflate::compress(&raw));
    let unpacked = tracer
        .call("store.codec.inflate", || deflate::decompress(&packed))
        .map_err(|e| format!("inflate: {e:?}"))?;
    let decoded = tracer
        .call("store.codec.decode", || {
            pii_store::fast::decode_site_crawl(&unpacked)
        })
        .map_err(|e| format!("decode: {e:?}"))?;
    let mut again = Vec::new();
    pii_store::fast::encode_site_crawl(&decoded, &mut again);
    if unpacked != raw || again != raw {
        return Err(format!("the codec does not round-trip {}", site.domain));
    }
    Ok(())
}
