//! The three workloads, their inputs, and the untimed study iteration each
//! one measures. The iteration calls the program exactly as a user would
//! (`Study::run`, `Study::crawl_to_archive` + `Study::run_streaming`), then
//! renders everything through [`render`], which the traced run shares.

use crate::trace::Tracer;
use pii_analysis::{browsers, table4, Study, StudyResults};
use pii_core::tokens::TokenSetBuilder;
use pii_store::StoreSummary;
use pii_web::UniverseSpec;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Crawl and detection workers. Fixed, never derived from the host, so a
/// run means the same work on every machine.
pub const WORKERS: usize = 2;

/// The paper's universe seed (`pii_web::universe::DEFAULT_SEED`). The
/// benchmark passes `--seed` straight through as the universe seed.
pub const DEFAULT_SEED: u64 = pii_web::universe::DEFAULT_SEED;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `pii-study full`: the study, Table 4 and the §7.1 browser recrawls.
    Full1x,
    /// A live `--stream tables` run on the 10x universe, via an archive.
    Stream10x,
    /// The paper's depth-3 token configuration, materialized, Tables 1–3.
    Depth3x1,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Full1x, Workload::Stream10x, Workload::Depth3x1];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Full1x => "full-1x",
            Workload::Stream10x => "stream-10x",
            Workload::Depth3x1 => "depth3-1x",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self, seed: u64) -> UniverseSpec {
        let spec = UniverseSpec {
            seed,
            ..UniverseSpec::default()
        };
        match self {
            Workload::Stream10x => spec.scaled(10),
            Workload::Full1x | Workload::Depth3x1 => spec,
        }
    }

    pub fn tokens(self) -> TokenSetBuilder {
        match self {
            Workload::Depth3x1 => TokenSetBuilder::paper_full(),
            Workload::Full1x | Workload::Stream10x => TokenSetBuilder::default(),
        }
    }

    /// The study configuration every iteration of this workload starts from.
    pub fn study(self, seed: u64) -> Study {
        Study {
            spec: self.spec(seed),
            tokens: self.tokens(),
            workers: WORKERS,
            ..Study::paper()
        }
    }

    /// The same configuration, replaying a capture archive.
    pub fn replay(self, archive: &Path) -> Study {
        Study {
            tokens: self.tokens(),
            workers: WORKERS,
            ..Study::from_archive(archive)
        }
    }

    /// Whether Table 4 and the §7.1 browser recrawls are part of the
    /// iteration (only `pii-study full` renders them).
    pub fn renders_countermeasures(self) -> bool {
        self == Workload::Full1x
    }
}

/// What one iteration produced.
pub struct Output {
    /// Everything the iteration rendered, comparison count included.
    pub text: String,
    pub comparisons_matched: usize,
    /// Universe sites carried through the iteration.
    pub sites: usize,
    /// The archive the iteration wrote, when it wrote one.
    pub archive: Option<StoreSummary>,
}

/// One untimed iteration: spec to rendered output.
pub fn run(workload: Workload, seed: u64, scratch: &Scratch) -> std::io::Result<Output> {
    let study = workload.study(seed);
    match workload {
        Workload::Full1x | Workload::Depth3x1 => {
            let results = study.run();
            Ok(output(workload, &results, &Tracer::off(), None))
        }
        Workload::Stream10x => {
            let archive = scratch.file("stream.store");
            let (summary, _) = study.crawl_to_archive(&archive.0)?;
            let results = workload.replay(&archive.0).run_streaming();
            Ok(output(workload, &results, &Tracer::off(), Some(summary)))
        }
    }
}

pub fn output(
    workload: Workload,
    results: &StudyResults,
    tracer: &Tracer,
    archive: Option<StoreSummary>,
) -> Output {
    let (text, comparisons_matched) = render(workload, results, tracer);
    Output {
        text,
        comparisons_matched,
        sites: results.universe.sites.len(),
        archive,
    }
}

/// Render what the workload's CLI equivalent prints, in the same order:
/// the tables, then (for `full-1x`) Table 4, the missed providers and the
/// §7.1 table, then the paper-comparison count.
pub fn render(workload: Workload, r: &StudyResults, tracer: &Tracer) -> (String, usize) {
    let (mut out, mut comparisons) =
        tracer.span("analysis.render", || (r.render_all(), r.comparisons()));
    if workload.renders_countermeasures() {
        tracer.span("blocklist.table4", || {
            out.push_str(&table4::table(r).render());
            out.push_str(&format!(
                "\nproviders missed by the combined lists: {:?}\n\n",
                table4::missed_tracking_providers(r)
            ));
            comparisons.extend(table4::comparisons(r));
        });
        let results = tracer.span("browsers.evaluate", || browsers::evaluate_all(r));
        tracer.span("analysis.render", || {
            out.push_str(&browsers::table(r, &results).render());
            comparisons.extend(browsers::comparisons(r, &results));
        });
    }
    let matched = comparisons.iter().filter(|c| c.matches).count();
    out.push_str(&format!(
        "\n{matched}/{} comparisons match the paper\n",
        comparisons.len()
    ));
    (out, matched)
}

/// A per-process directory for the archives iterations write, inside the
/// working directory. Dropping it (also while unwinding) deletes it.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".perfbench-scratch").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A fresh path in the scratch directory, deleted when the guard drops.
    pub fn file(&self, name: &str) -> TempFile {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempFile(self.0.join(format!("{n}-{name}")))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent is shared by concurrent processes; remove it only once
        // it is empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A scratch file removed on drop, including during a panic.
pub struct TempFile(pub PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
