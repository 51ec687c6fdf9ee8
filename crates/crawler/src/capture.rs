//! Capture data model — the HAR-like dataset the detector consumes.

use pii_browser::engine::FetchRecord;
use pii_browser::profiles::BrowserKind;
use pii_net::cookie::Cookie;
use serde::{Deserialize, Serialize};

/// How the crawl of one site ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrawlOutcome {
    /// Full authentication flow completed.
    Completed {
        email_confirmed: bool,
        bot_detection_passed: bool,
    },
    /// DNS/connection failure (the 22 unreachable sites).
    Unreachable,
    /// No sign-up/sign-in form found (19 sites).
    NoAuthFlow,
    /// Sign-up rejected by site policy (56 sites; reason text mirrors
    /// footnote 2).
    SignupBlocked(String),
    /// The browser itself broke the flow (Brave Shields vs. the nykaa.com
    /// CAPTCHA, §7.1).
    SignupFailed(String),
    /// The site was given up on — its crawl panicked twice (the retry ran
    /// with a fresh browser), blew the watchdog deadline, or its archive
    /// segment was damaged — and is isolated with the recorded reason
    /// instead of aborting the whole run.
    Quarantined(String),
}

impl CrawlOutcome {
    pub fn completed(&self) -> bool {
        matches!(self, CrawlOutcome::Completed { .. })
    }
}

/// Self-healing bookkeeping for one site crawled under fault injection.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteResilience {
    /// Page-load attempts issued (≥ the number of pages loaded).
    pub attempts: u32,
    /// Attempts beyond the first for some page — i.e. retries.
    pub retries: u32,
    /// True when at least one page failed and a later attempt succeeded.
    pub rescued: bool,
    /// Virtual milliseconds spent backing off (SimClock, not wall time).
    pub virtual_ms: u64,
    /// Observed fetch errors as `label@path#attempt`, in emission order.
    pub errors: Vec<String>,
}

/// Everything captured while crawling one site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteCrawl {
    pub domain: String,
    pub outcome: CrawlOutcome,
    /// Every fetch in emission order, including browser-blocked ones.
    pub records: Vec<FetchRecord>,
    /// Copy of the browser cookie store at the end of the visit.
    pub stored_cookies: Vec<Cookie>,
    /// Retry/backoff accounting; only present for fault-injected crawls, so
    /// faultless datasets serialize exactly as before.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub resilience: Option<SiteResilience>,
}

impl SiteCrawl {
    /// Requests that actually reached the network.
    pub fn delivered(&self) -> impl Iterator<Item = &FetchRecord> {
        self.records.iter().filter(|r| r.delivered())
    }

    /// Requests the browser refused to emit.
    pub fn blocked(&self) -> impl Iterator<Item = &FetchRecord> {
        self.records.iter().filter(|r| !r.delivered())
    }
}

/// A full crawl over the site universe with one browser profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawlDataset {
    pub browser: BrowserKind,
    pub crawls: Vec<SiteCrawl>,
}

impl CrawlDataset {
    /// Sites whose authentication flow completed.
    pub fn completed(&self) -> impl Iterator<Item = &SiteCrawl> {
        self.crawls.iter().filter(|c| c.outcome.completed())
    }

    /// §3.2 funnel summary: (total, unreachable, no-auth, blocked, failed,
    /// completed).
    pub fn funnel(&self) -> FunnelStats {
        let mut stats = FunnelStats::default();
        for c in &self.crawls {
            stats.observe(&c.outcome);
        }
        stats
    }

    /// Total delivered requests across the dataset.
    pub fn delivered_request_count(&self) -> usize {
        self.crawls.iter().map(|c| c.delivered().count()).sum()
    }

    /// Find one site's crawl.
    pub fn site(&self, domain: &str) -> Option<&SiteCrawl> {
        self.crawls.iter().find(|c| c.domain == domain)
    }
}

/// §3.2 funnel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunnelStats {
    pub total: usize,
    pub completed: usize,
    pub unreachable: usize,
    pub no_auth_flow: usize,
    pub signup_blocked: usize,
    pub signup_failed: usize,
    pub email_confirmed: usize,
    pub bot_detection: usize,
    /// Sites isolated after repeated worker crashes (0 on a healthy crawl;
    /// skipped when zero so faultless funnels serialize as before).
    #[serde(skip_serializing_if = "usize_is_zero")]
    pub quarantined: usize,
}

impl FunnelStats {
    /// Fold one site outcome into the funnel — the incremental form of
    /// [`CrawlDataset::funnel`], used by the streaming path where no
    /// materialized `crawls` vector exists to iterate.
    pub fn observe(&mut self, outcome: &CrawlOutcome) {
        self.total += 1;
        match outcome {
            CrawlOutcome::Completed {
                email_confirmed,
                bot_detection_passed,
            } => {
                self.completed += 1;
                if *email_confirmed {
                    self.email_confirmed += 1;
                }
                if *bot_detection_passed {
                    self.bot_detection += 1;
                }
            }
            CrawlOutcome::Unreachable => self.unreachable += 1,
            CrawlOutcome::NoAuthFlow => self.no_auth_flow += 1,
            CrawlOutcome::SignupBlocked(_) => self.signup_blocked += 1,
            CrawlOutcome::SignupFailed(_) => self.signup_failed += 1,
            CrawlOutcome::Quarantined(_) => self.quarantined += 1,
        }
    }

    /// Combine two partial funnels counter by counter. Observing outcomes
    /// in any split across two accumulators and merging equals observing
    /// them all in one — which is what lets a resumed crawl fold the
    /// outcomes kept from the partial archive together with the funnel of
    /// the recrawled remainder.
    pub fn merge(&mut self, other: &FunnelStats) {
        self.total += other.total;
        self.completed += other.completed;
        self.unreachable += other.unreachable;
        self.no_auth_flow += other.no_auth_flow;
        self.signup_blocked += other.signup_blocked;
        self.signup_failed += other.signup_failed;
        self.email_confirmed += other.email_confirmed;
        self.bot_detection += other.bot_detection;
        self.quarantined += other.quarantined;
    }
}

fn usize_is_zero(n: &usize) -> bool {
    *n == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_split_funnels_equal_the_unsplit_fold() {
        let outcomes = vec![
            CrawlOutcome::Completed {
                email_confirmed: true,
                bot_detection_passed: false,
            },
            CrawlOutcome::Unreachable,
            CrawlOutcome::Completed {
                email_confirmed: false,
                bot_detection_passed: true,
            },
            CrawlOutcome::NoAuthFlow,
            CrawlOutcome::SignupBlocked("phone".into()),
            CrawlOutcome::SignupFailed("captcha".into()),
            CrawlOutcome::Quarantined("panic".into()),
        ];
        let mut whole = FunnelStats::default();
        for o in &outcomes {
            whole.observe(o);
        }
        for split in 0..=outcomes.len() {
            let (left, right) = outcomes.split_at(split);
            let mut a = FunnelStats::default();
            let mut b = FunnelStats::default();
            left.iter().for_each(|o| a.observe(o));
            right.iter().for_each(|o| b.observe(o));
            a.merge(&b);
            assert_eq!(a, whole, "split at {split}");
        }
    }
}
