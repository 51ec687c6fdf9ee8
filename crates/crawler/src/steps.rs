//! The §3.2 authentication flow as one straight-line walk.
//!
//! Every site walks the same page sequence: homepage → sign-up → submit →
//! optional confirmation → post-signup browsing, and — when repeat visits
//! are configured — warm-cache revisits. [`walk`] spells that sequence out
//! once; page order, outcome mapping, and failure-reason strings live here
//! and only here.
//!
//! The walk runs in two modes. *Config* mode (no fault plan) trusts
//! `site.outcome` like the original happy path, and its page loads cannot
//! fail; *measured* mode derives outcomes from the failures the transport
//! actually exhibited, as reported by the caller's `load`; [`PageRun`]
//! holds that mode's retry loop.

use crate::capture::{CrawlOutcome, SiteCrawl, SiteResilience};
use crate::retry::{RetryPolicy, SimClock};
use pii_browser::engine::{Browser, FetchRecord, PageContext};
use pii_net::fault::{FaultPlan, FetchError};
use pii_net::Url;
use pii_web::site::{BlockReason, Site, SiteOutcome};

/// Pages walked on every visit after the first (the account exists; the
/// caches are warm). PII is known throughout.
const REVISIT_PAGES: [&str; 3] = ["/", "/account", "/products/1"];

/// Pages walked after sign-up completes on the first visit.
const POST_SIGNUP_PAGES: [&str; 3] = ["/signin", "/account", "/products/1"];

/// One page's terminal failure: the error of the last attempt and how many
/// attempts were spent.
pub(crate) struct PageFailure {
    error: FetchError,
    attempts: u32,
}

/// Walk the §3.2 flow against `site` for `repeat` visits (1 = the paper's
/// one-shot crawl). `load` performs one page load and returns its terminal
/// failure, if any; in config mode (`measured == false`) it never fails.
pub(crate) fn walk<'b>(
    browser: &mut Browser<'b>,
    site: &Site,
    base: &Url,
    measured: bool,
    repeat: u32,
    mut load: impl FnMut(&mut Browser<'b>, &PageContext) -> Option<PageFailure>,
) -> CrawlOutcome {
    let page =
        |path: &str| -> Url { crate::flow::site_url(site, path).unwrap_or_else(|| base.clone()) };
    // Persistent failure during sign-up (bot walls answer 5xx on /signup
    // forever) reads as "sign-up blocked", with the observed fault as the
    // reason.
    let blocked = |failure: PageFailure, path: &str| {
        CrawlOutcome::SignupBlocked(format!(
            "{} on {path} after {} attempts",
            failure.error, failure.attempts
        ))
    };

    if !measured && site.outcome == SiteOutcome::Unreachable {
        return CrawlOutcome::Unreachable;
    }
    // A front door that never answers is, on the wire, what "unreachable"
    // means.
    if load(browser, &PageContext::get(page("/"), "/", false)).is_some() {
        return CrawlOutcome::Unreachable;
    }
    // Content-driven: the homepage rendered and offers no sign-up form.
    if site.outcome == SiteOutcome::NoAuthFlow {
        return CrawlOutcome::NoAuthFlow;
    }
    if let Some(failure) = load(
        browser,
        &PageContext::get(page("/signup"), "/signup", false),
    ) {
        return blocked(failure, "/signup");
    }
    if !measured {
        if let SiteOutcome::SignupBlocked(reason) = &site.outcome {
            return CrawlOutcome::SignupBlocked(
                match reason {
                    BlockReason::PhoneVerification => "phone verification required",
                    BlockReason::IdentityDocuments => "identity documents required",
                    BlockReason::GeoBlocked => "account creation blocked for global customers",
                }
                .to_string(),
            );
        }
    }
    if !browser.signup_can_complete(site) {
        // Brave Shields vs. nykaa.com's CAPTCHA.
        return CrawlOutcome::SignupFailed("shields broke CAPTCHA verification".to_string());
    }
    // Submit the filled form.
    let submit = PageContext {
        document_url: browser.form_submit_url(site),
        path: "/welcome".into(),
        pii_known: true,
        form_post: browser.form_post_body(site),
    };
    if let Some(failure) = load(browser, &submit) {
        return blocked(failure, "/welcome");
    }
    // The site's flow shape (confirmation email, bot detection) is content,
    // not transport; it comes from the site itself.
    let (email_confirmed, bot_detection_passed) = match &site.outcome {
        SiteOutcome::Ok {
            email_confirmation,
            bot_detection,
        } => (*email_confirmation, *bot_detection),
        _ => (false, false),
    };
    if email_confirmed {
        // "We open another browser and got the email confirmation link."
        let confirm = page("/confirm").with_query_param("token", "c0nf1rm");
        if let Some(failure) = load(browser, &PageContext::get(confirm, "/confirm", true)) {
            return blocked(failure, "/confirm");
        }
    }
    // Post-signup browsing, then the revisits with the cache clock advanced
    // between visits. The account exists now, so a lost page only costs its
    // traffic — failures no longer disqualify.
    for path in POST_SIGNUP_PAGES {
        load(browser, &PageContext::get(page(path), path, true));
    }
    for _ in 1..repeat {
        browser.advance_visit();
        for path in REVISIT_PAGES {
            load(browser, &PageContext::get(page(path), path, true));
        }
    }
    CrawlOutcome::Completed {
        email_confirmed,
        bot_detection_passed,
    }
}

/// Retry-loop state for one site's measured crawl. The bookkeeping order
/// inside [`PageRun::load`] is part of the capture's byte-identity contract.
pub(crate) struct PageRun<'p> {
    plan: &'p FaultPlan,
    retry: &'p RetryPolicy,
    clock: SimClock,
    resilience: SiteResilience,
    records: Vec<FetchRecord>,
}

impl<'p> PageRun<'p> {
    pub(crate) fn new(plan: &'p FaultPlan, retry: &'p RetryPolicy) -> PageRun<'p> {
        PageRun {
            plan,
            retry,
            clock: SimClock::default(),
            resilience: SiteResilience::default(),
            records: Vec::new(),
        }
    }

    /// Load one page to completion, retrying per the policy. Failed
    /// attempts stay in the capture as aborted records; backoff advances
    /// the virtual clock only.
    pub(crate) fn load(
        &mut self,
        browser: &mut Browser<'_>,
        site: &Site,
        ctx: &PageContext,
    ) -> Result<(), PageFailure> {
        let mut attempt = 1u32;
        loop {
            browser.set_fault_attempt(attempt);
            self.resilience.attempts += 1;
            let failure = match browser.load_page_checked(site, ctx) {
                Ok(mut records) => {
                    if attempt > 1 {
                        self.resilience.rescued = true;
                        pii_telemetry::counter("crawler.rescued_pages", 1);
                    }
                    self.records.append(&mut records);
                    return Ok(());
                }
                Err(failure) => failure,
            };
            self.resilience.errors.push(format!(
                "{}@{}#{attempt}",
                failure.error.label(),
                ctx.path
            ));
            self.records.push(*failure.record);
            let delay = self.retry.backoff_ms(self.plan, &site.domain, attempt);
            let out_of_attempts = attempt >= self.retry.max_attempts;
            let out_of_budget = !self.retry.budget_allows(self.clock.now_ms(), delay);
            if out_of_attempts || out_of_budget {
                return Err(PageFailure {
                    error: failure.error,
                    attempts: attempt,
                });
            }
            self.clock.advance(delay);
            self.resilience.retries += 1;
            pii_telemetry::counter("crawler.retries", 1);
            pii_telemetry::observe("crawler.backoff_ms", delay);
            attempt = attempt.saturating_add(1);
        }
    }

    /// Seal the crawl with its measured outcome.
    pub(crate) fn finish(
        mut self,
        browser: &mut Browser<'_>,
        site: &Site,
        outcome: CrawlOutcome,
    ) -> SiteCrawl {
        browser.set_fault_attempt(1);
        self.resilience.virtual_ms = self.clock.now_ms();
        SiteCrawl {
            domain: site.domain.clone(),
            outcome,
            records: self.records,
            stored_cookies: browser.jar().all().into_iter().cloned().collect(),
            resilience: Some(self.resilience),
        }
    }
}
