//! Golden token-set digests: the SHA-256 of `TokenSet::to_text()` for the
//! default (depth 2, textual) and the paper's full (depth 3, compression
//! included) builder on the default study persona, at several worker
//! counts. Any change to a digest or encoding kernel, to the chain sweep
//! or to collision resolution that alters a single candidate token, or
//! which chain a token resolves to, fails here.

use pii_suite::hashes::{hex_digest, HashAlgorithm};
use pii_suite::prelude::*;

fn digest(builder: &TokenSetBuilder, workers: usize) -> String {
    let set = builder.build_on(&Persona::default_study(), workers);
    hex_digest(HashAlgorithm::Sha256, set.to_text().as_bytes())
}

const DEFAULT_DIGEST: &str = "06bb75478e8e6adbfb9b9fadc83bdb1e0a1183672fe1d6f38a4d0dc385d59562";
const PAPER_FULL_DIGEST: &str = "35a51bdcd185b74ac92a519af60e668dcf266736516cbddc39bd25d6b0f1040d";

#[test]
fn default_token_set_matches_its_golden_digest() {
    for workers in 1..=3 {
        assert_eq!(
            digest(&TokenSetBuilder::default(), workers),
            DEFAULT_DIGEST,
            "{workers} workers"
        );
    }
}

#[test]
fn paper_full_token_set_matches_its_golden_digest() {
    for workers in 1..=3 {
        assert_eq!(
            digest(&TokenSetBuilder::paper_full(), workers),
            PAPER_FULL_DIGEST,
            "{workers} workers"
        );
    }
}
