//! Candidate-token precomputation (§3.1).
//!
//! "We pre-compute a candidate set of tokens by applying all supported
//! encodings, hashes, and checksums for each PII. Note that the encoding or
//! hashing could be applied multiple times. Here we encode/hash each PII at
//! most three times."
//!
//! A token maps back to (PII kind, obfuscation chain), so a match
//! immediately yields Table 1b's encoding bucket and Table 1c's PII type.
//! Tokens shorter than [`TokenSetBuilder::min_token_len`] are dropped — a
//! 4-hex-digit CRC-16 would false-positive on every URL — mirroring the
//! paper's use of checksums only as inner chain steps.

use pii_encodings::EncodingKind;
use pii_hashes::HashAlgorithm;
use pii_web::obfuscate::{Obfuscation, Step};
use pii_web::persona::{Persona, PiiKind};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// What a matched token means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenInfo {
    pub pii: PiiKind,
    /// The obfuscation chain that produced the token.
    pub chain: Obfuscation,
}

impl TokenInfo {
    /// Table 1b bucket of the chain.
    pub fn bucket(&self) -> &'static str {
        self.chain.table1b_bucket()
    }
}

/// The pre-computed candidate set.
#[derive(Debug, Clone, Default)]
pub struct TokenSet {
    map: HashMap<String, TokenInfo>,
}

impl TokenSet {
    /// Exact lookup of a candidate string.
    pub fn lookup(&self, candidate: &str) -> Option<&TokenInfo> {
        self.map.get(candidate)
    }

    /// Case-tolerant lookup: hex digests appear uppercased in the wild.
    pub fn lookup_normalized(&self, candidate: &str) -> Option<&TokenInfo> {
        if let Some(info) = self.map.get(candidate) {
            return Some(info);
        }
        // Try lowercased (covers upper/mixed-case hex); base64 is
        // case-sensitive so only do this as a fallback.
        let lower = candidate.to_ascii_lowercase();
        if lower != candidate {
            if let Some(info) = self.map.get(&lower) {
                // Only hex-like chains are case-insensitive.
                if candidate.chars().all(|c| c.is_ascii_hexdigit()) {
                    return Some(info);
                }
            }
        }
        None
    }

    /// Number of candidate tokens.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over (token, info) pairs in canonical (sorted-token) order.
    /// The Aho–Corasick scanner builds its pattern list from this, so the
    /// iteration order decides pattern indices — sorting here keeps every
    /// downstream match list a pure function of the token set.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TokenInfo)> {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }

    /// Serialize to a compact line format (`token\tpii\tstep+step…`), one
    /// line per token in canonical (sorted-token) order. Compressed tokens
    /// are binary, so the token field escapes a backslash, tab, newline and
    /// carriage return as `\\`, `\t`, `\n` and `\r`; every set, depth 3
    /// with compression included, round-trips through
    /// [`TokenSet::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (token, info) in self.iter() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&escape_token(token));
            out.push('\t');
            out.push_str(info.pii.name());
            out.push('\t');
            for (i, step) in info.chain.steps.iter().enumerate() {
                if i > 0 {
                    out.push('+');
                }
                out.push_str(step.label());
            }
        }
        out
    }

    /// Parse the [`TokenSet::to_text`] format. Unknown PII names or chain
    /// steps, and escapes other than the four `to_text` writes, make the
    /// line invalid.
    pub fn from_text(text: &str) -> Result<TokenSet, String> {
        use pii_web::obfuscate::Step;
        let mut map = HashMap::new();
        for (no, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(token), Some(pii_name), Some(chain_text)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("line {}: expected 3 tab-separated fields", no + 1));
            };
            let token = unescape_token(token)
                .ok_or_else(|| format!("line {}: bad escape in token {token:?}", no + 1))?;
            let pii = PiiKind::ALL
                .iter()
                .copied()
                .find(|k| k.name() == pii_name)
                .ok_or_else(|| format!("line {}: unknown pii {pii_name:?}", no + 1))?;
            let mut steps = Vec::new();
            if !chain_text.is_empty() {
                for label in chain_text.split('+') {
                    let step = HashAlgorithm::from_name(label)
                        .map(Step::Hash)
                        .or_else(|| EncodingKind::from_name(label).map(Step::Encode))
                        .ok_or_else(|| format!("line {}: unknown step {label:?}", no + 1))?;
                    steps.push(step);
                }
            }
            map.insert(
                token.into_owned(),
                TokenInfo {
                    pii,
                    chain: Obfuscation { steps },
                },
            );
        }
        Ok(TokenSet { map })
    }
}

/// Escape the bytes that would break the line format of
/// [`TokenSet::to_text`]: backslash, tab, newline and carriage return.
fn escape_token(token: &str) -> Cow<'_, str> {
    if !token.contains(['\\', '\t', '\n', '\r']) {
        return Cow::Borrowed(token);
    }
    let mut out = String::with_capacity(token.len() + 8);
    for c in token.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Invert [`escape_token`]; `None` on any other or a dangling escape.
fn unescape_token(field: &str) -> Option<Cow<'_, str>> {
    if !field.contains('\\') {
        return Some(Cow::Borrowed(field));
    }
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            '\\' => '\\',
            't' => '\t',
            'n' => '\n',
            'r' => '\r',
            _ => return None,
        });
    }
    Some(Cow::Owned(out))
}

/// Builds [`TokenSet`]s: [`TokenSetBuilder::build`] on the calling thread,
/// [`TokenSetBuilder::build_on`] with the chain sweep fanned across
/// workers. Both yield the same set.
#[derive(Debug, Clone)]
pub struct TokenSetBuilder {
    /// Maximum chain length (the paper uses 3; the default here is 2, which
    /// already covers every form observed in Table 1b/2 — the chain-depth
    /// cost/recall trade-off is an explicit ablation, `bench_chain_depth`).
    pub max_depth: usize,
    /// Minimum rendered token length.
    pub min_token_len: usize,
    /// Include the compression encodings (gz/deflate/bzip2) as chain steps.
    /// Compressed tokens are binary and only match percent-decoded bodies;
    /// they triple the candidate-set size, so they are optional.
    pub include_compression: bool,
}

impl Default for TokenSetBuilder {
    fn default() -> Self {
        TokenSetBuilder {
            max_depth: 2,
            min_token_len: 8,
            include_compression: false,
        }
    }
}

impl TokenSetBuilder {
    /// The paper's full configuration: depth 3, everything included.
    pub fn paper_full() -> Self {
        TokenSetBuilder {
            max_depth: 3,
            min_token_len: 8,
            include_compression: true,
        }
    }

    /// The encoding chain steps this builder considers, in canonical order.
    /// Hash steps are not listed here: every frontier entry first runs all
    /// of [`HashAlgorithm::ALL`] through one shared-input digest sweep
    /// instead of 23 independent passes.
    fn encoding_steps(&self) -> Vec<Step> {
        let mut steps: Vec<Step> = EncodingKind::TEXTUAL
            .iter()
            .map(|&kind| Step::Encode(kind))
            .collect();
        if self.include_compression {
            for kind in EncodingKind::COMPRESSION {
                steps.push(Step::Encode(kind));
            }
        }
        steps
    }

    /// Build the candidate set for `persona` on the calling thread.
    pub fn build(&self, persona: &Persona) -> TokenSet {
        self.build_on(persona, 1)
    }

    /// Build the candidate set for `persona`, fanning each depth's frontier
    /// across up to `workers` threads.
    ///
    /// Workers only compute the step outputs of contiguous frontier chunks.
    /// The calling thread renders and inserts every token in the canonical
    /// order (PII value, depth, frontier entry, then hashes before
    /// encodings), so collision resolution — the shorter chain wins, then
    /// the first inserted — and with it the set is identical for every
    /// worker count. Workers keep no tokens: every retained string is
    /// allocated by the caller.
    pub fn build_on(&self, persona: &Persona, workers: usize) -> TokenSet {
        let encodings = self.encoding_steps();
        let steps: Vec<Step> = HashAlgorithm::ALL
            .iter()
            .map(|&alg| Step::Hash(alg))
            .chain(encodings.iter().copied())
            .collect();
        let mut map = HashMap::new();
        for (kind, value) in persona.all_values() {
            // Depth 0: plaintext.
            self.insert(&mut map, kind, value.as_bytes(), 0, Vec::new);
            // Depths 1..=max: breadth-first over chains. Each frontier entry
            // carries the bytes after the chain so far, so each step is
            // applied incrementally rather than re-running whole chains.
            // The last depth's outputs are inserted and dropped; no
            // frontier is built from them.
            let mut frontier: Vec<(Vec<Step>, Vec<u8>)> = vec![(Vec::new(), value.into_bytes())];
            for depth in 1..=self.max_depth {
                let last = depth == self.max_depth;
                let mut next = Vec::new();
                expand_in_order(&frontier, &encodings, workers, |entries, mut outputs| {
                    let per_entry = outputs.chunks_exact_mut(steps.len());
                    for ((chain, _), outs) in entries.iter().zip(per_entry) {
                        for (&step, out) in steps.iter().zip(outs) {
                            let extended = || {
                                let mut steps = Vec::with_capacity(depth);
                                steps.extend_from_slice(chain);
                                steps.push(step);
                                steps
                            };
                            self.insert(&mut map, kind, out, depth, extended);
                            if !last {
                                next.push((extended(), std::mem::take(out)));
                            }
                        }
                    }
                });
                frontier = next;
            }
        }
        TokenSet { map }
    }

    /// Insert the rendering of `out` under the `depth`-step chain that
    /// `chain` builds, unless it is too short or an existing entry wins.
    fn insert(
        &self,
        map: &mut HashMap<String, TokenInfo>,
        pii: PiiKind,
        out: &[u8],
        depth: usize,
        chain: impl FnOnce() -> Vec<Step>,
    ) {
        // Lossy rendering can lengthen binary output, so the length floor
        // applies to the rendered token, never to the raw bytes.
        let token = String::from_utf8_lossy(out);
        if token.len() < self.min_token_len {
            return;
        }
        // Shorter chains win collisions: a plaintext match must never be
        // reported as some exotic chain that happens to collide. Among
        // equal-length chains the first inserted wins.
        if map
            .get(token.as_ref())
            .is_some_and(|existing: &TokenInfo| existing.chain.steps.len() <= depth)
        {
            return;
        }
        map.insert(
            token.into_owned(),
            TokenInfo {
                pii,
                chain: Obfuscation { steps: chain() },
            },
        );
    }
}

/// Frontier entries per unit of work handed to a worker.
const CHUNK: usize = 8;

/// Expand the frontier in [`CHUNK`]-entry chunks and hand `sink` each chunk
/// with its outputs ([`expand_chunk`]), in frontier order.
///
/// With one worker the calling thread does both. Otherwise `workers`
/// threads claim chunks in order and compute them while the calling thread
/// runs `sink` on the finished ones, holding back any chunk that finishes
/// ahead of an earlier one.
fn expand_in_order<'f>(
    frontier: &'f [(Vec<Step>, Vec<u8>)],
    encodings: &[Step],
    workers: usize,
    mut sink: impl FnMut(&'f [(Vec<Step>, Vec<u8>)], Vec<Vec<u8>>),
) {
    let chunks: Vec<_> = frontier.chunks(CHUNK).collect();
    if workers <= 1 || chunks.len() <= 1 {
        for entries in chunks {
            sink(entries, expand_chunk(entries, encodings));
        }
        return;
    }
    let claimed = AtomicUsize::new(0);
    let (done, finished) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(chunks.len()) {
            let done = done.clone();
            let (claimed, chunks) = (&claimed, &chunks);
            scope.spawn(move || loop {
                let index = claimed.fetch_add(1, Ordering::Relaxed);
                let Some(&entries) = chunks.get(index) else {
                    return;
                };
                // A closed channel means the calling thread is unwinding.
                if done
                    .send((index, expand_chunk(entries, encodings)))
                    .is_err()
                {
                    return;
                }
            });
        }
        // The loop below ends once every worker has dropped its sender.
        drop(done);
        let mut held: Vec<Option<Vec<Vec<u8>>>> = Vec::new();
        held.resize_with(chunks.len(), || None);
        let mut due = 0;
        for (index, outputs) in finished {
            if let Some(slot) = held.get_mut(index) {
                *slot = Some(outputs);
            }
            while let Some((&entries, outputs)) = chunks
                .get(due)
                .zip(held.get_mut(due).and_then(Option::take))
            {
                sink(entries, outputs);
                due += 1;
            }
        }
    });
}

/// The outputs of every step on every entry of `entries`, entry-major: each
/// entry's 23 hashes (in [`HashAlgorithm::ALL`] order), then its
/// `encodings`.
fn expand_chunk(entries: &[(Vec<Step>, Vec<u8>)], encodings: &[Step]) -> Vec<Vec<u8>> {
    let per_entry = HashAlgorithm::ALL.len().saturating_add(encodings.len());
    let mut outputs: Vec<Vec<u8>> = Vec::with_capacity(entries.len().saturating_mul(per_entry));
    for (_, bytes) in entries {
        for (_, hex) in pii_hashes::lanes::hex_digest_sweep(&HashAlgorithm::ALL, bytes) {
            outputs.push(hex.into_bytes());
        }
        // gzip is the deflate stream in a frame: reuse the stream when the
        // deflate step already produced it for these bytes.
        let mut deflated: Option<usize> = None;
        for &step in encodings {
            let out = match (step, deflated.and_then(|i| outputs.get(i))) {
                (Step::Encode(EncodingKind::Gzip), Some(stream)) => {
                    pii_encodings::gzip::frame(bytes, stream)
                }
                _ => step.apply(bytes),
            };
            if step == Step::Encode(EncodingKind::Deflate) {
                deflated = Some(outputs.len());
            }
            outputs.push(out);
        }
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn persona() -> Persona {
        Persona::default_study()
    }

    #[test]
    fn plaintext_email_is_a_token() {
        let set = TokenSetBuilder::default().build(&persona());
        let info = set.lookup("foo@mydom.com").unwrap();
        assert_eq!(info.pii, PiiKind::Email);
        assert!(info.chain.is_plaintext());
    }

    #[test]
    fn single_hash_tokens_resolve() {
        let set = TokenSetBuilder::default().build(&persona());
        let sha = pii_hashes::hex_digest(HashAlgorithm::Sha256, b"foo@mydom.com");
        let info = set.lookup(&sha).unwrap();
        assert_eq!(info.pii, PiiKind::Email);
        assert_eq!(info.bucket(), "sha256");
        let md5_name = pii_hashes::hex_digest(HashAlgorithm::Md5, b"Alice Foobar");
        assert_eq!(set.lookup(&md5_name).unwrap().pii, PiiKind::Name);
    }

    #[test]
    fn depth_two_chains_resolve() {
        let set = TokenSetBuilder::default().build(&persona());
        let token = Obfuscation::sha256_of_md5().apply("foo@mydom.com");
        let info = set.lookup(&token).unwrap();
        assert_eq!(info.bucket(), "sha256_of_md5");
    }

    #[test]
    fn depth_three_needs_paper_config() {
        let p = persona();
        let chain = Obfuscation::chain(vec![
            Step::Encode(EncodingKind::Base64),
            Step::Hash(HashAlgorithm::Sha1),
            Step::Hash(HashAlgorithm::Sha256),
        ]);
        let token = chain.apply(&p.email);
        let shallow = TokenSetBuilder::default().build(&p);
        assert!(shallow.lookup(&token).is_none(), "depth 2 must not find it");
        let mut deep = TokenSetBuilder::paper_full();
        deep.include_compression = false; // keep the test fast
        let deep = deep.build(&p);
        assert!(deep.lookup(&token).is_some(), "depth 3 must find it");
    }

    #[test]
    fn build_on_is_identical_for_every_worker_count() {
        // Depth 2 expands the 30 depth-1 outputs of each PII value in four
        // chunks: 2 workers share them, 5 and 40 leave workers idle.
        let builder = TokenSetBuilder::default();
        let text = builder.build(&persona()).to_text();
        for workers in [0, 2, 5, 40] {
            assert_eq!(
                builder.build_on(&persona(), workers).to_text(),
                text,
                "{workers}"
            );
        }
    }

    #[test]
    fn uppercase_hex_matches_via_normalization() {
        let set = TokenSetBuilder::default().build(&persona());
        let sha = pii_hashes::hex_digest(HashAlgorithm::Sha256, b"foo@mydom.com").to_uppercase();
        assert!(set.lookup(&sha).is_none());
        assert!(set.lookup_normalized(&sha).is_some());
        // Base64 must NOT match case-insensitively.
        let b64_wrong_case = "zM9VQG15ZG9TLMNVBQ==";
        assert!(set.lookup_normalized(b64_wrong_case).is_none());
    }

    #[test]
    fn short_tokens_are_excluded() {
        let set = TokenSetBuilder::default().build(&persona());
        // CRC-16 of anything renders as 4 hex chars — below the floor.
        let crc = pii_hashes::hex_digest(HashAlgorithm::Crc16, b"foo@mydom.com");
        assert_eq!(crc.len(), 4);
        assert!(set.lookup(&crc).is_none());
        // But CRC-16 as an *inner* step feeds longer outer tokens:
        let chain = Obfuscation::chain(vec![
            Step::Hash(HashAlgorithm::Crc16),
            Step::Hash(HashAlgorithm::Sha256),
        ]);
        assert!(set.lookup(&chain.apply("foo@mydom.com")).is_some());
    }

    #[test]
    fn all_pii_kinds_are_represented() {
        let set = TokenSetBuilder::default().build(&persona());
        let p = persona();
        for (kind, value) in p.all_values() {
            let sha = pii_hashes::hex_digest(HashAlgorithm::Sha256, value.as_bytes());
            assert_eq!(set.lookup(&sha).unwrap().pii, kind, "{kind:?}");
        }
    }

    #[test]
    fn candidate_set_size_grows_with_depth() {
        let p = persona();
        let d1 = TokenSetBuilder {
            max_depth: 1,
            ..Default::default()
        }
        .build(&p);
        let d2 = TokenSetBuilder {
            max_depth: 2,
            ..Default::default()
        }
        .build(&p);
        assert!(d1.len() > 100, "depth 1: {}", d1.len());
        assert!(d2.len() > d1.len() * 10, "depth 2 should dwarf depth 1");
    }

    #[test]
    fn token_set_text_roundtrip() {
        let set = TokenSetBuilder {
            max_depth: 1,
            ..Default::default()
        }
        .build(&persona());
        let text = set.to_text();
        let back = TokenSet::from_text(&text).unwrap();
        assert_eq!(back.len(), set.len());
        // Every token resolves identically.
        for (token, info) in set.iter() {
            let restored = back.lookup(token).unwrap();
            assert_eq!(restored.pii, info.pii);
            assert_eq!(restored.chain, info.chain);
        }
        // And the format is stable (sorted).
        assert_eq!(TokenSet::from_text(&text).unwrap().to_text(), text);
    }

    #[test]
    fn binary_token_set_text_roundtrip() {
        // Compressed tokens carry raw control bytes; some contain the
        // format's own tab and newline separators.
        let set = TokenSetBuilder {
            max_depth: 1,
            include_compression: true,
            ..Default::default()
        }
        .build(&persona());
        assert!(
            set.iter()
                .any(|(t, _)| t.contains(['\t', '\n', '\r', '\\'])),
            "expected at least one token with a separator byte"
        );
        let text = set.to_text();
        let back = TokenSet::from_text(&text).unwrap();
        assert_eq!(back.len(), set.len());
        for (token, info) in set.iter() {
            assert_eq!(back.lookup(token), Some(info), "{token:?}");
        }
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn token_escapes_roundtrip_and_bad_escapes_are_rejected() {
        let raw = "a\\b\tc\nd\re\\t";
        let escaped = escape_token(raw);
        assert!(!escaped.contains(['\t', '\n', '\r']));
        assert_eq!(unescape_token(&escaped).as_deref(), Some(raw));
        assert!(unescape_token("dangling\\").is_none());
        assert!(unescape_token("bad\\x").is_none());
        assert!(TokenSet::from_text("tok\\q\temail\tsha256").is_err());
    }

    #[test]
    fn token_set_text_rejects_garbage() {
        assert!(TokenSet::from_text("no tabs here").is_err());
        assert!(TokenSet::from_text("tok\temail\tunknownstep").is_err());
        assert!(TokenSet::from_text("tok\tnotapii\tsha256").is_err());
        assert!(TokenSet::from_text("").unwrap().is_empty());
    }

    #[test]
    fn collision_prefers_shorter_chain() {
        // rot13 twice is the identity: the plaintext chain must win.
        let set = TokenSetBuilder::default().build(&persona());
        let info = set.lookup("foo@mydom.com").unwrap();
        assert!(info.chain.is_plaintext());
    }
}
