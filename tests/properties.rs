//! Property-based tests over the substrate crates' core invariants.

use pii_suite::blocklist::{FilterSet, RequestInfo};
use pii_suite::encodings::EncodingKind;
use pii_suite::hashes::{digest, HashAlgorithm};
use pii_suite::net::cookie::Cookie;
use pii_suite::net::http::ResourceKind;
use pii_suite::net::Url;
use proptest::prelude::*;

proptest! {
    /// Every textual codec round-trips arbitrary bytes.
    #[test]
    fn textual_encodings_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        for kind in [
            EncodingKind::Base16,
            EncodingKind::Base32,
            EncodingKind::Base32Hex,
            EncodingKind::Base58,
            EncodingKind::Base64,
            EncodingKind::Base64Url,
        ] {
            let encoded = kind.encode(&data);
            prop_assert_eq!(kind.decode(&encoded).unwrap(), data.clone(), "{}", kind.name());
        }
    }

    /// The compressors round-trip arbitrary bytes.
    #[test]
    fn compressors_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        for kind in EncodingKind::COMPRESSION {
            let packed = kind.encode(&data);
            prop_assert_eq!(kind.decode(&packed).unwrap(), data.clone(), "{}", kind.name());
        }
    }

    /// Streaming hash state is chunking-invariant for every algorithm.
    #[test]
    fn hashing_is_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = split.min(data.len());
        for alg in HashAlgorithm::ALL {
            let oneshot = digest(alg, &data);
            let mut h = alg.hasher();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), oneshot, "{}", alg.name());
        }
    }

    /// Distinct short inputs never collide across the whole hash suite
    /// (cryptographic expectation, and a guard against truncation bugs).
    #[test]
    fn no_trivial_collisions(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        prop_assume!(a != b);
        for alg in HashAlgorithm::CRYPTOGRAPHIC {
            prop_assert_ne!(
                digest(alg, a.as_bytes()),
                digest(alg, b.as_bytes()),
                "collision in {}", alg.name()
            );
        }
    }

    /// URL display/parse round-trips for generated well-formed URLs.
    #[test]
    fn url_roundtrip(
        host in "[a-z]{1,10}(\\.[a-z]{2,5}){1,2}",
        path in "(/[a-z0-9]{1,8}){0,3}",
        query in proptest::option::of("[a-z]{1,5}=[a-z0-9]{1,8}(&[a-z]{1,5}=[a-z0-9]{1,8}){0,2}"),
    ) {
        let mut s = format!("https://{host}{}", if path.is_empty() { "/".into() } else { path.clone() });
        if let Some(q) = &query {
            s.push('?');
            s.push_str(q);
        }
        let url = Url::parse(&s).unwrap();
        prop_assert_eq!(url.to_string(), s.clone());
        let again = Url::parse(&url.to_string()).unwrap();
        prop_assert_eq!(url, again);
    }

    /// Set-Cookie serialisation round-trips.
    #[test]
    fn cookie_roundtrip(
        name in "[a-zA-Z_][a-zA-Z0-9_]{0,10}",
        value in "[a-zA-Z0-9%~-]{0,20}",
        path in "(/[a-z]{1,6}){0,2}",
        secure in any::<bool>(),
        http_only in any::<bool>(),
        max_age in proptest::option::of(1i64..1_000_000),
    ) {
        let mut c = Cookie::new(name, value);
        if !path.is_empty() {
            c.path = path;
        }
        c.secure = secure;
        c.http_only = http_only;
        c.max_age = max_age;
        let parsed = Cookie::parse_set_cookie(&c.to_set_cookie()).unwrap();
        prop_assert_eq!(parsed, c);
    }

    /// The indexed blocklist matcher agrees with the naive scan on random
    /// rule sets and requests.
    #[test]
    fn blocklist_indexed_equals_naive(
        domains in proptest::collection::vec("[a-z]{3,8}\\.(com|net|io)", 1..6),
        req_host in "[a-z]{3,8}\\.(com|net|io)",
        req_path in "(/[a-z]{1,6}){0,2}",
        third in any::<bool>(),
    ) {
        let rules: String = domains
            .iter()
            .enumerate()
            .map(|(i, d)| {
                if i % 2 == 0 {
                    format!("||{d}^\n")
                } else {
                    format!("||{d}^$third-party\n")
                }
            })
            .collect();
        let set = FilterSet::parse(&rules);
        let url = format!("https://{req_host}{}", if req_path.is_empty() { "/".into() } else { req_path.clone() });
        let info = RequestInfo {
            url: &url,
            host: &req_host,
            top_level_host: "shop.example",
            is_third_party: third,
            kind: ResourceKind::Image,
        };
        prop_assert_eq!(set.matches(&info), set.matches_naive(&info));
    }

    /// Aho–Corasick equals the naive scanner on random patterns/haystacks.
    #[test]
    fn aho_corasick_equals_naive(
        patterns in proptest::collection::vec("[ab]{1,4}", 1..8),
        haystack in "[ab]{0,64}",
    ) {
        use pii_suite::core::scan::{naive_find_all, AhoCorasick};
        // `[ab]{1,4}` patterns are never empty, so construction succeeds.
        let ac = AhoCorasick::new(&patterns).unwrap();
        let pat_bytes: Vec<&[u8]> = patterns.iter().map(|p| p.as_bytes()).collect();
        let mut fast = ac.find_all(haystack.as_bytes());
        let mut slow = naive_find_all(&pat_bytes, haystack.as_bytes());
        fast.sort_by_key(|m| (m.pattern, m.start));
        slow.sort_by_key(|m| (m.pattern, m.start));
        prop_assert_eq!(fast, slow);
    }

    /// The slice-by-8 CRC-32 equals the byte-at-a-time reference on
    /// arbitrary binary input under arbitrary chunking.
    #[test]
    fn crc32_slice8_equals_scalar(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        use pii_suite::hashes::crc::Crc32;
        use pii_suite::hashes::Hasher;
        let split = split.min(data.len());
        let mut scalar = Crc32::new();
        scalar.update_scalar(&data);
        let mut sliced = Crc32::new();
        Hasher::update(&mut sliced, &data[..split]);
        Hasher::update(&mut sliced, &data[split..]);
        prop_assert_eq!(sliced.value(), scalar.value());
    }

    /// The prefiltered scanner equals the unfiltered automaton on arbitrary
    /// binary patterns and haystacks (including empty and 1-byte haystacks,
    /// which the 0-length range includes).
    #[test]
    fn prefiltered_scan_equals_scalar(
        patterns in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..5), 1..8),
        haystack in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        use pii_suite::core::scan::AhoCorasick;
        // `1..5`-byte patterns are never empty, so construction succeeds.
        let ac = AhoCorasick::new(&patterns).unwrap();
        prop_assert_eq!(ac.find_all(&haystack), ac.find_all_scalar(&haystack));
        prop_assert_eq!(ac.is_match(&haystack), ac.is_match_scalar(&haystack));
    }

    /// A pattern set whose leading bytes cover all 256 values defeats the
    /// byte-class prefilter entirely — the skip loop must then degrade to
    /// the scalar scan without changing any match.
    #[test]
    fn prefilter_defeated_set_equals_scalar(
        haystack in proptest::collection::vec(any::<u8>(), 0..96),
        second in any::<u8>(),
    ) {
        use pii_suite::core::scan::AhoCorasick;
        let patterns: Vec<Vec<u8>> = (0u8..=255).map(|b| vec![b, second]).collect();
        let ac = AhoCorasick::new(&patterns).unwrap();
        prop_assert_eq!(ac.find_all(&haystack), ac.find_all_scalar(&haystack));
        prop_assert_eq!(ac.is_match(&haystack), ac.is_match_scalar(&haystack));
    }

    /// The single-pass table-driven percent decoders equal the two-pass
    /// references on escape-heavy strings (valid, truncated, and junk
    /// escapes, plus `+` in both roles).
    #[test]
    fn percent_decoders_equal_references(s in "[a-zA-Z0-9%+ =&]{0,64}") {
        use pii_suite::encodings::percent;
        prop_assert_eq!(percent::decode_lossy(&s), percent::decode_lossy_reference(&s));
        prop_assert_eq!(
            percent::decode_form_lossy(&s),
            percent::decode_form_lossy_reference(&s)
        );
    }

    /// The multi-lane digest sweep equals per-algorithm one-shot digests on
    /// arbitrary binary input, in `HashAlgorithm::ALL` order.
    #[test]
    fn digest_sweep_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        use pii_suite::hashes::{lanes, HashAlgorithm};
        let swept = lanes::digest_sweep(&HashAlgorithm::ALL, &data);
        prop_assert_eq!(swept.len(), HashAlgorithm::ALL.len());
        for ((alg, got), &expected_alg) in swept.iter().zip(HashAlgorithm::ALL.iter()) {
            prop_assert_eq!(*alg, expected_alg);
            prop_assert_eq!(got.clone(), digest(*alg, &data), "{}", alg.name());
        }
    }

    /// The table-driven Whirlpool equals the bit-serial reference round on
    /// arbitrary messages, across the one- and two-block padding cases.
    #[test]
    fn whirlpool_tables_equal_bit_serial_reference(
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        use pii_suite::hashes::whirlpool;
        prop_assert_eq!(
            digest(HashAlgorithm::Whirlpool, &data),
            whirlpool::digest_reference(&data)
        );
    }

    /// The `u32`-limb Base58 encoder equals the byte-bignum reference,
    /// leading zero bytes (rendered as leading '1's) included.
    #[test]
    fn base58_limbs_equal_reference(
        zeros in 0usize..4,
        data in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        use pii_suite::encodings::base58;
        let mut input = vec![0u8; zeros];
        input.extend_from_slice(&data);
        prop_assert_eq!(base58::encode(&input), base58::encode_reference(&input));
    }

    /// A sequence of deflate calls on one thread each equals the
    /// fresh-head-table reference. The small alphabet makes the inputs
    /// share 3-byte windows, so a bucket left stale by an earlier call
    /// would change a later call's matches.
    #[test]
    fn deflate_call_sequence_equals_fresh_table_reference(
        inputs in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..300), 1..8),
    ) {
        use pii_suite::encodings::deflate;
        for input in &inputs {
            prop_assert_eq!(deflate::compress(input), deflate::compress_reference(input));
        }
    }

    /// Registrable-domain extraction is idempotent and suffix-consistent.
    #[test]
    fn registrable_domain_invariants(host in "[a-z]{1,8}(\\.[a-z]{1,8}){0,3}\\.(com|co\\.jp|org|io)") {
        let psl = pii_suite::dns::PublicSuffixList::embedded();
        if let Some(rd) = psl.registrable_domain(&host) {
            // The registrable domain is a suffix of the host…
            let dotted = format!(".{rd}");
            let is_suffix = host == rd || host.ends_with(&dotted);
            prop_assert!(is_suffix, "{} not a suffix of {}", rd, host);
            // …and is itself its own registrable domain.
            prop_assert_eq!(psl.registrable_domain(&rd), Some(rd));
        }
    }

    /// Obfuscation chains are deterministic and sensitive to the input.
    #[test]
    fn obfuscation_chain_determinism(value in "[a-z@.]{4,20}", other in "[a-z@.]{4,20}") {
        use pii_suite::web::obfuscate::Obfuscation;
        prop_assume!(value != other);
        for chain in [
            Obfuscation::plaintext(),
            Obfuscation::hash(HashAlgorithm::Sha256),
            Obfuscation::sha256_of_md5(),
            Obfuscation::encode(EncodingKind::Base64),
        ] {
            prop_assert_eq!(chain.apply(&value), chain.apply(&value));
            prop_assert_ne!(chain.apply(&value), chain.apply(&other));
        }
    }
}

proptest! {
    /// The browser's DOM parser finds every resource the site renderer
    /// emits, on arbitrary pages of arbitrary universes.
    #[test]
    fn html_render_parse_roundtrip(site_idx in 0usize..130, page_idx in 0usize..6) {
        use pii_suite::web::{html, Universe};
        use pii_suite::web::site::{LeakMethod, Site};
        use pii_suite::browser::dom;

        // Reuse one shared universe across cases (generation is expensive).
        use std::sync::OnceLock;
        static UNIVERSE: OnceLock<Universe> = OnceLock::new();
        let u = UNIVERSE.get_or_init(Universe::generate);

        let site = u.sender_sites().nth(site_idx % u.sender_sites().count()).unwrap();
        let path = Site::flow_paths()[page_idx];
        let html_text = html::render_page(site, path, Some(&u.persona));
        let base = Url::parse(&format!("https://{}{}", site.domain, path)).unwrap();
        let discovery = dom::discover(&base, &dom::parse(&html_text));

        let urls: Vec<String> = discovery.resources.iter().map(|r| r.url.to_string()).collect();
        // Every active tag's script URL is discovered…
        for edge in &site.edges {
            let active = match edge.method {
                LeakMethod::Referer => true,
                _ => Site::tag_active(edge.persistent, path),
            };
            if active {
                let expected = html::edge_script_url(edge);
                prop_assert!(urls.contains(&expected), "missing {expected} on {path}");
            }
        }
        // …and every benign resource.
        for benign in &site.benign {
            let expected = format!("https://{}{}", benign.host, benign.path);
            prop_assert!(urls.contains(&expected), "missing benign {expected}");
        }
        // Cookie-edge pages expose exactly their inline scripts.
        let cookie_edges = site
            .edges
            .iter()
            .filter(|e| e.method == LeakMethod::Cookie && Site::tag_active(e.persistent, path))
            .count();
        prop_assert_eq!(discovery.inline_scripts.len(), cookie_edges);
        // The sign-up page has the form with the configured fields.
        if path == "/signup" {
            prop_assert_eq!(discovery.forms.len(), 1);
            let form = &discovery.forms[0];
            prop_assert_eq!(form.fields.len(), site.form.fields.len());
        }
    }
}
