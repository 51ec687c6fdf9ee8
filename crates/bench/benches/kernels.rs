//! Hot-path kernel trajectory: scalar reference vs kernel for each of the
//! throughput kernels (four slice-at-a-time kernels, then three
//! small-input kernels of the candidate-token sweep), emitting
//! `BENCH_kernels.json` next to the workspace root.
//!
//! Not a criterion bench: each point is a best-of-N timed pass over a fixed
//! corpus, and the artifact is the point — `kernel_bytes_per_sec /
//! scalar_bytes_per_sec` is the speedup the PR trajectory tracks. Every
//! measured pass also asserts the kernel's output equals the scalar
//! reference byte-for-byte, so the bench doubles as an end-to-end
//! differential gate on realistic corpus sizes.
//!
//! Flags: `--smoke` shrinks corpora for CI, `--out <path>` redirects the
//! artifact (the CI smoke run writes to `target/` so the checked-in
//! full-size artifact is not clobbered by a noisy run).

use pii_browser::profiles::BrowserKind;
use pii_core::scan::AhoCorasick;
use pii_crawler::Crawler;
use pii_encodings::{base58, deflate, percent, EncodingKind};
use pii_hashes::crc::Crc32;
use pii_hashes::{digest, hex_digest, lanes, whirlpool, HashAlgorithm, Hasher};
use pii_web::{Universe, UniverseSpec};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct KernelPoint {
    kernel: &'static str,
    /// Corpus size a single pass processes.
    bytes: usize,
    scalar_bytes_per_sec: f64,
    kernel_bytes_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct BenchArtifact {
    bench: &'static str,
    smoke: bool,
    points: Vec<KernelPoint>,
}

/// Deterministic corpus bytes (xorshift64*) — no RNG dependency, identical
/// across runs so the trajectory compares like with like.
fn corpus_bytes(len: usize) -> Vec<u8> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.wrapping_mul(0x2545f4914f6cdd1d).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Best-of-`reps` wall time for `f`, which must return a checksum-ish value
/// so the optimizer cannot elide the pass.
fn best_secs<T: std::fmt::Debug + PartialEq>(reps: usize, expect: &T, f: impl Fn() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let got = f();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(&got, expect, "kernel/scalar divergence under measurement");
        best = best.min(secs);
    }
    best
}

fn point<T: std::fmt::Debug + PartialEq>(
    kernel: &'static str,
    bytes: usize,
    reps: usize,
    scalar: impl Fn() -> T,
    fast: impl Fn() -> T,
) -> KernelPoint {
    let expect = scalar();
    let scalar_secs = best_secs(reps, &expect, scalar);
    let kernel_secs = best_secs(reps, &expect, fast);
    let p = KernelPoint {
        kernel,
        bytes,
        scalar_bytes_per_sec: bytes as f64 / scalar_secs,
        kernel_bytes_per_sec: bytes as f64 / kernel_secs,
        speedup: scalar_secs / kernel_secs,
    };
    eprintln!(
        "[kernels {}] {} bytes | scalar {:.1} MB/s | kernel {:.1} MB/s | {:.2}x",
        p.kernel,
        p.bytes,
        p.scalar_bytes_per_sec / 1e6,
        p.kernel_bytes_per_sec / 1e6,
        p.speedup
    );
    p
}

/// Every delivered request URL of a crawled universe, concatenated — the
/// haystack shape the exhaustive-scan ablation runs over.
fn url_corpus(factor: usize) -> String {
    let universe = Universe::generate_with(UniverseSpec::default().scaled(factor));
    let dataset = Crawler::new(&universe).run(BrowserKind::Firefox88Vanilla);
    let mut out = String::new();
    for crawl in dataset.completed() {
        for rec in crawl.delivered() {
            out.push_str(&rec.request.url.to_string());
            out.push('\n');
        }
    }
    out
}

/// The realistic pattern shape: hex digests of the persona's PII under
/// every supported algorithm.
fn digest_patterns() -> Vec<String> {
    let persona = pii_web::Persona::default_study();
    let mut out = Vec::new();
    for (_, value) in persona.all_values() {
        for alg in HashAlgorithm::ALL {
            let d = hex_digest(alg, value.as_bytes());
            if d.len() >= 8 {
                out.push(d);
            }
        }
    }
    out
}

/// A form-encoded body corpus: key=value pairs over the persona's values
/// and filler blobs, the shape `decode_form_lossy` sees per payload pair.
fn form_corpus(len: usize) -> String {
    let persona = pii_web::Persona::default_study();
    let blob = corpus_bytes(64);
    let mut out = String::new();
    let mut i = 0usize;
    while out.len() < len {
        for (kind, value) in persona.all_values() {
            out.push_str(kind.name());
            out.push('=');
            out.push_str(&percent::encode_form(value.as_bytes()));
            out.push('&');
        }
        out.push_str(&format!("blob{i}="));
        out.push_str(&percent::encode_form(&blob));
        out.push('&');
        i += 1;
    }
    out.truncate(len);
    out
}

/// The inputs of the candidate-token sweep's first two depths: the
/// persona's PII values and every hash (hex) and encoding of them, i.e.
/// 8–300-byte messages, repeated `copies` times.
fn sweep_inputs(copies: usize) -> Vec<Vec<u8>> {
    let persona = pii_web::Persona::default_study();
    let mut once = Vec::new();
    for (_, value) in persona.all_values() {
        let bytes = value.into_bytes();
        for alg in HashAlgorithm::ALL {
            once.push(hex_digest(alg, &bytes).into_bytes());
        }
        for kind in EncodingKind::ALL {
            once.push(kind.encode(&bytes));
        }
        once.push(bytes);
    }
    once.retain(|m| (8..=300).contains(&m.len()));
    let mut out = Vec::with_capacity(once.len() * copies);
    for _ in 0..copies {
        out.extend(once.iter().cloned());
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_kernels.json")
        });

    let (crc_len, sweep_len, form_len, scan_factor, copies, reps) = if smoke {
        (4 << 20, 256 << 10, 512 << 10, 1, 2, 2)
    } else {
        (64 << 20, 2 << 20, 8 << 20, 10, 40, 3)
    };

    let mut points = Vec::new();

    // Kernel 1: CRC-32 slice-by-8 vs the byte-at-a-time table loop.
    let crc_data = corpus_bytes(crc_len);
    // Warm the lazy tables so neither side pays construction.
    let _ = {
        let mut h = Crc32::new();
        Hasher::update(&mut h, b"warm");
        h.value()
    };
    points.push(point(
        "crc32_slice8",
        crc_data.len(),
        reps,
        || {
            let mut h = Crc32::new();
            h.update_scalar(&crc_data);
            h.value()
        },
        || {
            let mut h = Crc32::new();
            Hasher::update(&mut h, &crc_data);
            h.value()
        },
    ));

    // Kernel 2: byte-class prefiltered scan vs the unfiltered automaton,
    // over the crawled universe's URL corpus with PII-digest patterns.
    let corpus = url_corpus(scan_factor);
    let haystack = corpus.as_bytes();
    let patterns = digest_patterns();
    let ac = AhoCorasick::new(&patterns).expect("digest patterns are never empty");
    eprintln!(
        "[kernels scan_prefilter] corpus {}x: {} bytes, {} patterns",
        scan_factor,
        haystack.len(),
        patterns.len()
    );
    points.push(point(
        "scan_prefilter",
        haystack.len(),
        reps,
        || ac.find_all_scalar(haystack),
        || ac.find_all(haystack),
    ));

    // Kernel 3: the 23-lane digest sweep vs 23 independent full passes.
    let sweep_data = corpus_bytes(sweep_len);
    points.push(point(
        "digest_lanes",
        // Scalar reads the input once per algorithm; the lanes read it
        // once, period. Throughput is normalized to input bytes so the
        // speedup is the re-read amortization.
        sweep_data.len(),
        reps,
        || {
            HashAlgorithm::ALL
                .iter()
                .map(|&alg| digest(alg, &sweep_data))
                .collect::<Vec<_>>()
        },
        || {
            lanes::digest_sweep(&HashAlgorithm::ALL, &sweep_data)
                .into_iter()
                .map(|(_, d)| d)
                .collect::<Vec<_>>()
        },
    ));

    // Kernel 4: single-pass table-driven form decoding vs the two-allocation
    // replace-then-decode reference.
    let form = form_corpus(form_len);
    points.push(point(
        "percent_form_decode",
        form.len(),
        reps,
        || percent::decode_form_lossy_reference(&form),
        || percent::decode_form_lossy(&form),
    ));

    // Kernels 5–7 run on the token sweep's many short messages, where
    // per-call set-up, not streaming throughput, sets the cost.
    let messages = sweep_inputs(copies);
    let message_bytes: usize = messages.iter().map(Vec::len).sum();
    eprintln!(
        "[kernels sweep] {} messages, {} bytes",
        messages.len(),
        message_bytes
    );

    // Kernel 5: Whirlpool's eight row tables vs the bit-serial GF(2⁸) round.
    let _ = digest(HashAlgorithm::Whirlpool, b"warm");
    points.push(point(
        "whirlpool_tables",
        message_bytes,
        reps,
        || {
            messages
                .iter()
                .map(|m| whirlpool::digest_reference(m))
                .collect::<Vec<_>>()
        },
        || {
            messages
                .iter()
                .map(|m| digest(HashAlgorithm::Whirlpool, m))
                .collect::<Vec<_>>()
        },
    ));

    // Kernel 6: Base58 over u32 limbs in base 58⁵ vs the byte bignum.
    points.push(point(
        "base58_limbs",
        message_bytes,
        reps,
        || {
            messages
                .iter()
                .map(|m| base58::encode_reference(m))
                .collect::<Vec<_>>()
        },
        || {
            messages
                .iter()
                .map(|m| base58::encode(m))
                .collect::<Vec<_>>()
        },
    ));

    // Kernel 7: deflate on the per-thread reused head table vs a fresh
    // 2¹⁵-bucket table per call.
    points.push(point(
        "deflate_small_inputs",
        message_bytes,
        reps,
        || {
            messages
                .iter()
                .map(|m| deflate::compress_reference(m))
                .collect::<Vec<_>>()
        },
        || {
            messages
                .iter()
                .map(|m| deflate::compress(m))
                .collect::<Vec<_>>()
        },
    ));

    let artifact = BenchArtifact {
        bench: "kernels",
        smoke,
        points,
    };
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&artifact).expect("serialize") + "\n",
    )
    .expect("write BENCH_kernels.json");
    eprintln!("wrote {}", out_path.display());
}
