//! CI validator for `BENCH_kernels.json` (the `benches/kernels.rs`
//! artifact).
//!
//! ```text
//! validate_bench_json <BENCH_kernels.json> [--min-crc-speedup <x>]
//! ```
//!
//! Checks — via the vendored serde_json, so the bench's serde output and
//! this reader cannot drift — that the file parses, declares
//! `bench: "kernels"`, and carries one well-formed point (positive corpus
//! size and throughputs, speedup consistent with the two rates) for every
//! required kernel. With `--min-crc-speedup`, additionally requires the
//! CRC-32 slice-by-8 point to clear the given speedup floor (the checked-in
//! full-size artifact is validated at 2.0; the CI smoke artifact at a
//! noise-tolerant 1.2).

use serde::Value;
use std::process::exit;

const REQUIRED_KERNELS: [&str; 7] = [
    "crc32_slice8",
    "scan_prefilter",
    "digest_lanes",
    "percent_form_decode",
    "whirlpool_tables",
    "base58_limbs",
    "deflate_small_inputs",
];

fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::F64(n) => Some(*n),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

fn fail(message: &str) -> ! {
    eprintln!("validate_bench_json: {message}");
    exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        fail("usage: validate_bench_json <BENCH_kernels.json> [--min-crc-speedup <x>]");
    };
    let min_crc_speedup: f64 = args
        .iter()
        .position(|a| a == "--min-crc-speedup")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("bad --min-crc-speedup value {v:?}")))
        })
        .unwrap_or(0.0);

    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")));
    if field(&doc, "bench").and_then(as_str) != Some("kernels") {
        fail(&format!("{path}: bench field missing or not \"kernels\""));
    }
    let points = match field(&doc, "points") {
        Some(Value::Arr(points)) => points,
        _ => fail(&format!("{path}: points missing or not an array")),
    };

    let mut seen: Vec<(String, f64)> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let kernel = field(p, "kernel")
            .and_then(as_str)
            .unwrap_or_else(|| fail(&format!("{path}: point {i} has no kernel name")));
        let bytes = field(p, "bytes")
            .and_then(as_f64)
            .unwrap_or_else(|| fail(&format!("{path}: {kernel} has no numeric bytes")));
        let scalar = field(p, "scalar_bytes_per_sec")
            .and_then(as_f64)
            .unwrap_or_else(|| fail(&format!("{path}: {kernel} has no scalar rate")));
        let fast = field(p, "kernel_bytes_per_sec")
            .and_then(as_f64)
            .unwrap_or_else(|| fail(&format!("{path}: {kernel} has no kernel rate")));
        let speedup = field(p, "speedup")
            .and_then(as_f64)
            .unwrap_or_else(|| fail(&format!("{path}: {kernel} has no speedup")));
        if bytes <= 0.0 || scalar <= 0.0 || fast <= 0.0 {
            fail(&format!("{path}: {kernel} has a non-positive measurement"));
        }
        // The recorded speedup must be the ratio of the recorded rates.
        if (speedup - fast / scalar).abs() > 0.01 * speedup.max(1.0) {
            fail(&format!(
                "{path}: {kernel} speedup {speedup:.3} inconsistent with rates ({:.3})",
                fast / scalar
            ));
        }
        seen.push((kernel.to_string(), speedup));
    }
    for required in REQUIRED_KERNELS {
        let Some((_, speedup)) = seen.iter().find(|(k, _)| k == required) else {
            fail(&format!("{path}: kernel {required} missing"));
        };
        if required == "crc32_slice8" && *speedup < min_crc_speedup {
            fail(&format!(
                "{path}: crc32_slice8 speedup {speedup:.2} below required {min_crc_speedup:.2}"
            ));
        }
    }
    println!(
        "{path}: ok ({} kernels: {})",
        seen.len(),
        seen.iter()
            .map(|(k, s)| format!("{k} {s:.2}x"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
