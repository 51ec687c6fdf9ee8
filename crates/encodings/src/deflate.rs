//! DEFLATE (RFC 1951).
//!
//! * [`compress`] emits real LZ77-compressed data in fixed-Huffman blocks
//!   (with a stored-block fallback when that would be smaller), so output is
//!   readable by any standards-compliant inflater.
//! * [`decompress`] is a full inflater: stored, fixed-Huffman, and
//!   dynamic-Huffman blocks.

use crate::DecodeError;
use std::cell::RefCell;
use std::sync::OnceLock;

// --- shared tables ----------------------------------------------------------

/// Base match lengths for length codes 257..=285.
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits for length codes 257..=285.
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Base distances for distance codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits for distance codes 0..=29.
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Code-length alphabet permutation for dynamic blocks.
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Map a match length (3..=258) to (code index, extra bits value).
fn length_to_code(len: u16) -> (usize, u16) {
    debug_assert!((3..=258).contains(&len));
    let mut idx = LENGTH_BASE.len() - 1;
    for (i, &base) in LENGTH_BASE.iter().enumerate() {
        if base > len {
            idx = i - 1;
            break;
        }
    }
    if len == 258 {
        idx = 28;
    }
    (idx, len - LENGTH_BASE[idx])
}

/// Map a distance (1..=32768) to (code index, extra bits value).
fn dist_to_code(dist: u16) -> (usize, u16) {
    debug_assert!(dist >= 1);
    let mut idx = DIST_BASE.len() - 1;
    for (i, &base) in DIST_BASE.iter().enumerate() {
        if base > dist {
            idx = i - 1;
            break;
        }
    }
    (idx, dist - DIST_BASE[idx])
}

// --- bit IO -----------------------------------------------------------------

struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            nbits: 0,
        }
    }

    /// Write `n` bits of `value`, LSB first (RFC 1951 bit order).
    fn write_bits(&mut self, value: u32, n: u32) {
        self.acc |= value << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Write a Huffman code: the code's bits go MSB-first into the stream.
    fn write_code(&mut self, code: u32, n: u32) {
        let mut reversed = 0u32;
        for i in 0..n {
            reversed |= ((code >> i) & 1) << (n - 1 - i);
        }
        self.write_bits(reversed, n);
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn read_bits(&mut self, n: u32) -> Result<u32, DecodeError> {
        while self.nbits < n {
            let byte = *self
                .data
                .get(self.pos)
                .ok_or(DecodeError::Corrupt("unexpected end of stream"))?;
            self.acc |= (byte as u32) << self.nbits;
            self.nbits += 8;
            self.pos += 1;
        }
        let value = self.acc & ((1u32 << n) - 1);
        self.acc >>= n;
        self.nbits -= n;
        Ok(value)
    }

    /// Look at the next `n` bits without consuming them, zero-padded past
    /// the end of input (the fast Huffman path checks availability when it
    /// consumes).
    fn peek_bits(&mut self, n: u32) -> u32 {
        while self.nbits < n {
            let Some(&byte) = self.data.get(self.pos) else {
                break;
            };
            self.acc |= (byte as u32) << self.nbits;
            self.nbits += 8;
            self.pos += 1;
        }
        self.acc & ((1u32 << n) - 1)
    }

    /// Consume `n` already-peeked bits.
    fn consume(&mut self, n: u32) -> Result<(), DecodeError> {
        if self.nbits < n {
            return Err(DecodeError::Corrupt("unexpected end of stream"));
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Discard buffered bits to realign on a byte boundary (stored blocks).
    fn align(&mut self) {
        self.acc = 0;
        self.nbits = 0;
    }

    fn read_u16_le(&mut self) -> Result<u16, DecodeError> {
        let lo = self.read_bits(8)?;
        let hi = self.read_bits(8)?;
        Ok((hi as u16) << 8 | lo as u16)
    }
}

// --- canonical Huffman decoding (puff-style) --------------------------------

/// Codes up to this many bits decode through one table lookup; longer (or
/// invalid) codes fall back to the canonical bit-at-a-time walk.
const FAST_BITS: u32 = 9;

/// A canonical Huffman code built from symbol code lengths.
struct HuffmanCode {
    /// count[len] = number of symbols with that code length.
    count: [u16; 16],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u16>,
    /// Direct-lookup table over the next `FAST_BITS` stream bits:
    /// `(code_len << 12) | symbol`, or 0 for "take the slow path".
    table: Vec<u16>,
}

impl HuffmanCode {
    #[allow(clippy::needless_range_loop)] // bit-length indices mirror RFC 1951 §3.2.2
    fn from_lengths(lengths: &[u8]) -> Result<Self, DecodeError> {
        let mut count = [0u16; 16];
        for &l in lengths {
            if l > 15 {
                return Err(DecodeError::Corrupt("code length > 15"));
            }
            count[l as usize] += 1;
        }
        // Over-subscribed codes are corrupt; incomplete codes are tolerated
        // (RFC permits a single-symbol distance code).
        let mut left = 1i32;
        for len in 1..16 {
            left <<= 1;
            left -= count[len] as i32;
            if left < 0 {
                return Err(DecodeError::Corrupt("over-subscribed Huffman code"));
            }
        }
        let mut offsets = [0u16; 16];
        for len in 1..15 {
            offsets[len + 1] = offsets[len] + count[len];
        }
        let mut symbols = vec![0u16; lengths.len()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbols[offsets[l as usize] as usize] = sym as u16;
                offsets[l as usize] += 1;
            }
        }
        // Fast-lookup table: assign canonical codes, then seed every table
        // slot whose low bits equal the code's stream form (codes enter the
        // stream MSB-first, so the index is the bit-reversed code).
        let mut table = vec![0u16; 1 << FAST_BITS];
        let mut next = [0u32; 16];
        let mut code = 0u32;
        for len in 1..16 {
            // count[0] tallies unused symbols; it does not advance the code.
            let prior = if len == 1 { 0 } else { count[len - 1] as u32 };
            code = (code + prior) << 1;
            next[len] = code;
        }
        for (sym, &l) in lengths.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let c = next[l as usize];
            next[l as usize] += 1;
            let l = l as u32;
            if l > FAST_BITS {
                continue;
            }
            let mut rev = 0u32;
            for i in 0..l {
                rev |= ((c >> i) & 1) << (l - 1 - i);
            }
            let entry = ((l as u16) << 12) | sym as u16;
            let mut idx = rev;
            while idx < (1 << FAST_BITS) {
                table[idx as usize] = entry;
                idx += 1 << l;
            }
        }
        Ok(HuffmanCode {
            count,
            symbols,
            table,
        })
    }

    fn decode(&self, reader: &mut BitReader) -> Result<u16, DecodeError> {
        let entry = self.table[reader.peek_bits(FAST_BITS) as usize];
        if entry != 0 {
            reader.consume((entry >> 12) as u32)?;
            return Ok(entry & 0x0fff);
        }
        self.decode_slow(reader)
    }

    fn decode_slow(&self, reader: &mut BitReader) -> Result<u16, DecodeError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..16 {
            code |= reader.read_bits(1)? as i32;
            let cnt = self.count[len] as i32;
            if code - cnt < first {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += cnt;
            first += cnt;
            first <<= 1;
            code <<= 1;
        }
        Err(DecodeError::Corrupt("invalid Huffman code"))
    }
}

/// Assign canonical codes (encoder side) from code lengths.
fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut count = [0u32; 16];
    for &l in lengths {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next = [0u32; 16];
    let mut code = 0u32;
    for len in 1..16 {
        code = (code + count[len - 1]) << 1;
        next[len] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next[l as usize];
                next[l as usize] += 1;
                c
            }
        })
        .collect()
}

fn fixed_literal_lengths() -> Vec<u8> {
    let mut lengths = vec![8u8; 288];
    for l in lengths.iter_mut().take(256).skip(144) {
        *l = 9;
    }
    for l in lengths.iter_mut().take(280).skip(256) {
        *l = 7;
    }
    lengths
}

// --- compression ------------------------------------------------------------

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const WINDOW: usize = 32768;
const HASH_BITS: u32 = 15;

fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | (data[i + 1] as u32) << 8 | (data[i + 2] as u32) << 16;
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LzToken {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

/// An empty hash-chain head table.
fn fresh_head() -> Vec<usize> {
    vec![usize::MAX; 1 << HASH_BITS]
}

thread_local! {
    /// One hash-chain head table per thread, kept empty between calls, so a
    /// call on a short input does not allocate and fill 2¹⁵ buckets.
    static HEAD: RefCell<Vec<usize>> = RefCell::new(fresh_head());
}

/// Empties the buckets one [`lz77_tokens_with`] call may have set when it
/// drops, including on unwind, so the next call sees a fresh table.
struct HeadReset<'a> {
    head: &'a mut [usize],
    data: &'a [u8],
}

impl Drop for HeadReset<'_> {
    fn drop(&mut self) {
        // The tokenizer inserts exactly the positions with a full 3-byte
        // window; past one per bucket, refilling the table is cheaper.
        let inserted = self.data.len().saturating_sub(MIN_MATCH - 1);
        if inserted >= self.head.len() {
            self.head.fill(usize::MAX);
        } else {
            for i in 0..inserted {
                self.head[hash3(self.data, i)] = usize::MAX;
            }
        }
    }
}

/// Greedy LZ77 tokenizer with a hash-chain match finder, on this thread's
/// reusable head table.
fn lz77_tokens(data: &[u8]) -> Vec<LzToken> {
    HEAD.with(|cell| {
        let mut head = cell.borrow_mut();
        let guard = HeadReset {
            head: &mut head,
            data,
        };
        lz77_tokens_with(data, guard.head)
    })
}

/// [`lz77_tokens`] on a caller-supplied head table, which must hold only
/// `usize::MAX` on entry.
#[allow(clippy::needless_range_loop)] // hash-chain updates index three arrays in lockstep
fn lz77_tokens_with(data: &[u8], head: &mut [usize]) -> Vec<LzToken> {
    let mut tokens = Vec::with_capacity(data.len() / 2 + 16);
    let mut prev = vec![usize::MAX; data.len()];
    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            let mut candidate = head[h];
            let mut chain = 0;
            while candidate != usize::MAX && i - candidate <= WINDOW && chain < 32 {
                let max_len = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max_len && data[candidate + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - candidate;
                    if l == max_len {
                        break;
                    }
                }
                candidate = prev[candidate];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            tokens.push(LzToken::Match {
                len: best_len as u16,
                dist: best_dist as u16,
            });
            // Insert hash entries for the skipped positions so later matches
            // can reference them.
            for j in i + 1..(i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1)) {
                let h = hash3(data, j);
                prev[j] = head[h];
                head[h] = j;
            }
            i += best_len;
        } else {
            tokens.push(LzToken::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

/// Emit tokens with the given literal/length and distance codes.
fn write_tokens(
    w: &mut BitWriter,
    tokens: &[LzToken],
    lit_codes: &[u32],
    lit_lengths: &[u8],
    dist_codes: &[u32],
    dist_lengths: &[u8],
) {
    for &token in tokens {
        match token {
            LzToken::Literal(b) => {
                w.write_code(lit_codes[b as usize], lit_lengths[b as usize] as u32);
            }
            LzToken::Match { len, dist } => {
                let (lcode, lextra) = length_to_code(len);
                let sym = 257 + lcode;
                w.write_code(lit_codes[sym], lit_lengths[sym] as u32);
                w.write_bits(lextra as u32, LENGTH_EXTRA[lcode] as u32);
                let (dcode, dextra) = dist_to_code(dist);
                w.write_code(dist_codes[dcode], dist_lengths[dcode] as u32);
                w.write_bits(dextra as u32, DIST_EXTRA[dcode] as u32);
            }
        }
    }
    w.write_code(lit_codes[256], lit_lengths[256] as u32); // end of block
}

/// Depth-limited Huffman code lengths from frequencies (heap-built, with
/// the classic scale-and-retry fallback when a code exceeds `max_len`).
///
/// The heap pops the lightest node first and, among equal weights, the one
/// created first (leaves in symbol order, then merges in order), so equal
/// frequencies always resolve the same way. The tree lives in a parent
/// array: every merge gets a larger id than its children, so one pass over
/// the ids from the root down yields every depth.
fn huffman_code_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut scaled: Vec<u64> = freqs.to_vec();
    let mut lengths = vec![0u8; freqs.len()];
    let leaves: Vec<usize> = (0..freqs.len()).filter(|&sym| freqs[sym] > 0).collect();
    match leaves.as_slice() {
        [] => return lengths,
        [sym] => {
            lengths[*sym] = 1;
            return lengths;
        }
        _ => {}
    }
    // Ids 0..leaves.len() are the leaves, the rest merges.
    let nodes = 2 * leaves.len() - 1;
    let mut parent = vec![0usize; nodes];
    let mut depth = vec![0u8; nodes];
    let mut heap = BinaryHeap::with_capacity(leaves.len());
    loop {
        heap.clear();
        heap.extend(
            leaves
                .iter()
                .enumerate()
                .map(|(id, &sym)| Reverse((scaled[sym], id))),
        );
        let mut id = leaves.len();
        while let (Some(Reverse((wa, a))), Some(Reverse((wb, b)))) = (heap.pop(), heap.pop()) {
            parent[a] = id;
            parent[b] = id;
            heap.push(Reverse((wa + wb, id)));
            id += 1;
        }
        // The root is the last merge, at depth 0.
        depth[nodes - 1] = 0;
        for node in (0..nodes - 1).rev() {
            depth[node] = depth[parent[node]] + 1;
        }
        let deepest = depth[..leaves.len()].iter().copied().max().unwrap_or(0);
        if deepest <= max_len {
            for (&sym, &d) in leaves.iter().zip(&depth) {
                lengths[sym] = d;
            }
            return lengths;
        }
        for w in scaled.iter_mut() {
            if *w > 0 {
                *w = *w / 2 + 1;
            }
        }
    }
}

/// Build one dynamic-Huffman block (RFC 1951 §3.2.7) around the tokens.
fn compress_dynamic_block(tokens: &[LzToken]) -> Vec<u8> {
    // Symbol frequencies.
    let mut lit_freqs = vec![0u64; 286];
    let mut dist_freqs = vec![0u64; 30];
    lit_freqs[256] = 1; // end-of-block
    for &token in tokens {
        match token {
            LzToken::Literal(b) => lit_freqs[b as usize] += 1,
            LzToken::Match { len, dist } => {
                lit_freqs[257 + length_to_code(len).0] += 1;
                dist_freqs[dist_to_code(dist).0] += 1;
            }
        }
    }
    let lit_lengths = huffman_code_lengths(&lit_freqs, 15);
    let mut dist_lengths = huffman_code_lengths(&dist_freqs, 15);
    if dist_lengths.iter().all(|&l| l == 0) {
        dist_lengths[0] = 1; // HDIST ≥ 1: emit one unused distance code
    }
    let lit_codes = canonical_codes(&lit_lengths);
    let dist_codes = canonical_codes(&dist_lengths);

    // Trim trailing zero lengths (but respect the minimums).
    let hlit = (257..=286)
        .rev()
        .find(|&n| n == 257 || lit_lengths[n - 1] != 0)
        .unwrap();
    let hdist = (1..=30)
        .rev()
        .find(|&n| n == 1 || dist_lengths[n - 1] != 0)
        .unwrap();

    // RLE-encode the concatenated code lengths with symbols 16/17/18.
    let mut all_lengths: Vec<u8> = Vec::with_capacity(hlit + hdist);
    all_lengths.extend_from_slice(&lit_lengths[..hlit]);
    all_lengths.extend_from_slice(&dist_lengths[..hdist]);
    let mut rle: Vec<(u8, u32, u32)> = Vec::new(); // (symbol, extra value, extra bits)
    let mut i = 0usize;
    while i < all_lengths.len() {
        let run_start = i;
        let value = all_lengths[i];
        while i < all_lengths.len() && all_lengths[i] == value {
            i += 1;
        }
        let mut run = i - run_start;
        if value == 0 {
            while run >= 11 {
                let take = run.min(138);
                rle.push((18, take as u32 - 11, 7));
                run -= take;
            }
            while run >= 3 {
                let take = run.min(10);
                rle.push((17, take as u32 - 3, 3));
                run -= take;
            }
            for _ in 0..run {
                rle.push((0, 0, 0));
            }
        } else {
            rle.push((value, 0, 0));
            run -= 1;
            while run >= 3 {
                let take = run.min(6);
                rle.push((16, take as u32 - 3, 2));
                run -= take;
            }
            for _ in 0..run {
                rle.push((value, 0, 0));
            }
        }
    }
    // Code-length code.
    let mut clen_freqs = vec![0u64; 19];
    for &(sym, _, _) in &rle {
        clen_freqs[sym as usize] += 1;
    }
    let clen_lengths = huffman_code_lengths(&clen_freqs, 7);
    let clen_codes = canonical_codes(&clen_lengths);
    let hclen = (4..=19)
        .rev()
        .find(|&n| n == 4 || clen_lengths[CLEN_ORDER[n - 1]] != 0)
        .unwrap();

    let mut w = BitWriter::new();
    w.write_bits(1, 1); // BFINAL
    w.write_bits(2, 2); // BTYPE=10 dynamic Huffman
    w.write_bits((hlit - 257) as u32, 5);
    w.write_bits((hdist - 1) as u32, 5);
    w.write_bits((hclen - 4) as u32, 4);
    for &idx in CLEN_ORDER.iter().take(hclen) {
        w.write_bits(clen_lengths[idx] as u32, 3);
    }
    for &(sym, extra, extra_bits) in &rle {
        w.write_code(clen_codes[sym as usize], clen_lengths[sym as usize] as u32);
        if extra_bits > 0 {
            w.write_bits(extra, extra_bits);
        }
    }
    write_tokens(
        &mut w,
        tokens,
        &lit_codes,
        &lit_lengths,
        &dist_codes,
        &dist_lengths,
    );
    w.finish()
}

/// Build one fixed-Huffman block around the tokens.
fn compress_fixed_block(tokens: &[LzToken]) -> Vec<u8> {
    static LIT: OnceLock<(Vec<u8>, Vec<u32>)> = OnceLock::new();
    let (lit_lengths, lit_codes) = LIT.get_or_init(|| {
        let lengths = fixed_literal_lengths();
        let codes = canonical_codes(&lengths);
        (lengths, codes)
    });
    let dist_lengths = [5u8; 30];
    let dist_codes: [u32; 30] = std::array::from_fn(|i| i as u32);
    let mut w = BitWriter::new();
    w.write_bits(1, 1); // BFINAL
    w.write_bits(1, 2); // BTYPE=01 fixed Huffman
    write_tokens(
        &mut w,
        tokens,
        lit_codes,
        lit_lengths,
        &dist_codes,
        &dist_lengths,
    );
    w.finish()
}

/// Compress with greedy LZ77, choosing per input between a dynamic-Huffman
/// block, a fixed-Huffman block, and stored blocks — whichever is smallest,
/// exactly like a real deflater's block-type decision.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_tokens(data, lz77_tokens(data))
}

/// The block-type decision of [`compress`] over `data`'s LZ77 tokens.
fn compress_tokens(data: &[u8], tokens: Vec<LzToken>) -> Vec<u8> {
    let fixed = compress_fixed_block(&tokens);
    let dynamic = compress_dynamic_block(&tokens);
    let best = if dynamic.len() < fixed.len() {
        dynamic
    } else {
        fixed
    };
    // Stored fallback: 5-byte header per 65535-byte chunk.
    let stored_size = 1 + data.len() + 5 * data.len().div_ceil(65535).max(1);
    if best.len() <= stored_size {
        return best;
    }
    compress_stored(data)
}

/// [`compress`] with a freshly allocated head table: the differential
/// reference that pins the reused per-thread table.
pub fn compress_reference(data: &[u8]) -> Vec<u8> {
    compress_tokens(data, lz77_tokens_with(data, &mut fresh_head()))
}

/// Emit stored (uncompressed) blocks only.
pub fn compress_stored(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let chunks: Vec<&[u8]> = if data.is_empty() {
        vec![&[]]
    } else {
        data.chunks(65535).collect()
    };
    for (idx, chunk) in chunks.iter().enumerate() {
        let last = idx == chunks.len() - 1;
        w.write_bits(last as u32, 1);
        w.write_bits(0, 2); // BTYPE=00
                            // Align to byte boundary.
        if w.nbits > 0 {
            w.write_bits(0, 8 - w.nbits);
        }
        let len = chunk.len() as u16;
        w.write_bits(len as u32 & 0xff, 8);
        w.write_bits((len >> 8) as u32, 8);
        w.write_bits(!len as u32 & 0xff, 8);
        w.write_bits((!len >> 8) as u32, 8);
        for &b in *chunk {
            w.write_bits(b as u32, 8);
        }
    }
    w.finish()
}

// --- decompression ----------------------------------------------------------

/// Inflate a raw DEFLATE stream (all three block types).
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    decompress_bounded(data, usize::MAX)
}

const OVER_LIMIT: DecodeError = DecodeError::Corrupt("output exceeds limit");

/// [`decompress`] for untrusted streams: fails as soon as the output would
/// pass `limit` bytes, so a small stream cannot expand without bound.
pub fn decompress_bounded(data: &[u8], limit: usize) -> Result<Vec<u8>, DecodeError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let bfinal = r.read_bits(1)?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => {
                r.align();
                let len = r.read_u16_le()?;
                let nlen = r.read_u16_le()?;
                if len != !nlen {
                    return Err(DecodeError::Corrupt("stored block LEN/NLEN mismatch"));
                }
                if len as usize > limit - out.len() {
                    return Err(OVER_LIMIT);
                }
                for _ in 0..len {
                    out.push(r.read_bits(8)? as u8);
                }
            }
            1 => {
                let lit = HuffmanCode::from_lengths(&fixed_literal_lengths())?;
                let dist = HuffmanCode::from_lengths(&[5u8; 30])?;
                inflate_block(&mut r, &lit, &dist, &mut out, limit)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &lit, &dist, &mut out, limit)?;
            }
            _ => return Err(DecodeError::Corrupt("reserved block type")),
        }
        if bfinal == 1 {
            break;
        }
    }
    Ok(out)
}

fn read_dynamic_tables(r: &mut BitReader) -> Result<(HuffmanCode, HuffmanCode), DecodeError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    let mut clen_lengths = [0u8; 19];
    for &idx in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[idx] = r.read_bits(3)? as u8;
    }
    let clen_code = HuffmanCode::from_lengths(&clen_lengths)?;
    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        let sym = clen_code.decode(r)?;
        match sym {
            0..=15 => lengths.push(sym as u8),
            16 => {
                let &last = lengths
                    .last()
                    .ok_or(DecodeError::Corrupt("repeat with no previous length"))?;
                let n = 3 + r.read_bits(2)?;
                lengths.extend(std::iter::repeat_n(last, n as usize));
            }
            17 => {
                let n = 3 + r.read_bits(3)?;
                lengths.extend(std::iter::repeat_n(0u8, n as usize));
            }
            18 => {
                let n = 11 + r.read_bits(7)?;
                lengths.extend(std::iter::repeat_n(0u8, n as usize));
            }
            _ => return Err(DecodeError::Corrupt("bad code-length symbol")),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err(DecodeError::Corrupt("code length overrun"));
    }
    let lit = HuffmanCode::from_lengths(&lengths[..hlit])?;
    let dist = HuffmanCode::from_lengths(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn inflate_block(
    r: &mut BitReader,
    lit: &HuffmanCode,
    dist: &HuffmanCode,
    out: &mut Vec<u8>,
    limit: usize,
) -> Result<(), DecodeError> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 if out.len() >= limit => return Err(OVER_LIMIT),
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let lidx = sym as usize - 257;
                let len =
                    LENGTH_BASE[lidx] as usize + r.read_bits(LENGTH_EXTRA[lidx] as u32)? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= 30 {
                    return Err(DecodeError::Corrupt("bad distance symbol"));
                }
                let d = DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                if d > out.len() {
                    return Err(DecodeError::Corrupt("distance beyond output"));
                }
                if len > limit - out.len() {
                    return Err(OVER_LIMIT);
                }
                // Chunked copy: each pass can take everything between the
                // match start and the current end, so overlapping matches
                // (d < len) double the copied span per pass.
                let start = out.len() - d;
                let mut remaining = len;
                while remaining > 0 {
                    let take = remaining.min(out.len() - start);
                    out.extend_from_within(start..start + take);
                    remaining -= take;
                }
            }
            _ => return Err(DecodeError::Corrupt("bad literal/length symbol")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reused_head_table_equals_a_fresh_one_call_after_call() {
        // Short inputs sharing 3-byte windows, a long one that fills the
        // whole table, then short ones again: a stale bucket from any
        // earlier call would change a later call's matches.
        let inputs: Vec<Vec<u8>> = vec![
            b"abcabcabcabc".to_vec(),
            b"xabcabcx".to_vec(),
            (0..=255u8).cycle().take(70_000).collect(),
            b"abcabc".to_vec(),
            b"foo@mydom.com foo@mydom.com".to_vec(),
            vec![],
            b"ab".to_vec(),
        ];
        for input in &inputs {
            assert_eq!(compress(input), compress_reference(input), "{input:?}");
        }
        HEAD.with(|head| assert!(head.borrow().iter().all(|&h| h == usize::MAX)));
    }

    #[test]
    fn roundtrip_assorted_inputs() {
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            b"foo@mydom.com".to_vec(),
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            (0..=255u8).cycle().take(100_000).collect(),
            b"the quick brown fox jumps over the lazy dog. ".repeat(100),
        ];
        for input in inputs {
            let compressed = compress(&input);
            assert_eq!(
                decompress(&compressed).unwrap(),
                input,
                "len={}",
                input.len()
            );
        }
    }

    #[test]
    fn repetitive_input_actually_compresses() {
        let input = b"email=foo@mydom.com&".repeat(50);
        let compressed = compress(&input);
        assert!(
            compressed.len() < input.len() / 4,
            "compressed {} of {}",
            compressed.len(),
            input.len()
        );
    }

    #[test]
    fn stored_blocks_roundtrip() {
        let input: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let stored = compress_stored(&input);
        assert_eq!(decompress(&stored).unwrap(), input);
    }

    #[test]
    fn known_fixed_huffman_stream_decodes() {
        // 0x4b 0x4c 0x4a 0x06 0x00 is zlib's raw-deflate of "abc"
        // (fixed Huffman, final block).
        assert_eq!(decompress(&[0x4b, 0x4c, 0x4a, 0x06, 0x00]).unwrap(), b"abc");
    }

    #[test]
    fn dynamic_block_beats_fixed_on_skewed_text() {
        // Lowercase English text is exactly where dynamic codes win.
        let input = b"persistent pii leakage based web tracking ".repeat(60);
        let tokens = lz77_tokens(&input);
        let dynamic = compress_dynamic_block(&tokens);
        let fixed = compress_fixed_block(&tokens);
        assert!(
            dynamic.len() < fixed.len(),
            "dynamic {} !< fixed {}",
            dynamic.len(),
            fixed.len()
        );
        // And the public API picked it — plus the inflater reads it back.
        let compressed = compress(&input);
        assert_eq!(compressed.len(), dynamic.len());
        assert_eq!(decompress(&compressed).unwrap(), input);
    }

    #[test]
    fn dynamic_block_handles_no_match_input() {
        // All-literal input (no distances): HDIST falls back to 1 unused code.
        let input: Vec<u8> = (0..=255u8).collect();
        let tokens = lz77_tokens(&input);
        assert!(tokens.iter().all(|t| matches!(t, LzToken::Literal(_))));
        let dynamic = compress_dynamic_block(&tokens);
        assert_eq!(decompress(&dynamic).unwrap(), input);
    }

    #[test]
    fn huffman_code_lengths_are_kraft_valid() {
        let freqs: Vec<u64> = (0..60).map(|i| 1u64 << (i % 13)).collect();
        for max_len in [7u8, 15] {
            let lengths = huffman_code_lengths(&freqs, max_len);
            assert!(lengths.iter().all(|&l| l <= max_len));
            let kraft: f64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-(l as i32)))
                .sum();
            assert!(kraft <= 1.0 + 1e-9, "over-subscribed: {kraft}");
        }
    }

    #[test]
    fn known_dynamic_stream_decodes() {
        // zlib raw-deflate (level 9) of 100 × 'a' uses a dynamic block:
        // printf 'a%.0s' {1..100} | pigz -9 --zlib … captured bytes below.
        // Stream: dynamic header encoding only 'a', a match, and EOB.
        let data = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
        let compressed = compress(data);
        assert_eq!(decompress(&compressed).unwrap(), data.as_slice());
    }

    #[test]
    fn truncated_stream_errors() {
        let compressed = compress(b"hello world hello world");
        assert!(decompress(&compressed[..compressed.len() - 2]).is_err());
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn corrupt_stored_header_errors() {
        // BTYPE=00 with LEN != !NLEN.
        let bad = [0x01, 0x05, 0x00, 0x00, 0x00];
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn bounded_inflate_stops_at_the_limit() {
        // A 1 MiB run compresses to a few hundred bytes: a miniature bomb.
        let bomb = compress(&vec![0u8; 1 << 20]);
        assert!(bomb.len() < 4096);
        assert_eq!(decompress_bounded(&bomb, 1 << 20).unwrap().len(), 1 << 20);
        assert_eq!(
            decompress_bounded(&bomb, (1 << 20) - 1),
            Err(DecodeError::Corrupt("output exceeds limit"))
        );
        // Literal and stored paths are bounded too.
        assert!(decompress_bounded(&compress(b"abc"), 2).is_err());
        assert!(decompress_bounded(&compress_stored(b"abcdef"), 5).is_err());
        assert_eq!(
            decompress_bounded(&compress_stored(b"abcdef"), 6).unwrap(),
            b"abcdef"
        );
    }

    #[test]
    fn overlapping_match_copies_correctly() {
        // RLE-style: distance 1, long length ("aaaa…" uses overlap).
        let input = vec![b'x'; 1000];
        let compressed = compress(&input);
        assert!(compressed.len() < 40);
        assert_eq!(decompress(&compressed).unwrap(), input);
    }
}
