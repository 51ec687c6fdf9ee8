//! Base58 with the Bitcoin alphabet (no 0/O/I/l), leading-zero aware.

use crate::DecodeError;

const ALPHABET: &[u8; 58] = b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz";

/// 58⁵, the radix of one `u32` limb: five Base58 digits per limb.
const LIMB: u64 = 58 * 58 * 58 * 58 * 58;

/// Encode bytes as Base58.
pub fn encode(data: &[u8]) -> String {
    // Leading zero bytes become leading '1's.
    let zeros = data.iter().take_while(|&&b| b == 0).count();
    let rest = &data[zeros..];
    // Little-endian limbs in base 58⁵, fed a group of up to four input bytes
    // (`shift` bits) per pass. The carry stays below 2^shift, so
    // `limb << shift | carry` is exact and, with a limb below 2³⁰, fits a u64.
    let mut limbs: Vec<u32> = Vec::with_capacity(rest.len() / 3 + 1);
    let head = match rest.len() % 4 {
        0 => 4.min(rest.len()),
        n => n,
    };
    let groups = std::iter::once(&rest[..head]).chain(rest[head..].chunks(4));
    for group in groups.filter(|g| !g.is_empty()) {
        let shift = 8 * group.len() as u32;
        let mut carry = group.iter().fold(0u64, |acc, &b| acc << 8 | b as u64);
        for limb in limbs.iter_mut() {
            let acc = (*limb as u64) << shift | carry;
            *limb = (acc % LIMB) as u32;
            carry = acc / LIMB;
        }
        while carry > 0 {
            limbs.push((carry % LIMB) as u32);
            carry /= LIMB;
        }
    }
    let mut out = String::with_capacity(zeros + limbs.len() * 5);
    out.extend(std::iter::repeat_n('1', zeros));
    // The top limb is never zero; it renders without leading zero digits,
    // every lower limb as exactly five.
    let mut digits = [0u8; 5];
    for (i, &limb) in limbs.iter().rev().enumerate() {
        let mut v = limb;
        for d in digits.iter_mut().rev() {
            *d = (v % 58) as u8;
            v /= 58;
        }
        let skip = if i == 0 {
            digits.iter().take_while(|&&d| d == 0).count()
        } else {
            0
        };
        out.extend(digits[skip..].iter().map(|&d| ALPHABET[d as usize] as char));
    }
    out
}

/// The byte-bignum encoder (one repeated divide-by-58 pass per output
/// digit): the differential reference for [`encode`].
pub fn encode_reference(data: &[u8]) -> String {
    // Leading zero bytes become leading '1's.
    let zeros = data.iter().take_while(|&&b| b == 0).count();
    // Repeated divide-by-58 over a big-endian byte bignum.
    let mut digits: Vec<u8> = Vec::new(); // base-58 digits, little-endian
    let mut num: Vec<u8> = data[zeros..].to_vec();
    while !num.is_empty() {
        let mut rem = 0u32;
        let mut next = Vec::with_capacity(num.len());
        for &byte in &num {
            let acc = rem * 256 + byte as u32;
            let q = acc / 58;
            rem = acc % 58;
            if !next.is_empty() || q != 0 {
                next.push(q as u8);
            }
        }
        digits.push(rem as u8);
        num = next;
    }
    let mut out = String::with_capacity(zeros + digits.len());
    out.extend(std::iter::repeat_n('1', zeros));
    out.extend(digits.iter().rev().map(|&d| ALPHABET[d as usize] as char));
    out
}

/// Decode Base58 text.
pub fn decode(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut rev = [255u8; 256];
    for (i, &c) in ALPHABET.iter().enumerate() {
        rev[c as usize] = i as u8;
    }
    let ones = data.iter().take_while(|&&b| b == b'1').count();
    let mut num: Vec<u8> = Vec::new(); // big-endian byte bignum
    for (i, &c) in data[ones..].iter().enumerate() {
        let v = rev[c as usize];
        if v == 255 {
            return Err(DecodeError::InvalidByte(ones + i));
        }
        // num = num * 58 + v
        let mut carry = v as u32;
        for byte in num.iter_mut().rev() {
            let acc = *byte as u32 * 58 + carry;
            *byte = acc as u8;
            carry = acc >> 8;
        }
        while carry > 0 {
            num.insert(0, carry as u8);
            carry >>= 8;
        }
    }
    let mut out = vec![0u8; ones];
    out.extend_from_slice(&num);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"Hello World!"), "2NEpo7TZRRrLZSi2U");
        assert_eq!(
            encode(b"The quick brown fox jumps over the lazy dog."),
            "USm3fpXnKG5EUBx2ndxBDMPVciP5hGey2Jh4NDv6gmeo1LkMeiKrLJUUBk6Z"
        );
        assert_eq!(encode(&[0x00, 0x00, 0x28, 0x7f, 0xb4, 0xcd]), "11233QC4");
    }

    #[test]
    fn leading_zeros_preserved() {
        let data = [0u8, 0, 0, 1, 2, 3];
        assert_eq!(decode(encode(&data).as_bytes()).unwrap(), data);
        assert!(encode(&data).starts_with("111"));
    }

    #[test]
    fn rejects_ambiguous_characters() {
        for c in ["0", "O", "I", "l"] {
            assert!(decode(c.as_bytes()).is_err(), "{c} should be rejected");
        }
    }

    #[test]
    fn all_zero_input() {
        assert_eq!(encode(&[0, 0]), "11");
        assert_eq!(decode(b"11").unwrap(), vec![0, 0]);
    }
}
