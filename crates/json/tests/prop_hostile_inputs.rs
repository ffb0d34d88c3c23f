//! The golden gate's file format under hostile input: `Json::parse`
//! returns `Ok` or `Err` on any bytes and never panics, and what the
//! emitter writes parses back to the value it was given.
//!
//! Seeded and dependency-free like the rest of the workspace: a
//! splitmix64 stream drives every case, so a failure names its case
//! number and reruns exactly.

use ddc_json::Json;

/// A real report of the golden set (18 kB, nested objects, arrays of
/// floats): the mutation corpus.
const REPORT: &str = include_str!("../../../results/fig4a.json");

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Parses whatever text the bytes hold (`parse` takes `&str`, so bytes
/// that are not UTF-8 are replaced the way a lossy file read would).
fn parse_bytes(bytes: &[u8]) -> Result<Json, ddc_json::JsonError> {
    Json::parse(&String::from_utf8_lossy(bytes))
}

#[test]
fn arbitrary_bytes_never_panic_the_parser() {
    let mut rng = Rng(0xA5B1);
    // Bytes the grammar cares about, so random input gets past the
    // first character often enough to reach every parser state.
    let alphabet = b"{}[]\",:\\ntrufalse0123456789.-+eE \n\t\x00\x7f\xc3\xa9\xed\xa0\x80u";
    for case in 0..4_000u64 {
        let len = rng.below(96) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if case % 2 == 0 {
                    alphabet[rng.below(alphabet.len() as u64) as usize]
                } else {
                    rng.next() as u8
                }
            })
            .collect();
        let _ = parse_bytes(&bytes);
    }
}

#[test]
fn truncations_and_bit_flips_of_a_real_report_never_panic() {
    Json::parse(REPORT).expect("the committed report parses");
    let bytes = REPORT.trim_end().as_bytes();
    let mut rng = Rng(0x7F1A);
    for _ in 0..400 {
        let cut = rng.below(bytes.len() as u64) as usize;
        if let Ok(prefix) = std::str::from_utf8(&bytes[..cut]) {
            assert!(
                Json::parse(prefix).is_err(),
                "a strict prefix ({cut} of {} bytes) parsed",
                bytes.len()
            );
        }
        let mut flipped = bytes.to_vec();
        for _ in 0..=rng.below(3) {
            let at = rng.below(bytes.len() as u64) as usize;
            flipped[at] ^= 1 << rng.below(8);
        }
        // A flip that lands in a digit or a key is still JSON, so there
        // is no verdict to assert: only that there is one.
        let _ = parse_bytes(&flipped);
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"k\":"] {
        let deep = open.repeat(200_000);
        assert!(Json::parse(&deep).is_err());
    }
    // What the reports actually nest (a handful of levels) is nowhere
    // near the limit.
    let mut ok = "0".to_owned();
    for _ in 0..100 {
        ok = format!("[{ok}]");
    }
    assert!(Json::parse(&ok).is_ok());
}

fn gen_string(rng: &mut Rng) -> String {
    let pool = [
        "",
        "a",
        "key",
        "\"",
        "\\",
        "/",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "✓",
        "\u{10348}",
        " ",
        "\\u0041",
        "{}",
    ];
    (0..rng.below(5))
        .map(|_| pool[rng.below(pool.len() as u64) as usize])
        .collect()
}

fn gen_number(rng: &mut Rng) -> f64 {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    match rng.below(8) {
        0 => 0.0,
        1 => -0.0,
        2 => TWO_53,
        3 => -TWO_53,
        4 => TWO_53 - 1.0,
        // Integers across the whole exactly-representable range.
        5 => (rng.next() >> 11) as f64,
        6 => -((rng.next() >> rng.below(64)) as f64),
        // Any finite double, by bit pattern.
        _ => loop {
            let x = f64::from_bits(rng.next());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn gen_value(rng: &mut Rng, depth: u32) -> Json {
    let leaf_only = depth == 0;
    match rng.below(if leaf_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Num(gen_number(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => Json::Arr(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn emit_then_parse_is_the_identity_and_emit_is_a_fixed_point() {
    let mut rng = Rng(0x0D15_EA5E);
    for case in 0..3_000 {
        let value = gen_value(&mut rng, 4);
        for text in [value.to_string_pretty(), value.to_string_compact()] {
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, value, "case {case}: {text}");
        }
        let pretty = value.to_string_pretty();
        let again = Json::parse(&pretty)
            .expect("parsed above")
            .to_string_pretty();
        assert_eq!(again, pretty, "case {case}");
    }
    // The empty containers, which no generated case is guaranteed to hit
    // at top level.
    for text in ["[]", "{}"] {
        let v = Json::parse(text).expect("empty container");
        assert_eq!(v.to_string_pretty(), text);
        assert_eq!(v.to_string_compact(), text);
    }
}
