//! Hostile-input properties of the wire protocol: generated and
//! byte-mutated request lines never panic `Request::parse` or
//! `Json::parse` (each returns `Ok` or `Err`), and every value the
//! encoder can produce parses back to itself.

use sp_serve::{Json, Request};
use sp_testkit::{check, gen_vec, SmallRng};

/// Deepest nesting the parser accepts (`json.rs`, `MAX_DEPTH`).
const MAX_DEPTH: usize = 128;

/// Request lines in the shapes clients send: the mutation seeds.
const SEEDS: &[&str] = &[
    r#"{"type":"ping"}"#,
    r#"{"id":7,"type":"sweep","bench":"em3d","scale":"test","rp":0.5,"distances":[2,4,8],"cache":"scaled","l2_kb":256,"ways":16,"line":64,"hw_prefetch":true,"prefetcher":"streamer+dpl","blocking_helper":true,"passes":1,"timeout_ms":30000}"#,
    r#"{"type":"point","bench":"mcf","distance":8,"events":true}"#,
    r#"{"type":"sweep","bench":"hashjoin","prefetcher":"pointer-chase","epochs":true,"lanes":4}"#,
    r#"{"type":"affinity","bench":"mst","scale":"test"}"#,
    r#"{"type":"burn","ms":50}"#,
    r#"{"id":"req-é\n","type":"stats"}"#,
    r#"{"type":"metrics"}"#,
];

/// Characters strings are drawn from: every escape the encoder emits,
/// other control characters, and multi-byte text.
const CHARS: &str =
    "aZ0 \"\\/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}éß€中\u{2028}\u{fffd}😀\u{10ffff}";

/// Finite numbers at the edges of the encoder's formats: signed zero,
/// the smallest normal and subnormal, the largest, a non-dyadic
/// fraction, and an integer past the exact-integer range.
const EDGE_NUMBERS: &str = "0 -0 2.2250738585072014e-308 5e-324 1.7976931348623157e308 \
                            -1.7976931348623157e308 0.1 1e21";

/// Every key the protocol reads, plus the removed `lanes`.
const KEYS: &str = "id bench scale rp distances distance cache l2_kb ways line prefetcher \
                    hw_prefetch blocking_helper passes events epochs timeout_ms ms lanes";

/// Request types, plus one the daemon does not know.
const TYPES: &str = "sweep point affinity burn ping stats metrics warp";

/// A uniformly chosen element of `items`.
fn pick<T: Copy>(rng: &mut SmallRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A uniformly chosen word of a space-separated list.
fn pick_word(rng: &mut SmallRng, words: &'static str) -> &'static str {
    pick(rng, &words.split_whitespace().collect::<Vec<_>>())
}

fn gen_string(rng: &mut SmallRng) -> String {
    gen_vec(rng, 0..12, |r| {
        if r.gen_bool(0.2) {
            // Any Unicode scalar value.
            let c = r.gen_range(0u32..=0x10_FFFF);
            char::from_u32(c).unwrap_or('\u{fffd}')
        } else {
            pick(r, &CHARS.chars().collect::<Vec<_>>())
        }
    })
    .into_iter()
    .collect()
}

/// A finite number: small integers, exact-range integers, fractions,
/// extreme magnitudes, and arbitrary finite bit patterns.
fn gen_number(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => rng.gen_range(0u64..2000) as f64 - 1000.0,
        1 => (rng.next_u64() >> 11) as f64 * if rng.gen_bool(0.5) { -1.0 } else { 1.0 },
        2 => rng.gen_f64() * 1e6 - 5e5,
        3 => pick_word(rng, EDGE_NUMBERS).parse().unwrap(),
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn gen_key(rng: &mut SmallRng) -> String {
    if rng.gen_bool(0.5) {
        pick_word(rng, KEYS).to_string()
    } else {
        gen_string(rng)
    }
}

/// A JSON value with at most `depth` levels of arrays and objects.
fn gen_json(rng: &mut SmallRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 4u32 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(gen_number(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => Json::Arr(gen_vec(rng, 0..4, |r| gen_json(r, depth - 1))),
        _ => Json::Obj(gen_vec(rng, 0..4, |r| (gen_key(r), gen_json(r, depth - 1)))),
    }
}

/// `leaf` wrapped in `levels` alternating arrays and objects.
fn nest(rng: &mut SmallRng, leaf: Json, levels: usize) -> Json {
    (0..levels).fold(leaf, |inner, _| {
        if rng.gen_bool(0.5) {
            Json::Arr(vec![inner])
        } else {
            Json::Obj(vec![(gen_key(rng), inner)])
        }
    })
}

/// One random edit of a request line's bytes.
fn mutate(rng: &mut SmallRng, bytes: &mut Vec<u8>) {
    const INTERESTING: &[u8] = b"{}[]\",:\\0123456789-+.eE tnfu\n\x00\x7f\xc3\xa9\xff";
    let at = rng.gen_range(0..=bytes.len());
    match rng.gen_range(0..6u32) {
        0 => bytes.insert(at, pick(rng, INTERESTING)),
        1 => bytes.insert(at, rng.next_u64() as u8),
        2 if at < bytes.len() => {
            bytes.remove(at);
        }
        3 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        4 => bytes.truncate(at),
        _ => {
            // Splice in a copy of another stretch of the line.
            let from = rng.gen_range(0..=bytes.len());
            let to = rng.gen_range(from..=bytes.len().min(from + 16));
            let chunk = bytes[from..to].to_vec();
            bytes.splice(at..at, chunk);
        }
    }
}

/// The hostile-input contract for one line: neither parser panics, and
/// anything `Json::parse` accepts re-encodes to a fixed point.
fn survives(line: &str) {
    if let Ok(v) = Json::parse(line) {
        assert_eq!(Json::parse(&v.encode()), Ok(v), "re-encode of {line:?}");
    }
    if let Ok(req) = Request::parse(line) {
        let _ = (req.kind(), req.cache_key());
    }
}

#[test]
fn generated_values_roundtrip_through_the_encoder() {
    check(2000, |rng| {
        // Up to four levels of generated structure under a chain of up
        // to 124 more, so some values sit exactly at the nesting cap.
        let inner = gen_json(rng, 4);
        let levels = rng.gen_range(0..=MAX_DEPTH - 4);
        let v = nest(rng, inner, levels);
        assert_eq!(Json::parse(&v.encode()), Ok(v));
    });
}

#[test]
fn mutated_request_lines_never_panic() {
    check(3000, |rng| {
        let mut bytes = SEEDS[rng.gen_range(0..SEEDS.len())].as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..6u32) {
            mutate(rng, &mut bytes);
        }
        // The daemon rejects invalid UTF-8 before parsing; decode the
        // way a lenient client library would.
        survives(&String::from_utf8_lossy(&bytes));
    });
}

#[test]
fn generated_request_objects_never_panic() {
    check(2000, |rng| {
        // Protocol keys with values of arbitrary type and size.
        let mut fields = vec![("type".to_string(), Json::str(pick_word(rng, TYPES)))];
        for _ in 0..rng.gen_range(0..8u32) {
            fields.push((pick_word(rng, KEYS).to_string(), gen_json(rng, 2)));
        }
        survives(&Json::Obj(fields).encode());
    });
}

#[test]
fn overdeep_and_oversized_lines_are_errors_not_crashes() {
    let deep = format!(
        "{}1{}",
        "[".repeat(MAX_DEPTH + 1),
        "]".repeat(MAX_DEPTH + 1)
    );
    assert!(Json::parse(&deep).is_err());
    assert!(Request::parse(&deep).is_err());
    // A megabyte-long string parses in one linear pass.
    let long = format!("{{\"type\":\"ping\",\"id\":\"{}\"}}", "é".repeat(1 << 19));
    assert!(Request::parse(&long).is_ok());
    for line in ["1e999", "[-1e999]", "{\"type\":\"burn\",\"ms\":1e999}"] {
        assert!(Json::parse(line).is_err(), "{line}");
        assert!(Request::parse(line).is_err(), "{line}");
    }
}
