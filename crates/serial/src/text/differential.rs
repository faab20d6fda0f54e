//! Differential properties: the shipping text codec ([`super`]) against
//! the per-`char` original ([`super::reference`]).
//!
//! `to_text` must emit the reference's bytes for every [`Value`];
//! `from_text` must return the reference's `Value`, or fail at the
//! reference's offset, for every `&str` — well-formed, cut short,
//! spliced, or plain noise. Nothing generated here nests deeper than
//! [`crate::MAX_DEPTH`], the one place the two are meant to differ (one
//! property goes past it, without the oracle). A panic in either codec
//! fails the property it happens in, so the decoder properties are the
//! text codec's never-panics suite as well.
//!
//! The shipping decoders share one key list between sibling maps
//! ([`crate::keys`]), the text decoder reads a record spelt exactly like
//! its predecessor by a path of its own (`Parser::same_shape`), and the
//! encoder spells a shared key list once (`KeyRuns`); the reference does
//! none of these, so the record-batch properties and tables at the end
//! are also the proof that all three are invisible.

use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use proptest::prelude::*;

use super::{find_special, from_text, is_special, reference, to_text};
use crate::payload::{Payload, PayloadKind};
use crate::{Record, Value};

/// Splitmix generator, so shapes derive deterministically from the
/// proptest-provided seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }
}

/// Everything the codec treats specially — escapes, control bytes,
/// structure, number and keyword characters — and multi-byte scalars of
/// every encoded length.
const CHARS: &[char] = &[
    'a', 'Z', '0', '9', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
    'é', '☃', '𝕏', ':', ',', '{', '}', '[', ']', '\'', 'x', 'u', 'n', 'f', 'i', '+', '-', '.', 'e',
    'E',
];

/// A string that is either dense with special characters or a long plain
/// run with a few of them, so both the block scan and the byte-wise tail
/// of `find_special` meet specials at every alignment.
fn string_of(rng: &mut Mix, max_len: usize) -> String {
    let len = rng.below(max_len + 1);
    let dense = rng.below(2) == 0;
    (0..len)
        .map(|_| if dense || rng.below(24) == 0 { rng.pick(CHARS) } else { rng.pick(&['q', 'é']) })
        .collect()
}

/// A float from one of the families `write_f64` tells apart.
fn float_of(rng: &mut Mix) -> f64 {
    let digits = (rng.next() % 10u64.pow(rng.below(16) as u32 + 1)) as f64;
    let x = match rng.below(8) {
        0 => digits,
        1 => digits / 10.0,
        2 => digits / 100.0,
        3 => digits / 10f64.powi(rng.below(9) as i32),
        4 => f64::from_bits(rng.next()),
        5 => (digits / 100.0).next_up(),
        6 => rng.pick(&[0.0, 1e15, 1e-5, 1e12, f64::INFINITY, f64::MAX, f64::MIN_POSITIVE]),
        _ => rng.next() as i64 as f64 / 997.0,
    };
    // NaN is written but never parsed back, and is not equal to itself.
    let x = if x.is_nan() { 0.5 } else { x };
    if rng.below(2) == 0 { -x } else { x }
}

/// A random value tree of at most `depth` levels.
fn value_of(rng: &mut Mix, depth: usize) -> Value {
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => rng.pick(&[Value::Null, Value::Bool(true), Value::Bool(false)]),
        1 => Value::I64(rng.next() as i64 >> rng.below(64)),
        2 => rng.pick(&[Value::I64(i64::MIN), Value::I64(i64::MAX), Value::I64(0)]),
        3 => Value::F64(float_of(rng)),
        4 => Value::Str(string_of(rng, 96)),
        5 => Value::Bytes(Bytes::from((0..rng.below(80)).map(|_| rng.next() as u8).collect::<Vec<_>>())),
        6 => Value::list((0..rng.below(6)).map(|_| value_of(rng, depth - 1))),
        _ => Value::map((0..rng.below(6)).map(|_| (string_of(rng, 12), value_of(rng, depth - 1)))),
    }
}

/// Keys that try to fool a by-position cache: prefixes of one another,
/// the empty key, multi-byte scalars of every width, and keys whose text
/// form is escaped — among them the six characters `\u0041`, which is
/// how a document may spell the key `A`.
const KEYS: &[&str] = &[
    "id", "ids", "i", "", "ts", "é", "éé", "☃", "𝕏", "a\"b", "a", "b", "back\\slash", "line\nbreak",
    "\u{1}", "\\u0041", "A", "lane", "lane ", "speed",
];

/// A field of a record: mostly a number of either sign, integer or float
/// (from [`float_corpus`], NaN aside), sometimes a string or `null` — so
/// a record that leaves the batch's shape by its values is common too.
fn leaf_of(rng: &mut Mix) -> Value {
    static FLOATS: OnceLock<Vec<f64>> = OnceLock::new();
    match rng.below(8) {
        0 | 1 => Value::I64(rng.below(100) as i64),
        2 => Value::I64(rng.next() as i64 >> rng.below(64)),
        3 | 4 => {
            let x = rng.pick(FLOATS.get_or_init(float_corpus));
            Value::F64(if x.is_nan() { 0.5 } else { x })
        }
        5 => Value::F64(float_of(rng)),
        6 => Value::Str(string_of(rng, 8)),
        _ => Value::Null,
    }
}

/// A batch of sibling maps, as a record list is: each record starts from
/// the batch's shape — a few of [`KEYS`], a different few at every depth —
/// and most keep it; the rest swap two keys, repeat one, drop one or
/// trade one for another. The records that keep the shape share its key
/// list, as records built or decoded together do; the others have a list
/// of their own over the shape's key strings, and a traded key is a
/// string of its own. Some fields hold a batch of their own.
fn batch_of(rng: &mut Mix, depth: usize) -> Value {
    let shape: Arc<[Arc<str>]> = (0..rng.below(6)).map(|_| Arc::from(rng.pick(KEYS))).collect();
    let nested: Vec<bool> = shape.iter().map(|_| depth > 0 && rng.below(4) == 0).collect();
    Value::list((0..rng.below(7)).map(|_| {
        let mut keys = shape.to_vec();
        if !keys.is_empty() {
            let (a, b) = (rng.below(keys.len()), rng.below(keys.len()));
            match rng.below(10) {
                0 => keys.swap(a, b),
                1 => keys.insert(a, Arc::clone(&keys[b])),
                2 => drop(keys.remove(a)),
                3 => keys[a] = Arc::from(rng.pick(KEYS)),
                _ => {}
            }
        }
        let values = (0..keys.len())
            .map(|at| match nested.get(at) {
                Some(true) => batch_of(rng, depth - 1),
                _ => leaf_of(rng),
            })
            .collect();
        let keys = if *keys == *shape { Arc::clone(&shape) } else { keys.into() };
        Value::Map(Record::new(keys, values).expect("one value per key"))
    }))
}

/// Both decoders on `doc`: the same value — compared through `Debug`,
/// which, unlike `==`, tells `-0.0` from `0.0` — or the same offset.
fn assert_same_decode(doc: &str) {
    match (from_text(doc), reference::from_text(doc)) {
        (Ok(new), Ok(old)) => assert_eq!(format!("{new:?}"), format!("{old:?}"), "decoding {doc:?}"),
        (Err(new), Err(old)) => assert_eq!(new.offset(), old.offset(), "decoding {doc:?}"),
        (new, old) => panic!("decoding {doc:?}: shipping {new:?}, reference {old:?}"),
    }
}

/// Text that tends to survive a splice as *almost* valid syntax.
const SNIPPETS: &[&str] = &[
    "\"", "\\", "\\u", "\\u00", "\\u+041", "\\ud800", "\\n", "x'", "'", "x'0", "0g", "[", "]", "{",
    "}", ",", ":", " ", "\n", "-", "-inf", "inf", "nan", "null", "tru", "1e", ".", "+", "é", "𝕏",
    "\u{1}", "9223372036854775808", "0.1", "1e400",
];

/// One random edit of `doc`, on `char` boundaries (a `&str` cannot be cut
/// anywhere else): a cut, an insertion, a replacement or a deletion.
fn mutate(rng: &mut Mix, doc: &[char]) -> String {
    let at = rng.below(doc.len() + 1);
    let (head, tail) = doc.split_at(at);
    let head = head.iter().collect::<String>();
    let tail = tail.iter();
    match rng.below(4) {
        0 => head,
        1 => head + rng.pick(SNIPPETS) + &tail.collect::<String>(),
        2 => head + &rng.pick(CHARS).to_string() + &tail.skip(1).collect::<String>(),
        _ => head + &tail.skip(1).collect::<String>(),
    }
}

proptest! {
    #[test]
    fn encoder_matches_reference_on_arbitrary_trees(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        for _ in 0..8 {
            let value = value_of(&mut rng, 3);
            prop_assert_eq!(to_text(&value), reference::to_text(&value));
        }
    }

    #[test]
    fn decoder_matches_reference_on_valid_and_mutated_documents(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let doc = reference::to_text(&value_of(&mut rng, 3));
        assert_same_decode(&doc);
        let chars: Vec<char> = doc.chars().collect();
        for _ in 0..24 {
            let mutant = mutate(&mut rng, &chars);
            assert_same_decode(&mutant);
            // Stacked edits drift further from valid syntax.
            let mutant: Vec<char> = mutant.chars().collect();
            assert_same_decode(&mutate(&mut rng, &mutant));
        }
    }

    #[test]
    fn decoder_matches_reference_on_arbitrary_strings(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        for _ in 0..32 {
            let noise: String = (0..rng.below(40))
                .map(|_| if rng.below(3) == 0 { rng.pick(SNIPPETS).to_owned() } else { rng.pick(CHARS).to_string() })
                .collect();
            assert_same_decode(&noise);
        }
    }

    #[test]
    fn deep_bracket_soup_never_panics(seed in any::<u64>()) {
        // Past `MAX_DEPTH` there is no oracle to agree with (the
        // reference recurses until the stack ends); the shipping decoder
        // must still answer.
        let mut rng = Mix(seed);
        let soup: String = (0..rng.below(3_000))
            .map(|_| if rng.below(8) == 0 { rng.pick(SNIPPETS) } else { rng.pick(&["[", "[", "{\"a\":"]) })
            .collect();
        let _ = from_text(&soup);
    }

    #[test]
    fn find_special_matches_a_byte_wise_search(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let specials = [b'"', b'\\', 0x00, 0x1f, b'\n'];
        let plain = [b'a', b' ', 0x20, 0x21, 0x23, 0x5b, 0x5d, 0x7f, 0x80, 0xc3, 0xff];
        let sparsity = rng.below(200) + 1;
        let bytes: Vec<u8> = (0..rng.below(300))
            .map(|_| if rng.below(sparsity) == 0 { rng.pick(&specials) } else { rng.pick(&plain) })
            .collect();
        let expected = bytes.iter().position(|&b| is_special(b)).unwrap_or(bytes.len());
        prop_assert_eq!(find_special(&bytes), expected);
    }
}

proptest! {
    #[test]
    fn record_batches_decode_as_the_reference_decodes_them(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let batch = batch_of(&mut rng, 3);
        let doc = to_text(&batch);
        // Records sharing a key list take the encoder's key-run path.
        prop_assert_eq!(&doc, &reference::to_text(&batch));
        // What `batch_of` built is what comes back, through either
        // codec, whichever keys the decoder found in its cache.
        prop_assert_eq!(from_text(&doc), Ok(batch.clone()));
        prop_assert_eq!(crate::binary::from_binary(&crate::binary::to_binary(&batch)), Ok(batch));
        assert_same_decode(&doc);
        // Damage lands after the cache is warm as often as before.
        let chars: Vec<char> = doc.chars().collect();
        for _ in 0..16 {
            assert_same_decode(&mutate(&mut rng, &chars));
        }
    }
}

#[test]
fn a_cached_key_is_compared_decoded_never_as_document_text() {
    for doc in [
        // `a"b` is cached; the second record spells it raw, which ends
        // the key at `a`.
        r#"[{"a\"b":1},{"a"b":1}]"#,
        // The other way round, and the escaped and plain spellings of `A`.
        r#"[{"a":1},{"a\"b":1},{"a":1}]"#,
        r#"[{"A":1},{"\u0041":2},{"\\u0041":3}]"#,
        // Prefixes either way, the empty key, and a key cut short.
        r#"[{"id":1,"ids":2},{"ids":1,"id":2},{"i":1,"":2},{"":1,"i":2}]"#,
        r#"[{"id":1},{"id"#,
        r#"[{"id":1},{"i"#,
        // Duplicates inside one map, and a map that outgrows its sibling.
        r#"[{"k":1,"k":2},{"k":3},{"k":4,"k":5,"k":6}]"#,
        // One depth, two shapes, alternating.
        r#"{"p":{"x":1,"y":2},"q":{"u":1,"v":2},"r":{"x":1,"y":2}}"#,
        // The same keys at every depth, and a different set at each.
        r#"[{"k":{"k":{"k":1}}},{"k":{"k":{"k":2}}},{"a":{"b":{"c":3}}},{"a":{"b":{"d":4}}}]"#,
        "[{\"é\":1,\"éé\":2},{\"éé\":1,\"é\":2},{\"☃\":1,\"𝕏\":2},{\"é\":1,\"𝕏\":2}]",
    ] {
        assert_same_decode(doc);
    }
}

#[test]
fn records_that_leave_the_cached_shape_decode_as_the_reference_does() {
    // Two records leave `id`, `ts` cached at depth 1; the third differs
    // from them in one way, and a fourth, shaped, may follow it.
    let shaped = r#"[{"id":1,"ts":-2.5},{"id":3,"ts":4.0},"#;
    let thirds = [
        // Whitespace inside a record, at every gap.
        r#"{ "id":5,"ts":6}"#,
        r#"{"id" :5,"ts":6}"#,
        r#"{"id": 5,"ts":6}"#,
        r#"{"id":5 ,"ts":6}"#,
        r#"{"id":5, "ts":6}"#,
        r#"{"id":5,"ts":6 }"#,
        "{\"id\":5,\n\t\"ts\":6}",
        // A key spelt with an escape.
        r#"{"\u0069d":5,"ts":6}"#,
        r#"{"id":5,"t\u0073":6}"#,
        // Something other than a number where a number was.
        r#"{"id":"5","ts":6}"#,
        r#"{"id":null,"ts":6}"#,
        r#"{"id":[5],"ts":6}"#,
        r#"{"id":{"id":5,"ts":6},"ts":6}"#,
        r#"{"id":5,"ts":inf}"#,
        r#"{"id":5,"ts":x'06'}"#,
        r#"{"id":true,"ts":6}"#,
        // Number characters a number cannot start with.
        r#"{"id":.5,"ts":6}"#,
        r#"{"id":+5,"ts":6}"#,
        r#"{"id":e5,"ts":6}"#,
        // A missing field, an extra field, a trailing comma, a stray one,
        // and something else in a comma's place.
        r#"{"id":5}"#,
        r#"{"ts":6}"#,
        r#"{"id":5,"ts":6,"lane":7}"#,
        r#"{"id":5,"ts":6,}"#,
        r#"{"id":5,,"ts":6}"#,
        r#"{"id":5;"ts":6}"#,
        r#"{"id":5}"ts":6}"#,
        // Keys that are prefixes of the cached ones, or extend them.
        r#"{"i":5,"ts":6}"#,
        r#"{"idx":5,"ts":6}"#,
        r#"{"id":5,"t":6}"#,
        // Cut off mid-number, mid-key and after a separator.
        r#"{"id":5,"ts":6"#,
        r#"{"id":5,"ts":6.2"#,
        r#"{"id":5,"ts":-"#,
        r#"{"id":12"#,
        r#"{"i"#,
        r#"{"id":5,"#,
        // Numbers past the one-pass shapes: what only `parse` reads, or
        // refuses.
        r#"{"id":9223372036854775808,"ts":6}"#,
        r#"{"id":5,"ts":1e400}"#,
        r#"{"id":-inf,"ts":6}"#,
        r#"{"id":-9223372036854775808,"ts":-0.0}"#,
        r#"{"id":5,"ts":-}"#,
        r#"{"id":5,"ts":1.2.3}"#,
        r#"{"id":5,"ts":6x}"#,
    ];
    for third in thirds {
        for tail in ["", "]", r#",{"id":7,"ts":8}]"#] {
            assert_same_decode(&format!("{shaped}{third}{tail}"));
        }
    }
    for doc in [
        // Cached keys that hold `"` or `\`: spelt raw, they read as
        // something else, or as nothing.
        r#"[{"a\"b":1},{"a\"b":2},{"a"b":3}]"#,
        r#"[{"a\\b":1},{"a\\b":2},{"a\b":3}]"#,
        r#"[{"a\\":1},{"a\\":2},{"a\":3}]"#,
        r#"[{"id":1,"q\"":2},{"id":3,"q\"":4},{"id":5,"q"":6}]"#,
        // A key the cache holds from an escaped spelling, then spelt
        // plain, and a raw control byte where the encoder writes `\u0001`.
        r#"[{"\u0069d":1},{"id":2},{"\u0069d":3},{"id":4}]"#,
        "[{\"\\u0001\":1},{\"\u{1}\":2},{\"\u{1}\":3}]",
    ] {
        assert_same_decode(doc);
    }
}

#[test]
fn batches_over_shared_key_lists_encode_and_decode_as_the_reference_does() {
    let list =
        |keys: &[&str]| -> Arc<[Arc<str>]> { keys.iter().map(|&key| Arc::from(key)).collect() };
    let record = |keys: &Arc<[Arc<str>]>, n: i64| {
        let values = (0..keys.len() as i64).map(|at| Value::I64(n * 10 + at)).collect();
        Value::Map(Record::new(Arc::clone(keys), values).expect("one value per key"))
    };
    let sensor = list(&["id", "ts", "lane"]);
    let escaped = list(&["a\"b", "back\\slash", "line\nbreak", "\u{1}", "é"]);
    let shorter = list(&["id", "ts"]);
    let empty = list(&[]);
    // Runs of records over one list, broken by a change of shape mid-list,
    // an equal list held in other `Arc`s, an empty record, a value that
    // is not a map, and a return to a list spelt before.
    let batches = [
        vec![record(&sensor, 1), record(&sensor, 2), record(&shorter, 3), record(&sensor, 4)],
        vec![record(&escaped, 1), record(&escaped, 2), record(&sensor, 3), record(&escaped, 4)],
        vec![record(&sensor, 1), record(&list(&["id", "ts", "lane"]), 2), record(&sensor, 3)],
        vec![record(&empty, 0), record(&sensor, 1), record(&empty, 2), record(&empty, 3)],
        vec![
            record(&sensor, 1),
            Value::Null,
            record(&sensor, 2),
            Value::list([record(&sensor, 3)]),
        ],
        vec![Value::map([("outer", Value::list([record(&escaped, 1), record(&escaped, 2)]))])],
    ];
    for batch in batches.map(Value::List) {
        let doc = to_text(&batch);
        assert_eq!(doc, reference::to_text(&batch));
        assert_eq!(from_text(&doc), Ok(batch.clone()), "{doc}");
        assert_same_decode(&doc);
    }
}

#[test]
fn encoder_matches_reference_on_synthetic_payloads() {
    // `(1, 128_000)` and `(1, 500_000)` are the SensorRecords and Text
    // documents `benchmark/`'s `serial.text.*` rows time at seed 1;
    // `baseline_codec` ships them at sizes within 1/800 of these.
    for kind in [PayloadKind::Text, PayloadKind::SensorRecords, PayloadKind::ImageFrame] {
        for (seed, size) in [
            (1, 0),
            (2, 1),
            (3, 31),
            (1, 32),
            (2, 33),
            (3, 1_000),
            (1, 40_000),
            (1, 128_000),
            (1, 500_000),
        ] {
            let payload = Payload::synthetic(kind, seed, size);
            let encoded = to_text(payload.value());
            assert_eq!(encoded, reference::to_text(payload.value()), "{kind} seed {seed} size {size}");
            assert_same_decode(&encoded);
        }
    }
}

/// The floats where `write_f64` changes strategy, and their neighbours.
fn float_corpus() -> Vec<f64> {
    let mut corpus = vec![
        0.0,
        0.5,
        1e15,
        1e15 - 0.125,
        999_999_999_999_999.0,
        1e12,
        1e12 - 0.1,
        1e12 + 0.1,
        999_999_999_999.99,
        1e14 + 0.5,
        1e-5,
        0.000_010_000_000_000_000_002,
        0.000_009_999_999_999_999_999,
        0.000_01,
        0.000_1,
        0.001,
        0.01,
        0.1 + 0.2,
        1.0 / 3.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::MAX,
        f64::EPSILON,
        f64::INFINITY,
        i64::MAX as f64,
        i64::MIN as f64,
        u64::MAX as f64,
        2f64.powi(53),
        2f64.powi(53) - 1.0,
    ];
    // Powers of ten and their integer neighbours, up to the `1e15` switch.
    for exp in 0..=16 {
        let p = 10f64.powi(exp);
        corpus.extend([p, p - 1.0, p + 1.0, p / 4.0, 1.0 / p]);
    }
    // Tenths and hundredths at every magnitude, and the doubles next to
    // them, which must *not* take the short spelling.
    for n in 0..3_000u64 {
        for scale in [1.0, 1e3, 1e6, 1e9, 1e11, 1e13] {
            let n = n as f64 + (n % 7) as f64 * scale;
            let (tenth, hundredth) = (n / 10.0, n / 100.0);
            corpus.extend([tenth, hundredth, hundredth.next_up(), tenth.next_down()]);
        }
    }
    let mut rng = Mix(0xF10A7);
    corpus.extend((0..50_000).map(|_| f64::from_bits(rng.next())));
    corpus.extend((0..50_000).map(|_| float_of(&mut rng)));
    corpus
}

#[test]
fn floats_are_written_as_format_writes_them_and_read_back_alike() {
    for x in float_corpus() {
        for x in [x, -x] {
            let value = Value::F64(x);
            // The reference *is* `format!`: `{:.1}`, `{:e}` or `{}`.
            let encoded = to_text(&value);
            assert_eq!(encoded, reference::to_text(&value), "{x:?} ({:#x})", x.to_bits());
            assert_same_decode(&encoded);
        }
    }
}

#[test]
fn number_tokens_are_read_as_parse_reads_them() {
    // Around every limit of the one-pass shapes: digit counts, leading
    // zeros, a missing side of the point, and what only `parse` takes.
    let tokens = [
        "0", "-0", "007", "-007", "999999999999999999", "1000000000000000000",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "00000000000000000000001", "0.0", "-0.0", "000.5", "0.1", "0.10",
        "1.", "-.5", "-", "--1", "1..2", "1.2.3", "1e5", "1E5", "1e+5", "1.5e-3", "1e", "1-2", "1+",
        "123456789012.345", "1234567890123.45", "12345678901234.5", "123456789012345.6",
        "0.000000000000001", "0.0000000000000001", "99999999999999.9", "9007199254740993.0",
        "9007199254740993", "0.3", "2.675", "1.005", "179769313486231570000.0", "4.9e-324", "1e400",
    ];
    for token in tokens {
        for doc in [token.to_owned(), format!("[{token},{token}]"), format!("{token}x")] {
            assert_same_decode(&doc);
        }
    }
}
