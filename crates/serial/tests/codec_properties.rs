//! Round-trip property tests for the serialization codecs: arbitrary
//! [`Value`] trees must survive text-encode→decode and
//! binary-encode→decode unchanged, and both codecs must agree on the
//! byte-length accounting the cost model charges serialization work by
//! (`heap_size` for the per-byte component, `node_count` for the
//! per-node component).

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_serial::{binary, text, Record, Value};

/// Splitmix-style generator so value shapes derive deterministically
/// from the proptest-provided seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A pseudo-random string exercising escapes, control characters and
/// multi-byte UTF-8.
fn string_of(rng: &mut Mix, max_len: usize) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', '☃', '𝕏', ':',
        ',', '{', '}', '[', ']', '\'',
    ];
    let len = rng.below(max_len as u64 + 1) as usize;
    (0..len).map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize]).collect()
}

/// A pseudo-random finite float that is not an integral value formatted
/// ambiguously — the text codec handles all finite floats, so draw from
/// the full mantissa range.
fn float_of(rng: &mut Mix) -> f64 {
    let mantissa = rng.next() as i64 as f64;
    let scale = [1e-6, 1e-3, 1.0, 1e3, 1e9][rng.below(5) as usize];
    mantissa / 997.0 * scale
}

/// Builds a random value tree of at most `depth` levels.
fn value_of(rng: &mut Mix, depth: usize) -> Value {
    let pick = if depth == 0 { rng.below(7) } else { rng.below(9) };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::I64(rng.next() as i64),
        3 => Value::F64(float_of(rng)),
        4 => Value::Str(string_of(rng, 24)),
        5 => {
            let len = rng.below(48) as usize;
            Value::Bytes(Bytes::from((0..len).map(|_| rng.next() as u8).collect::<Vec<_>>()))
        }
        6 => {
            let specials = [f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.5];
            Value::F64(specials[rng.below(4) as usize])
        }
        7 => {
            let len = rng.below(5) as usize;
            Value::list((0..len).map(|_| value_of(rng, depth - 1)))
        }
        _ => {
            let len = rng.below(5) as usize;
            Value::map((0..len).map(|i| (format!("k{i}-{}", string_of(rng, 6)), value_of(rng, depth - 1))))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_codec_round_trips_arbitrary_trees(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let value = value_of(&mut rng, 3);
        let encoded = text::to_text(&value);
        let decoded = text::from_text(&encoded)
            .unwrap_or_else(|e| panic!("decoding {encoded:?}: {e}"));
        prop_assert_eq!(&decoded, &value, "text was {:?}", encoded);
    }

    #[test]
    fn binary_codec_round_trips_arbitrary_trees(seed in any::<u64>()) {
        let mut rng = Mix(seed ^ 0xB1A2);
        let value = value_of(&mut rng, 3);
        let encoded = binary::to_binary(&value);
        let decoded = binary::from_binary(&encoded)
            .unwrap_or_else(|e| panic!("decoding binary: {e}"));
        prop_assert_eq!(decoded, value);
    }

    #[test]
    fn codecs_agree_on_cost_model_byte_accounting(seed in any::<u64>()) {
        // The cost model charges serialization per payload byte
        // (heap_size) plus per structured node (node_count). Both codecs
        // must reconstruct a tree with *identical* accounting, or the
        // baselines' charged costs would depend on which codec carried
        // the edge.
        let mut rng = Mix(seed ^ 0xACC7);
        let value = value_of(&mut rng, 3);
        let via_text = text::from_text(&text::to_text(&value)).expect("text round-trip");
        let via_binary = binary::from_binary(&binary::to_binary(&value)).expect("binary round-trip");
        prop_assert_eq!(via_text.node_count(), value.node_count());
        prop_assert_eq!(via_binary.node_count(), value.node_count());
        prop_assert_eq!(via_text.heap_size(), value.heap_size());
        prop_assert_eq!(via_binary.heap_size(), value.heap_size());
    }

    #[test]
    fn binary_is_never_larger_than_text_for_byte_blobs(len in 0usize..4_096, seed in any::<u64>()) {
        // Hex-escaping in the text codec doubles blob bytes; the binary
        // codec's tag-length-value framing must stay within a small
        // constant of the raw length — the asymmetry the baselines'
        // format choice trades on.
        let mut rng = Mix(seed);
        let value = Value::Bytes(Bytes::from(
            (0..len).map(|_| rng.next() as u8).collect::<Vec<_>>(),
        ));
        let text_len = text::to_text(&value).len();
        let binary_len = binary::to_binary(&value).len();
        prop_assert!(binary_len <= text_len.max(16));
        prop_assert!(binary_len >= len, "framing cannot shrink opaque bytes");
    }
}

/// The record of every entry of a batch.
fn records(batch: &Value) -> Vec<&Record> {
    let records = batch.as_list().expect("a list of records");
    records
        .iter()
        .map(|record| match record {
            Value::Map(record) => record,
            other => panic!("record is {other:?}"),
        })
        .collect()
}

#[test]
fn sibling_records_share_their_key_strings() {
    for count in [2, 64, 4_000] {
        let sensor = Payload::synthetic(PayloadKind::SensorRecords, 5, 32 * count);
        let via_text = text::from_text(&text::to_text(sensor.value())).expect("text round-trip");
        let via_binary =
            binary::from_binary(&binary::to_binary(sensor.value())).expect("binary round-trip");
        assert_eq!(&via_text, sensor.value());
        assert_eq!(&via_binary, sensor.value());
        for batch in [sensor.value(), &via_text, &via_binary] {
            let records = records(batch);
            assert_eq!(records.len(), count);
            let keys = records[0].keys();
            assert_eq!(keys.len(), 5);
            for record in &records {
                let own = record.keys();
                assert!(Arc::ptr_eq(own, keys), "{own:?} is a list of its own");
            }
            // One list holds each key, however many records share it.
            assert_eq!(Arc::strong_count(keys), count);
            for key in keys.iter() {
                assert_eq!(Arc::strong_count(key), 1, "{key}");
            }
        }
    }
}

#[test]
fn sharing_is_storage_only() {
    let sensor = Payload::synthetic(PayloadKind::SensorRecords, 5, 32 * 3);
    let shared = sensor.value().at(1).expect("a second record");
    let Value::Map(record) = shared else { panic!("record is {shared:?}") };
    // A map over fresh copies of the keys is the same value, and so is a
    // record over a list of its own.
    let copied = Value::map(record.iter().map(|(key, value)| (key.to_string(), value.clone())));
    assert_eq!(&copied, shared);
    let own_list: Arc<[Arc<str>]> = record.keys().iter().map(|key| Arc::from(&**key)).collect();
    let rebuilt = Record::new(own_list, record.values().to_vec()).expect("one value per key");
    assert_eq!(&Value::Map(rebuilt), shared);
    assert_eq!(copied.heap_size(), shared.heap_size());
    assert_eq!(text::to_text(&copied), text::to_text(shared));
    assert_eq!(binary::to_binary(&copied), binary::to_binary(shared));
    // A list of a different length is refused.
    assert!(Record::new(Arc::clone(record.keys()), vec![Value::Null]).is_none());
}

#[test]
fn values_and_payloads_are_shared_across_threads() {
    // The sweep engine hands one payload to all its workers.
    fn shared<T: Send + Sync>() {}
    shared::<Value>();
    shared::<Payload>();
}
