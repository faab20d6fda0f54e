//! Synthetic workload payloads for the evaluation harness.
//!
//! The paper's experiments chain two I/O-bound functions `a` and `b` that
//! exchange "serialized strings" of 1 MB–500 MB (§6.1), plus the
//! motivating edge-cloud scenarios (ML-based image processing, traffic data
//! analytics). Each [`Payload`] carries both representations of the same
//! logical data:
//!
//! * [`Payload::value`] — the structured view that HTTP baselines must
//!   serialize and deserialize;
//! * [`Payload::flat`] — the flat in-memory representation (what actually
//!   lives in the source function's linear memory) that Roadrunner ships
//!   without serialization.
//!
//! Generation is deterministic from a seed so experiments are reproducible
//! without pulling `rand` into the library (a xorshift64* generator is
//! enough here).

use std::sync::Arc;

use bytes::Bytes;

use crate::{Record, Value};

/// Kind of synthetic payload, mirroring the paper's workload families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// A single large text record — the "serialized strings" of §6.1.
    Text,
    /// A batch of structured sensor records — traffic data analytics.
    SensorRecords,
    /// An opaque image frame — ML-based image processing.
    ImageFrame,
    /// Pre-flattened bytes of unknown provenance (a workflow edge's raw
    /// payload entering a baseline); see [`Payload::opaque`].
    Opaque,
}

impl std::fmt::Display for PayloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PayloadKind::Text => "text",
            PayloadKind::SensorRecords => "sensor-records",
            PayloadKind::ImageFrame => "image-frame",
            PayloadKind::Opaque => "opaque",
        };
        f.write_str(name)
    }
}

/// A synthetic workload payload with both structured and flat forms.
#[derive(Debug, Clone, PartialEq)]
pub struct Payload {
    kind: PayloadKind,
    value: Value,
    flat: Bytes,
    /// [`Value::node_count`] of `value`, derived once at construction.
    /// The codec cost models consume it on **every** transfer; for
    /// structured payloads the count is an O(records) tree walk, so
    /// caching it here takes that walk out of the per-transfer path.
    value_nodes: usize,
}

impl Payload {
    /// Generates a deterministic payload of roughly `size` bytes.
    ///
    /// The flat representation is exactly sized for [`PayloadKind::Text`]
    /// and [`PayloadKind::ImageFrame`]; [`PayloadKind::SensorRecords`]
    /// rounds to whole records.
    ///
    /// ```
    /// # use roadrunner_serial::payload::{Payload, PayloadKind};
    /// let p = Payload::synthetic(PayloadKind::Text, 7, 4096);
    /// assert_eq!(p.flat().len(), 4096);
    /// ```
    pub fn synthetic(kind: PayloadKind, seed: u64, size: usize) -> Self {
        match kind {
            PayloadKind::Text => Self::text(seed, size),
            PayloadKind::SensorRecords => Self::sensor_records(seed, size),
            PayloadKind::ImageFrame => Self::image_frame(seed, size),
            // Synthetic opaque data is indistinguishable from a frame.
            PayloadKind::Opaque => Payload { kind, ..Self::image_frame(seed, size) },
        }
    }

    fn text(seed: u64, size: usize) -> Self {
        // Printable ASCII so text-codec escaping stays cheap and byte
        // counts stay predictable; real payloads are JSON-ish strings.
        const ALPHABET: &[u8] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,.;:-_";
        // `ALPHABET[b % ALPHABET.len()]` for every byte value `b`, so each
        // byte of a draw becomes a character without a division.
        const CHARS: [u8; 256] = {
            let mut chars = [0; 256];
            let mut b = 0;
            while b < 256 {
                chars[b] = ALPHABET[b % ALPHABET.len()];
                b += 1;
            }
            chars
        };
        // Each draw fills eight bytes, low byte first; a short tail takes
        // the low bytes of one more draw.
        let mut rng = XorShift64::new(seed);
        let mut buf = vec![0; size];
        for chunk in buf.chunks_mut(8) {
            let word = rng.next().to_le_bytes();
            for (out, b) in chunk.iter_mut().zip(word) {
                *out = CHARS[usize::from(b)];
            }
        }
        // The flat form keeps the generated buffer and the value gets the
        // copy, allocated after it. A caller that keeps only the flat bytes
        // then frees the later allocation, which the heap can hand out
        // whole again, rather than leaving a payload-sized hole below them.
        let s = String::from_utf8(buf.clone()).expect("alphabet is ASCII");
        let flat = Bytes::from(buf);
        Self::from_parts(PayloadKind::Text, Value::Str(s), flat)
    }

    /// Assembles a payload, deriving the cached structure count.
    fn from_parts(kind: PayloadKind, value: Value, flat: Bytes) -> Self {
        let value_nodes = value.node_count();
        Payload { kind, value, flat, value_nodes }
    }

    fn sensor_records(seed: u64, size: usize) -> Self {
        // Fixed-width packed record: id(u64) ts(u64) lane(u32) speed(f32)
        // flow(f32) pad(u32) = 32 bytes. The flat form is what a C/Rust
        // guest would hold in linear memory; the structured form is what a
        // JSON API would expose.
        const RECORD: usize = 32;
        let count = size.div_ceil(RECORD).max(1);
        // Every record shares this one key list.
        let keys: Arc<[Arc<str>]> = ["id", "ts", "lane", "speed", "flow"].map(Arc::from).into();
        let mut rng = XorShift64::new(seed);
        let mut flat = Vec::with_capacity(count * RECORD);
        let mut records = Vec::with_capacity(count);
        for id in 0..count as u64 {
            let ts = 1_700_000_000_000 + rng.next() % 86_400_000;
            let lane = (rng.next() % 8) as u32;
            let speed = (rng.next() % 130) as f32 + 0.5;
            let flow = (rng.next() % 2000) as f32;
            flat.extend_from_slice(&id.to_le_bytes());
            flat.extend_from_slice(&ts.to_le_bytes());
            flat.extend_from_slice(&lane.to_le_bytes());
            flat.extend_from_slice(&speed.to_le_bytes());
            flat.extend_from_slice(&flow.to_le_bytes());
            flat.extend_from_slice(&0u32.to_le_bytes());
            let values = vec![
                Value::I64(id as i64),
                Value::I64(ts as i64),
                Value::I64(lane as i64),
                Value::F64(speed as f64),
                Value::F64(flow as f64),
            ];
            records.push(Value::Map(Record::from_parts(Arc::clone(&keys), values)));
        }
        Self::from_parts(PayloadKind::SensorRecords, Value::List(records), Bytes::from(flat))
    }

    fn image_frame(seed: u64, size: usize) -> Self {
        let mut rng = XorShift64::new(seed);
        let mut buf = Vec::with_capacity(size);
        while buf.len() + 8 <= size {
            buf.extend_from_slice(&rng.next().to_le_bytes());
        }
        while buf.len() < size {
            buf.push((rng.next() & 0xFF) as u8);
        }
        let flat = Bytes::from(buf);
        Self::from_parts(PayloadKind::ImageFrame, Value::Bytes(flat.clone()), flat)
    }

    /// Wraps pre-flattened bytes as an opaque payload: the structured
    /// form is a single [`Value::Bytes`] blob. This is how a workflow
    /// edge's raw bytes enter a baseline that must (de)serialize them.
    ///
    /// ```
    /// # use bytes::Bytes;
    /// # use roadrunner_serial::payload::Payload;
    /// let p = Payload::opaque(Bytes::from_static(b"\x01\x02"));
    /// assert_eq!(p.flat().len(), 2);
    /// ```
    pub fn opaque(flat: Bytes) -> Self {
        Self::from_parts(PayloadKind::Opaque, Value::Bytes(flat.clone()), flat)
    }

    /// Which workload family this payload belongs to.
    pub fn kind(&self) -> PayloadKind {
        self.kind
    }

    /// Structured view — what the HTTP baselines serialize.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// Cached [`Value::node_count`] of [`value`](Self::value) — the
    /// structure-complexity input of the codec cost models, derived once
    /// at construction instead of re-walked on every transfer.
    pub fn value_nodes(&self) -> usize {
        self.value_nodes
    }

    /// Flat in-memory representation — what Roadrunner ships untouched.
    pub fn flat(&self) -> &Bytes {
        &self.flat
    }

    /// Integrity checksum of the flat representation.
    pub fn checksum(&self) -> u64 {
        fnv1a(&self.flat)
    }
}

/// FNV-1a hash over a byte slice, used for payload integrity checks.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// xorshift64* PRNG — deterministic, dependency-free.
#[derive(Debug, Clone)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        // Zero state would be a fixed point; displace it.
        Self { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1) }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{binary, text};

    #[test]
    fn text_payload_has_exact_size() {
        for size in [0usize, 1, 7, 8, 1024, 10_000] {
            let p = Payload::synthetic(PayloadKind::Text, 3, size);
            assert_eq!(p.flat().len(), size);
        }
    }

    /// FNV-1a of the flat text bytes, one row per seed, one column per
    /// size. Every text payload in the figures, examples and benchmark
    /// is generated here, so a generator rewrite must keep these.
    #[test]
    fn text_payload_bytes_are_pinned() {
        const SIZES: [usize; 7] = [0, 1, 7, 8, 9, 4096, 65_537];
        const DIGESTS: [(u64, [u64; 7]); 3] = [
            (
                0,
                [
                    0xcbf2_9ce4_8422_2325,
                    0xaf63_ed4c_8602_096f,
                    0x44a7_095f_b7fd_29ef,
                    0xa4fe_a6a5_a32d_e55b,
                    0x8a9a_4c74_46fc_5713,
                    0xfbeb_30f0_f102_fdd2,
                    0x74d6_0ebb_dc91_081f,
                ],
            ),
            (
                1,
                [
                    0xcbf2_9ce4_8422_2325,
                    0xaf64_154c_8602_4d67,
                    0x97b2_68f8_3e11_dd98,
                    0xd606_4fd1_785c_2236,
                    0x08dc_10ef_848e_8450,
                    0xc23c_a3ce_c39b_66ca,
                    0xc7b0_5a2d_8420_546d,
                ],
            ),
            (
                7,
                [
                    0xcbf2_9ce4_8422_2325,
                    0xaf63_db4c_8601_ead9,
                    0x6b5b_3285_db9d_757c,
                    0x096b_f474_2c8d_fce1,
                    0x906d_0e67_b544_59f7,
                    0xdf36_19ad_07e6_aa9c,
                    0x4cd2_1aaa_7cdf_4879,
                ],
            ),
        ];
        for (seed, digests) in DIGESTS {
            for (size, digest) in SIZES.into_iter().zip(digests) {
                let p = Payload::synthetic(PayloadKind::Text, seed, size);
                assert_eq!(p.flat().len(), size);
                assert_eq!(fnv1a(p.flat()), digest, "seed {seed}, size {size}");
            }
        }
    }

    /// What the cost model and the wire see of each synthetic kind at
    /// seed 1: the cached node count, `heap_size`, and the length and
    /// FNV-1a of the text and binary encodings. However a value stores
    /// its maps' keys, these stay.
    #[test]
    fn value_shape_and_encodings_are_pinned() {
        type Pin = (PayloadKind, usize, usize, usize, usize, u64, usize, u64);
        #[rustfmt::skip]
        const PINS: [Pin; 6] = [
            (PayloadKind::Text, 4_096, 1, 4_104, 4_098, 0xd1e1_adec_af61_2178, 4_099, 0x9e93_21dd_6515_1b57),
            (PayloadKind::Text, 128_000, 1, 128_008, 128_002, 0xb0ee_cb89_e96a_164a, 128_004, 0xbca3_4092_12e8_43d4),
            (PayloadKind::SensorRecords, 4_096, 769, 14_480, 8_287, 0xe915_c5cd_3b94_aeda, 8_835, 0x8a9d_9061_03a9_c9ee),
            (PayloadKind::SensorRecords, 128_000, 24_001, 452_016, 265_193, 0x83d7_4873_e39f_f1d0, 276_003, 0xfee4_10c6_f83d_b068),
            (PayloadKind::ImageFrame, 4_096, 1, 4_104, 8_195, 0x2116_995c_8ac5_6d7f, 4_099, 0xc651_74cd_864a_4782),
            (PayloadKind::ImageFrame, 128_000, 1, 128_008, 256_003, 0x1cd7_432e_c7ee_fa79, 128_004, 0x2be4_d9e2_f4e6_30a0),
        ];
        for (kind, size, nodes, heap, text_len, text_fnv, binary_len, binary_fnv) in PINS {
            let p = Payload::synthetic(kind, 1, size);
            let (doc, packed) = (text::to_text(p.value()), binary::to_binary(p.value()));
            assert_eq!(
                (p.value_nodes(), p.value().node_count(), p.value().heap_size()),
                (nodes, nodes, heap),
                "{kind} {size}"
            );
            assert_eq!((doc.len(), fnv1a(doc.as_bytes())), (text_len, text_fnv), "{kind} {size}");
            assert_eq!((packed.len(), fnv1a(&packed)), (binary_len, binary_fnv), "{kind} {size}");
        }
    }

    #[test]
    fn image_payload_has_exact_size() {
        for size in [0usize, 1, 9, 4096] {
            let p = Payload::synthetic(PayloadKind::ImageFrame, 3, size);
            assert_eq!(p.flat().len(), size);
        }
    }

    #[test]
    fn sensor_records_round_to_whole_records() {
        let p = Payload::synthetic(PayloadKind::SensorRecords, 3, 100);
        assert_eq!(p.flat().len() % 32, 0);
        assert!(p.flat().len() >= 100);
        assert_eq!(p.value().as_list().unwrap().len(), p.flat().len() / 32);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Payload::synthetic(PayloadKind::Text, 42, 512);
        let b = Payload::synthetic(PayloadKind::Text, 42, 512);
        assert_eq!(a, b);
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Payload::synthetic(PayloadKind::ImageFrame, 1, 512);
        let b = Payload::synthetic(PayloadKind::ImageFrame, 2, 512);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn structured_view_survives_both_codecs() {
        for kind in [PayloadKind::Text, PayloadKind::SensorRecords, PayloadKind::ImageFrame] {
            let p = Payload::synthetic(kind, 9, 2048);
            let via_text = text::from_text(&text::to_text(p.value())).unwrap();
            assert_eq!(&via_text, p.value(), "text codec, kind {kind}");
            let via_bin = binary::from_binary(&binary::to_binary(p.value())).unwrap();
            assert_eq!(&via_bin, p.value(), "binary codec, kind {kind}");
        }
    }

    #[test]
    fn text_flat_form_matches_string_value() {
        let p = Payload::synthetic(PayloadKind::Text, 5, 64);
        assert_eq!(p.value().as_str().unwrap().as_bytes(), p.flat().as_ref());
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(PayloadKind::Text.to_string(), "text");
        assert_eq!(PayloadKind::SensorRecords.to_string(), "sensor-records");
        assert_eq!(PayloadKind::ImageFrame.to_string(), "image-frame");
    }
}
