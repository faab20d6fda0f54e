//! Shared types for baseline transfer measurements.

use bytes::Bytes;
use roadrunner_platform::TransferTiming;
use roadrunner_serial::Value;
use roadrunner_vkernel::Nanos;

/// Result of one baseline transfer: end-to-end timing plus the
/// serialization share (the quantity Fig. 6b/7c/8c isolate) and the
/// payload as reconstructed at the target.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Virtual time from "source starts sending" to "target has the
    /// reconstructed value".
    pub latency_ns: Nanos,
    /// Time spent serializing at the source.
    pub serialize_ns: Nanos,
    /// Time spent deserializing at the target.
    pub deserialize_ns: Nanos,
    /// The structured value as the target decoded it.
    pub received_value: Value,
}

impl BaselineOutcome {
    /// Flat representation of the received value (for checksums),
    /// computed on each call: a copy for a string, a binary encoding for
    /// a structured value, a shared handle for a blob.
    pub fn received_flat(&self) -> Bytes {
        flat_of(&self.received_value)
    }

    /// Total serialization overhead (both directions).
    pub fn serialization_ns(&self) -> Nanos {
        self.serialize_ns + self.deserialize_ns
    }

    /// Transfer time excluding serialization work.
    pub fn transfer_only_ns(&self) -> Nanos {
        self.latency_ns.saturating_sub(self.serialization_ns())
    }

    /// Phase attribution for the workflow engines: serialization is the
    /// source's preparation, deserialization the target's consumption,
    /// everything in between the transfer proper.
    pub fn timing(&self) -> TransferTiming {
        TransferTiming {
            prepare_ns: self.serialize_ns,
            transfer_ns: self.transfer_only_ns(),
            consume_ns: self.deserialize_ns,
        }
    }
}

/// Extracts the flat byte representation from a decoded value, mirroring
/// [`roadrunner_serial::Payload::flat`] for the supported payload shapes.
pub fn flat_of(value: &Value) -> Bytes {
    match value {
        Value::Str(s) => Bytes::copy_from_slice(s.as_bytes()),
        Value::Bytes(b) => b.clone(),
        other => Bytes::from(roadrunner_serial::binary::to_binary(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_share_math() {
        let o = BaselineOutcome {
            latency_ns: 100,
            serialize_ns: 30,
            deserialize_ns: 20,
            received_value: Value::Null,
        };
        assert_eq!(o.serialization_ns(), 50);
        assert_eq!(o.transfer_only_ns(), 50);
        let timing = o.timing();
        assert_eq!(timing.prepare_ns, 30);
        assert_eq!(timing.transfer_ns, 50);
        assert_eq!(timing.consume_ns, 20);
        assert_eq!(timing.total_ns(), o.latency_ns);
    }

    #[test]
    fn flat_of_strings_and_bytes() {
        assert_eq!(&flat_of(&Value::from("abc"))[..], b"abc");
        assert_eq!(&flat_of(&Value::from(vec![1u8, 2]))[..], &[1, 2]);
        assert!(!flat_of(&Value::from(5i64)).is_empty());
    }
}
