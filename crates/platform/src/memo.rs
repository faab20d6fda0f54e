//! Deterministic transfer-cost memoization.
//!
//! A load sweep admits thousands of instances of the *same* workflow
//! carrying the *same* payload over the *same* deployment. Every plane in
//! this workspace is deterministic: the outcome of one edge — received
//! bytes, prepare/transfer/consume attribution, virtual-clock advance —
//! is a pure function of the edge's endpoints, the placement the plane
//! derived for them, and the payload bytes. Recomputing the codec and
//! cost-model work per instance (Roadrunner's Wasm moves, the baselines'
//! serialize → HTTP → deserialize path) is therefore pure wall-clock
//! rework; the paper's own shim design (§4) makes the point that
//! identical deliveries should cost once.
//!
//! [`MemoizedPlane`] wraps any [`DataPlane`] and caches each distinct
//! `(from, to, placement(from), placement(to), payload, health epoch)`
//! transfer. On a hit it replays the recorded outcome exactly —
//! including advancing the shared [`VirtualClock`] by the recorded
//! amount — so, inside the contract below, virtual-time results are
//! byte-identical with and without the memo (property-tested in
//! `tests/memo_properties.rs`).
//!
//! A hit costs one composite key (one multiply per word: names folded
//! eight bytes at a time and length-terminated, then both nodes, length,
//! fingerprint, epoch), one probe of a map that uses that key as its
//! hash, a full-key comparison — a colliding entry is bypassed, never
//! replayed — a clock advance and a reference-count bump. The payload is
//! fingerprinted once per distinct buffer (`wordhash::fingerprint`:
//! four independent word lanes, then the tail and the length: ~19 µs
//! for a 256 KB payload where byte-wise FNV-1a took ~455 µs, on one core
//! of a 2-core Xeon VM); later uses find the fingerprint by the buffer's
//! address and length in a word-hashed map.
//!
//! The fingerprint is not collision-resistant, and FNV-1a was not
//! either: byte-equal payloads always share one, and a single changed
//! word always moves it, but someone choosing payloads could make two
//! differ under one fingerprint. A collision that also matches every
//! other key field would replay the wrong edge, so the memo is for
//! payloads the program generates, as every caller in this workspace
//! does — never for bytes a peer sent.
//!
//! # Soundness contract
//!
//! A recorded outcome is replayed whenever the key above repeats, so the
//! wrapper is sound exactly when the wrapped plane's outcome is a
//! function of that key. Three things have to hold.
//!
//! **Instances are cyclic.** Each workflow instance returns the plane to
//! its pre-instance state — true for the produce/relay/consume
//! deployments the benches drive, and the property the fig13 determinism
//! assert relies on. Guest heap growth on the very first instance is not
//! cyclic: warm the plane with one discarded run before wrapping, as
//! every bench does.
//!
//! **Every (edge, placement) pair a run will use was warmed** — and the
//! mandated warm-up run only warms the *deployment's* placement. Under a
//! policy that places functions individually, an edge meets node pairs
//! the warm-up never used, and the first network transfer between two
//! shims establishes their TCP connection inside `transfer_ns`
//! (1 001 400 ns on the paper testbed). The memo records that first
//! transfer and replays the establishment on every later hit; the plain
//! plane pays it once. Red test:
//! `memo_matches_plain_when_an_instance_crosses_nodes_twice`.
//!
//! **A hit does not change what the next miss sees.** A replayed edge
//! never runs on the wrapped plane, so state the real edge would have
//! left behind is missing: after a *hit* on `src → relay`, `relay` holds
//! no pending outbox, and a *miss* on `relay → sink` (its placement is
//! new) makes the wrapped plane deliver the payload to `relay` and run
//! its handler first — a `prepare_ns` (270 561 ns for 256 KB) the plain
//! run never pays. Within one placement an instance's edges hit or miss
//! together, so this too needs per-function placement, or an instance
//! aborted between its edges (a failure run). Red test:
//! `memo_matches_plain_when_only_the_second_edge_moves`.
//!
//! So: sound for `RuncPair` and `WasmedgePair` in **every** regime. A
//! pair's edge does not depend on earlier edges — its connection is
//! established before the first, and every edge serializes, frames and
//! parses afresh — so neither condition above can fail;
//! `tests/memo_properties.rs` checks them under link flaps and a node
//! kill. Sound for [`RoadrunnerPlane`] only under **whole-instance
//! placement** (`LocalityFirst`, `PackThenSpill`, `Pinned` to one node)
//! with no instance aborted between its edges: its relay outbox and
//! lazily established TCP connections carry state from one edge to the
//! next. The load figures (fig12–fig16) therefore wrap only
//! the pairs and run the Roadrunner plane for real. While they wrapped it
//! too, fig12's `spread` rows, fig14's `link_flap` / `kill_fixed` rows and
//! every fig16 cell (link flaps and deadlines abort instances between
//! edges) printed replayed values that were not the model's; fig16 was
//! never exact. A memo over the Roadrunner plane remains only in
//! `benchmark/`'s `cluster_load`.
//!
//! Side effects the memo does **not** replay: sandbox CPU/RAM telemetry
//! accounts. Do not memoize runs whose *measured output* includes
//! telemetry (the paper figures fig2–fig10); the load figures read only
//! virtual-time quantities and scheduler reservations.
//!
//! [`RoadrunnerPlane`]: https://docs.rs/roadrunner

use std::collections::HashMap;

use bytes::Bytes;
use roadrunner_vkernel::{Nanos, VirtualClock};

use crate::error::PlatformError;
use crate::wordhash::{self, PremixedBuild, WordBuild};
use crate::workflow::{DataPlane, TransferTiming};

/// Everything a recorded outcome is a function of, borrowed: the one
/// definition of the composite key, used both to mix the map key and to
/// verify a probed entry against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeKey<'k> {
    from: &'k str,
    to: &'k str,
    src: Option<usize>,
    dst: Option<usize>,
    len: usize,
    fingerprint: u64,
    epoch: u64,
}

impl EdgeKey<'_> {
    /// The map key: one multiply per word (names eight bytes at a time,
    /// length-terminated; `None` placement distinct from every node).
    fn mixed(&self) -> u64 {
        let node = |n: Option<usize>| n.map_or(0, |n| n as u64 + 1);
        let mut h = wordhash::mix_str(wordhash::SEED, self.from);
        h = wordhash::mix_str(h, self.to);
        h = wordhash::mix(h, node(self.src));
        h = wordhash::mix(h, node(self.dst));
        h = wordhash::mix(h, self.len as u64);
        h = wordhash::mix(h, self.fingerprint);
        wordhash::finish(wordhash::mix(h, self.epoch))
    }
}

/// One recorded transfer outcome, with the full key retained so a (once
/// in 2⁶⁴) composite-hash collision is detected and bypassed instead of
/// silently replaying the wrong edge.
#[derive(Debug, Clone)]
struct MemoEntry {
    from: String,
    to: String,
    src: Option<usize>,
    dst: Option<usize>,
    len: usize,
    fingerprint: u64,
    epoch: u64,
    received: Bytes,
    timing: Option<TransferTiming>,
    clock_advance_ns: Nanos,
}

impl MemoEntry {
    fn record(
        key: EdgeKey<'_>,
        received: Bytes,
        timing: Option<TransferTiming>,
        clock_advance_ns: Nanos,
    ) -> Self {
        Self {
            from: key.from.to_owned(),
            to: key.to.to_owned(),
            src: key.src,
            dst: key.dst,
            len: key.len,
            fingerprint: key.fingerprint,
            epoch: key.epoch,
            received,
            timing,
            clock_advance_ns,
        }
    }

    fn key(&self) -> EdgeKey<'_> {
        EdgeKey {
            from: &self.from,
            to: &self.to,
            src: self.src,
            dst: self.dst,
            len: self.len,
            fingerprint: self.fingerprint,
            epoch: self.epoch,
        }
    }
}

/// A transfer-cost memo over any [`DataPlane`] (see the [module
/// docs](self) for the soundness contract).
///
/// The first occurrence of an edge runs on the wrapped plane for real;
/// repeats replay the recorded received bytes (a reference-counted
/// handle, no copy), the recorded [`TransferTiming`] and the recorded
/// virtual-clock advance. Payloads are fingerprinted once per distinct
/// buffer: the fingerprint cache is keyed by the buffer's address and
/// length, and every fingerprinted buffer is pinned (a clone is held) so
/// an address can never be recycled for different bytes while the memo
/// lives.
pub struct MemoizedPlane<'a> {
    inner: &'a mut dyn DataPlane,
    clock: VirtualClock,
    /// Keyed by [`EdgeKey::mixed`], which is already a finished hash.
    entries: HashMap<u64, MemoEntry, PremixedBuild>,
    fingerprints: HashMap<(usize, usize), u64, WordBuild>,
    pinned: Vec<Bytes>,
    /// Link-health epoch mixed into every key: bumped by the load
    /// engines on each outage transition, so recordings made while a
    /// link was up are never replayed while it is down (and vice
    /// versa). Stays 0 when no failures are injected.
    health_epoch: u64,
    hits: u64,
    misses: u64,
    bypasses: u64,
}

impl std::fmt::Debug for MemoizedPlane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoizedPlane")
            .field("entries", &self.entries.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("bypasses", &self.bypasses)
            .finish_non_exhaustive()
    }
}

impl<'a> MemoizedPlane<'a> {
    /// Wraps `inner`, replaying recorded outcomes against `clock` (the
    /// same shared clock the wrapped plane advances as it works).
    pub fn new(inner: &'a mut dyn DataPlane, clock: VirtualClock) -> Self {
        Self {
            inner,
            clock,
            entries: HashMap::default(),
            fingerprints: HashMap::default(),
            pinned: Vec::new(),
            health_epoch: 0,
            hits: 0,
            misses: 0,
            bypasses: 0,
        }
    }

    /// Transfers served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Transfers that ran on the wrapped plane (and were recorded).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Transfers that ran uncached because a composite-hash collision was
    /// detected (expected to stay 0 in any realistic run).
    pub fn bypasses(&self) -> u64 {
        self.bypasses
    }

    /// Number of distinct transfers recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every recorded transfer and fingerprint (e.g. after the
    /// wrapped plane was redeployed).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.fingerprints.clear();
        self.pinned.clear();
    }

    /// The [`wordhash::fingerprint`] of `payload`, computed once per
    /// distinct buffer. The buffer is pinned so the `(address, length)`
    /// cache key stays unique for the memo's lifetime.
    fn fingerprint(&mut self, payload: &Bytes) -> u64 {
        if payload.is_empty() {
            return wordhash::fingerprint(&[]);
        }
        let key = (payload.as_ref().as_ptr() as usize, payload.len());
        if let Some(&fp) = self.fingerprints.get(&key) {
            return fp;
        }
        let fp = wordhash::fingerprint(payload);
        self.fingerprints.insert(key, fp);
        self.pinned.push(payload.clone());
        fp
    }
}

impl DataPlane for MemoizedPlane<'_> {
    fn transfer_placed(
        &mut self,
        from: &str,
        to: &str,
        payload: Bytes,
        src_node: Option<usize>,
        dst_node: Option<usize>,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        // The key uses the *effective* placement — the per-instance
        // override when one is given, the wrapped plane's deployment
        // placement otherwise — so an edge memoized colocated is never
        // replayed for an instance whose override separated it.
        let key = EdgeKey {
            from,
            to,
            src: src_node.or_else(|| self.inner.placement(from)),
            dst: dst_node.or_else(|| self.inner.placement(to)),
            len: payload.len(),
            fingerprint: self.fingerprint(&payload),
            epoch: self.health_epoch,
        };
        let mixed = key.mixed();
        match self.entries.get(&mixed) {
            Some(entry) if entry.key() == key => {
                // Hit: replay the recorded outcome, clock advance
                // included, so downstream virtual-time math is
                // indistinguishable from the real run.
                self.hits += 1;
                self.clock.advance(entry.clock_advance_ns);
                Ok((entry.received.clone(), entry.timing))
            }
            Some(_) => {
                // Composite-hash collision: run uncached rather than risk
                // replaying the wrong edge.
                self.bypasses += 1;
                self.inner.transfer_placed(from, to, payload, src_node, dst_node)
            }
            None => {
                self.misses += 1;
                let t0 = self.clock.now();
                let (received, timing) =
                    self.inner.transfer_placed(from, to, payload, src_node, dst_node)?;
                let clock_advance_ns = self.clock.now() - t0;
                self.entries.insert(
                    mixed,
                    MemoEntry::record(key, received.clone(), timing, clock_advance_ns),
                );
                Ok((received, timing))
            }
        }
    }

    fn placement(&self, function: &str) -> Option<usize> {
        self.inner.placement(function)
    }

    fn set_health_epoch(&mut self, epoch: u64) {
        self.health_epoch = epoch;
        self.inner.set_health_epoch(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{execute, execute_concurrent_at, WorkflowSpec};
    use roadrunner_vkernel::sched::SchedResources;

    /// A deterministic plane that counts real invocations, advances the
    /// clock, and transforms the payload (so replayed bytes are
    /// distinguishable from merely echoing the input).
    struct CountingPlane {
        clock: VirtualClock,
        calls: usize,
    }

    impl DataPlane for CountingPlane {
        fn transfer_placed(
            &mut self,
            _: &str,
            _: &str,
            p: Bytes,
            _: Option<usize>,
            _: Option<usize>,
        ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
            self.calls += 1;
            let transfer_ns = 1_000 + p.len() as u64;
            self.clock.advance(transfer_ns);
            let transformed: Vec<u8> = p.iter().map(|b| b.wrapping_add(1)).collect();
            Ok((
                Bytes::from(transformed),
                Some(TransferTiming { prepare_ns: 7, transfer_ns, consume_ns: 3 }),
            ))
        }

        fn placement(&self, function: &str) -> Option<usize> {
            Some(usize::from(function.len() % 2 == 1))
        }
    }

    #[test]
    fn repeated_transfers_hit_and_replay_exactly() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let payload = Bytes::from(vec![9u8; 500]);

        let real = {
            let mut probe = CountingPlane { clock: VirtualClock::new(), calls: 0 };
            probe.transfer_placed("a", "b", payload.clone(), None, None).unwrap()
        };

        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let first = memo.transfer_placed("a", "b", payload.clone(), None, None).unwrap();
        let t_after_first = clock.now();
        let second = memo.transfer_placed("a", "b", payload.clone(), None, None).unwrap();
        assert_eq!(first.0, real.0);
        assert_eq!(first.1, real.1);
        assert_eq!(second.0, first.0);
        assert_eq!(second.1, first.1);
        // The replay advanced the clock by exactly the recorded amount.
        assert_eq!(clock.now() - t_after_first, t_after_first);
        assert_eq!((memo.hits(), memo.misses(), memo.bypasses()), (1, 1, 0));
        assert_eq!(memo.len(), 1);
        drop(memo);
        assert_eq!(plane.calls, 1, "the wrapped plane ran once");
    }

    #[test]
    fn distinct_edges_payloads_and_placements_miss() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let p1 = Bytes::from(vec![1u8; 100]);
        let p2 = Bytes::from(vec![2u8; 100]);
        memo.transfer_placed("a", "b", p1.clone(), None, None).unwrap();
        memo.transfer_placed("a", "c", p1.clone(), None, None).unwrap(); // new edge
        memo.transfer_placed("a", "b", p2.clone(), None, None).unwrap(); // new bytes
        memo.transfer_placed("a", "b", p1.clone(), None, None).unwrap(); // hit
        assert_eq!((memo.hits(), memo.misses()), (1, 3));
        memo.clear();
        memo.transfer_placed("a", "b", p1, None, None).unwrap();
        assert_eq!(memo.misses(), 4, "clear() forgets recordings");
    }

    #[test]
    fn fingerprints_are_cached_per_buffer_and_pinned() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let contents: Vec<u8> = (0..1_000u32).map(|i| (i * 7) as u8).collect();
        let payload = Bytes::from(contents.clone());
        // Clones share a buffer: one fingerprint entry, one pin.
        for _ in 0..5 {
            memo.transfer_placed("x", "y", payload.clone(), None, None).unwrap();
        }
        assert_eq!(memo.fingerprints.len(), 1);
        assert_eq!(memo.pinned.len(), 1);
        // A byte-equal but distinct buffer gets its own cache entry, the
        // same fingerprint, and a hit.
        let twin = Bytes::from(contents);
        assert_ne!(twin.as_ptr(), payload.as_ptr());
        assert_eq!(memo.fingerprint(&twin), memo.fingerprint(&payload));
        assert_eq!(memo.fingerprints.len(), 2);
        memo.transfer_placed("x", "y", twin, None, None).unwrap();
        assert_eq!(memo.hits(), 5);
    }

    #[test]
    fn any_single_flipped_byte_moves_the_fingerprint() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock);
        // A fresh buffer per call: the cache cannot answer for the bytes.
        let mut fp = |bytes: &[u8]| memo.fingerprint(&Bytes::copy_from_slice(bytes));
        let flips = |fp: &mut dyn FnMut(&[u8]) -> u64, base: &[u8], at: usize| {
            let want = fp(base);
            for bit in [0x01, 0x80] {
                let mut flipped = base.to_vec();
                flipped[at] ^= bit;
                assert_ne!(fp(&flipped), want, "length {}, byte {at}, bit {bit:#x}", base.len());
            }
        };
        // Every length through one four-lane step (32 bytes) and the
        // tail words on either side of it.
        for len in 0..=40usize {
            let base: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5a).collect();
            for at in 0..len {
                flips(&mut fp, &base, at);
            }
        }
        let big: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 251) as u8).collect();
        for at in [0, 1, big.len() / 2, big.len() - 2, big.len() - 1] {
            flips(&mut fp, &big, at);
        }
        // The length is folded in: zero padding alone would not tell
        // these apart.
        assert_ne!(fp(&[1]), fp(&[1, 0]));
        assert_ne!(fp(&[]), fp(&[0]));
    }

    #[test]
    fn serial_engine_latencies_are_identical_under_the_memo() {
        let spec = WorkflowSpec::sequence(
            "wf",
            "t",
            ["a".to_owned(), "bb".to_owned(), "c".to_owned()],
        );
        let payload = Bytes::from(vec![8u8; 2_000]);

        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let plain = execute(&mut plane, &clock, &spec, payload.clone()).unwrap();

        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let first = execute(&mut memo, &clock, &spec, payload.clone()).unwrap();
        let repeat = execute(&mut memo, &clock, &spec, payload).unwrap();
        for run in [&first, &repeat] {
            assert_eq!(run.total_latency_ns, plain.total_latency_ns);
            for (a, b) in plain.edges.iter().zip(&run.edges) {
                assert_eq!(a.latency_ns, b.latency_ns);
                assert_eq!(a.checksum(), b.checksum());
            }
        }
        drop(memo);
        assert_eq!(plane.calls, 2, "second instance fully memoized");
    }

    #[test]
    fn health_epochs_partition_the_cache() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let p = Bytes::from(vec![5u8; 100]);
        memo.transfer_placed("a", "b", p.clone(), None, None).unwrap();
        memo.transfer_placed("a", "b", p.clone(), None, None).unwrap(); // hit
        memo.set_health_epoch(1);
        memo.transfer_placed("a", "b", p.clone(), None, None).unwrap(); // new epoch: miss
        memo.set_health_epoch(0);
        memo.transfer_placed("a", "b", p, None, None).unwrap(); // old epoch: hit again
        assert_eq!((memo.hits(), memo.misses()), (2, 2));
    }

    #[test]
    fn placement_overrides_key_separately_from_the_deployment() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let p = Bytes::from(vec![6u8; 100]);
        memo.transfer_placed("a", "b", p.clone(), None, None).unwrap();
        // Overrides matching the deployment placement (both "a" and "b"
        // sit on node 1 under CountingPlane's parity rule) share the
        // entry...
        memo.transfer_placed("a", "b", p.clone(), Some(1), Some(1)).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // ...while an override that moves an endpoint records afresh.
        memo.transfer_placed("a", "b", p.clone(), Some(1), Some(0)).unwrap();
        memo.transfer_placed("a", "b", p, Some(1), Some(0)).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (2, 2));
    }

    #[test]
    fn the_engines_resolved_placement_and_a_bare_transfer_share_one_entry() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let spec = WorkflowSpec::sequence("wf", "t", ["a".to_owned(), "bb".to_owned()]);
        let p = Bytes::from(vec![6u8; 100]);
        // The engine resolves `a` -> node 1, `bb` -> node 0 once per run
        // and passes both explicitly...
        let mut res = SchedResources::new(2, 4);
        execute_concurrent_at(&mut memo, &clock, &spec, p.clone(), &mut res, 0).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (0, 1));
        // ...which is the key a transfer with no placement falls back to.
        memo.transfer("a", "bb", p).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
    }

    fn key<'k>(from: &'k str, to: &'k str) -> EdgeKey<'k> {
        EdgeKey { from, to, src: Some(1), dst: Some(2), len: 100, fingerprint: 7, epoch: 0 }
    }

    #[test]
    fn every_key_field_moves_the_mixed_key() {
        let base = key("src", "relay");
        let variants = [
            base,
            // The boundary between the two names is part of the key.
            key("ab", "c"),
            key("a", "bc"),
            EdgeKey { src: None, ..base },
            EdgeKey { src: Some(0), ..base },
            EdgeKey { dst: None, ..base },
            EdgeKey { dst: Some(0), ..base },
            // Swapped endpoints are another edge.
            EdgeKey { src: base.dst, dst: base.src, ..base },
            EdgeKey { len: 101, ..base },
            EdgeKey { fingerprint: 8, ..base },
            EdgeKey { epoch: 1, ..base },
        ];
        let mixed: std::collections::HashSet<u64> = variants.iter().map(EdgeKey::mixed).collect();
        assert_eq!(mixed.len(), variants.len());
        // Names of every length around the eight-byte fold, on either
        // side of the edge.
        let name = "abcdefghijklmnopq";
        let lengths = [0, 7, 8, 9, 17];
        let mixed: std::collections::HashSet<u64> = lengths
            .iter()
            .flat_map(|&n| [key(&name[..n], "x").mixed(), key("x", &name[..n]).mixed()])
            .collect();
        assert_eq!(mixed.len(), 2 * lengths.len());
        // Equal keys mix equally, whatever buffer the names live in.
        assert_eq!(key(&String::from("src"), "relay").mixed(), base.mixed());
    }

    #[test]
    fn a_foreign_entry_under_a_live_key_is_bypassed_not_replayed() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let payload = Bytes::from(vec![4u8; 100]);
        // Plant another edge's recording under the key `a -> b` mixes to
        // — what a composite-hash collision would leave behind.
        let live = EdgeKey {
            from: "a",
            to: "b",
            src: Some(1),
            dst: Some(1),
            len: payload.len(),
            fingerprint: memo.fingerprint(&payload),
            epoch: 0,
        };
        let foreign = EdgeKey { from: "x", to: "y", ..live };
        memo.entries.insert(
            live.mixed(),
            MemoEntry::record(foreign, Bytes::from_static(b"foreign"), None, 1 << 40),
        );
        for round in 1..=2 {
            let (received, timing) = memo.transfer_placed("a", "b", payload.clone(), None, None).unwrap();
            // The real edge ran: transformed bytes, real timing, real
            // clock advance — and nothing was recorded over the entry.
            assert_eq!(received[0], 5);
            assert_eq!(timing.unwrap().transfer_ns, 1_100);
            assert_eq!(clock.now(), round * 1_100);
            assert_eq!((memo.hits(), memo.misses(), memo.bypasses()), (0, 0, round));
            assert_eq!(memo.len(), 1);
        }
        drop(memo);
        assert_eq!(plane.calls, 2);
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        struct Flaky {
            fail: bool,
        }
        impl DataPlane for Flaky {
            fn transfer_placed(
                &mut self,
                _: &str,
                _: &str,
                p: Bytes,
                _: Option<usize>,
                _: Option<usize>,
            ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
                if self.fail {
                    Err(PlatformError::Transfer("down".into()))
                } else {
                    Ok((p, None))
                }
            }
        }
        let clock = VirtualClock::new();
        let mut plane = Flaky { fail: true };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        assert!(memo.transfer("a", "b", Bytes::from_static(b"x")).is_err());
        assert!(memo.is_empty());
        drop(memo);
        // After the link recovers the transfer runs (nothing poisoned).
        plane.fail = false;
        let mut memo = MemoizedPlane::new(&mut plane, clock);
        assert!(memo.transfer("a", "b", Bytes::from_static(b"x")).is_ok());
        assert_eq!(memo.len(), 1);
    }
}
