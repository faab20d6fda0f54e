//! Property tests for the incremental HTTP parser: feeding a message in
//! arbitrary byte-chunk splits must yield the identical parse as feeding
//! it in one shot, and no prefix strictly shorter than the full message
//! may ever produce a message.
//!
//! This is the invariant the baselines' streaming path leans on — TCP
//! delivers HTTP heads and bodies at whatever chunk boundaries the link
//! model produces, and the reassembled message must not depend on them.
//!
//! The last two properties feed it what a peer is free to send instead —
//! noise, and real messages with bytes flipped, cut out or spliced in —
//! and ask only that every poll answers `Ok` or `Err`: no panic, no
//! arithmetic overflow (CI runs them in release with overflow checks on
//! as well as in debug).

use proptest::prelude::*;
use roadrunner_http::{MessageReader, Request, Response};

/// Splitmix-style generator so chunk boundaries derive deterministically
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

/// Splits `raw` into random contiguous chunks (each 1..=max_chunk bytes).
fn random_chunks(raw: &[u8], seed: u64, max_chunk: usize) -> Vec<Vec<u8>> {
    let mut rng = Mix(seed);
    let mut chunks = Vec::new();
    let mut pos = 0;
    while pos < raw.len() {
        let take = 1 + rng.below(max_chunk as u64) as usize;
        let end = (pos + take).min(raw.len());
        chunks.push(raw[pos..end].to_vec());
        pos = end;
    }
    chunks
}

/// A deterministic pseudo-random body that exercises every byte value.
fn body_of(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Mix(seed ^ 0xB0D7);
    (0..len).map(|_| rng.next() as u8).collect()
}

fn parse_request_oneshot(raw: &[u8]) -> Request {
    let mut reader = MessageReader::new();
    reader.feed(raw);
    reader.try_request().expect("well-formed").expect("complete")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunked_feeding_matches_oneshot_request_parse(
        body_len in 0usize..5_000,
        max_chunk in 1usize..512,
        seed in any::<u64>(),
    ) {
        let body = body_of(body_len, seed);
        let request = Request::post("/invoke", body.clone()).with_header("x-tenant", "acme");
        let raw = request.to_bytes();
        let expected = parse_request_oneshot(&raw);

        let mut reader = MessageReader::new();
        let chunks = random_chunks(&raw, seed, max_chunk);
        for (i, chunk) in chunks.iter().enumerate() {
            let is_last = i + 1 == chunks.len();
            let parsed = reader.try_request().expect("never malformed mid-stream");
            // No strict prefix may complete the message.
            prop_assert!(parsed.is_none(), "parsed early at chunk {i}");
            reader.feed(chunk);
            if is_last {
                let parsed = reader.try_request().expect("well-formed")
                    .expect("all bytes fed");
                prop_assert_eq!(&parsed.method, &expected.method);
                prop_assert_eq!(&parsed.path, &expected.path);
                prop_assert_eq!(&parsed.headers, &expected.headers);
                prop_assert_eq!(&parsed.body[..], &expected.body[..]);
                prop_assert_eq!(reader.buffered(), 0);
            }
        }
    }

    #[test]
    fn chunked_feeding_matches_oneshot_response_parse(
        body_len in 0usize..5_000,
        max_chunk in 1usize..512,
        seed in any::<u64>(),
    ) {
        let body = body_of(body_len, seed);
        let response = Response::ok(body.clone());
        let raw = response.to_bytes();

        let mut oneshot = MessageReader::new();
        oneshot.feed(&raw);
        let expected = oneshot.try_response().unwrap().unwrap();

        let mut reader = MessageReader::new();
        for chunk in random_chunks(&raw, seed, max_chunk) {
            reader.feed(&chunk);
        }
        let parsed = reader.try_response().unwrap().expect("all bytes fed");
        prop_assert_eq!(parsed.status, expected.status);
        prop_assert_eq!(&parsed.reason, &expected.reason);
        prop_assert_eq!(&parsed.body[..], &expected.body[..]);
        prop_assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn chunked_transfer_encoding_survives_any_split(
        chunk_sizes in proptest::collection::vec(1usize..600, 1..6),
        max_chunk in 1usize..64,
        seed in any::<u64>(),
    ) {
        // Build a chunked-framed request by hand from random chunk sizes.
        let mut body = Vec::new();
        let mut framed = Vec::new();
        framed.extend_from_slice(
            b"POST /chunked HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        );
        for (i, &size) in chunk_sizes.iter().enumerate() {
            let data = body_of(size, seed.wrapping_add(i as u64));
            framed.extend_from_slice(format!("{size:x}\r\n").as_bytes());
            framed.extend_from_slice(&data);
            framed.extend_from_slice(b"\r\n");
            body.extend_from_slice(&data);
        }
        framed.extend_from_slice(b"0\r\n\r\n");

        let expected = parse_request_oneshot(&framed);
        prop_assert_eq!(&expected.body[..], &body[..]);

        let mut reader = MessageReader::new();
        let chunks = random_chunks(&framed, seed ^ 0xC4A2, max_chunk);
        for chunk in &chunks[..chunks.len() - 1] {
            reader.feed(chunk);
            prop_assert!(reader.try_request().expect("never malformed").is_none());
        }
        reader.feed(chunks.last().expect("framed message is non-empty"));
        let parsed = reader.try_request().unwrap().expect("all bytes fed");
        prop_assert_eq!(&parsed.body[..], &body[..]);
        prop_assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn pipelined_messages_parse_identically_under_any_split(
        first_len in 0usize..1_000,
        second_len in 0usize..1_000,
        max_chunk in 1usize..256,
        seed in any::<u64>(),
    ) {
        let a = Request::post("/a", body_of(first_len, seed));
        let b = Request::post("/b", body_of(second_len, seed ^ 1));
        let mut raw = a.to_bytes().to_vec();
        raw.extend_from_slice(&b.to_bytes());

        let mut reader = MessageReader::new();
        for chunk in random_chunks(&raw, seed ^ 0x99, max_chunk) {
            reader.feed(&chunk);
        }
        let first = reader.try_request().unwrap().expect("first message complete");
        let second = reader.try_request().unwrap().expect("second message complete");
        prop_assert_eq!(&first.path, "/a");
        prop_assert_eq!(&second.path, "/b");
        prop_assert_eq!(&first.body[..], &a.body[..]);
        prop_assert_eq!(&second.body[..], &b.body[..]);
        prop_assert!(reader.try_request().unwrap().is_none());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        noise in proptest::collection::vec(any::<u8>(), 0..400),
        max_chunk in 1usize..64,
        seed in any::<u64>(),
    ) {
        // Raw noise rarely gets past the head; a well-formed start line
        // in front of it reaches the header and body paths too.
        let prefixes: [&[u8]; 4] = [
            b"",
            b"POST /f HTTP/1.1\r\n",
            b"HTTP/1.1 200 OK\r\n",
            b"POST /c HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ];
        for prefix in prefixes {
            let wire = [prefix, &noise].concat();
            poll_through(&wire, seed, max_chunk);
        }
    }

    #[test]
    fn mutated_messages_never_panic_the_reader(
        body_len in 0usize..300,
        max_chunk in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = Mix(seed ^ 0x4057);
        let body = body_of(body_len, seed);
        let mut chunked = b"POST /c HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        for piece in body.chunks(37) {
            chunked.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            chunked.extend_from_slice(piece);
            chunked.extend_from_slice(b"\r\n");
        }
        chunked.extend_from_slice(b"0\r\n\r\n");
        let originals = [
            Request::post("/invoke", body.clone()).with_header("x-tenant", "acme").to_bytes().to_vec(),
            Response::ok(body.clone()).to_bytes().to_vec(),
            chunked,
        ];
        for original in &originals {
            for _ in 0..8 {
                let mut wire = original.clone();
                for _ in 0..1 + rng.below(3) {
                    mutate(&mut wire, &mut rng);
                }
                poll_through(&wire, rng.next(), max_chunk);
            }
        }
    }
}

/// Header and chunk-framing fragments that steer a mutant down the
/// parser's less travelled paths: absurd lengths, a second body framing,
/// stray line ends, bytes that are not UTF-8.
const SPLICES: &[&[u8]] = &[
    b"\r\n",
    b"\r\n\r\n",
    b":",
    b"content-length: 18446744073709551615\r\n",
    b"content-length: -1\r\n",
    b"transfer-encoding: chunked\r\n",
    b"ffffffffffffffff\r\n",
    b"fffffffffffffffe\r\n",
    b"0\r\n\r\n",
    b"+7\r\n",
    b"\xff\xfe",
    b" ",
];

/// One random edit of `wire` — flip a byte, cut a range out, cut the tail
/// off, or splice a fragment in — half the time at the start of a line,
/// where the parser looks for a header or a chunk size.
fn mutate(wire: &mut Vec<u8>, rng: &mut Mix) {
    let mut at = rng.below(wire.len() as u64 + 1) as usize;
    if rng.below(2) == 0 {
        let line_starts: Vec<usize> =
            wire.windows(2).enumerate().filter(|(_, w)| w == b"\r\n").map(|(i, _)| i + 2).collect();
        if !line_starts.is_empty() {
            at = line_starts[rng.below(line_starts.len() as u64) as usize];
        }
    }
    match rng.below(5) {
        0 if at < wire.len() => wire[at] ^= 1 << rng.below(8),
        1 => {
            let end = (at + rng.below(24) as usize).min(wire.len());
            wire.drain(at..end);
        }
        2 => wire.truncate(at),
        _ => {
            let splice = SPLICES[rng.below(SPLICES.len() as u64) as usize];
            wire.splice(at..at, splice.iter().copied());
        }
    }
}

/// Feeds `wire` in random pieces to a reader polled for requests and to
/// one polled for responses. Any outcome is fine; the point is that
/// every poll has one.
fn poll_through(wire: &[u8], seed: u64, max_chunk: usize) {
    let chunks = random_chunks(wire, seed, max_chunk);
    connection_loop(&chunks, |reader| reader.try_request().map(|message| message.is_some()));
    connection_loop(&chunks, |reader| reader.try_response().map(|message| message.is_some()));
}

/// What a connection does with its reader: poll after every piece, keep
/// polling while messages come out, hang up on the first error.
fn connection_loop<E>(chunks: &[Vec<u8>], poll: impl Fn(&mut MessageReader) -> Result<bool, E>) {
    let mut reader = MessageReader::new();
    for chunk in chunks {
        reader.feed(chunk);
        loop {
            match poll(&mut reader) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => return,
            }
        }
    }
}
