//! Property tests of the one HTTP decoder, `http::parse_request`, on
//! hostile input: byte-mutated, truncated, and pipelined requests.
//!
//! Whatever the bytes, the decoder must not panic, and every call must
//! answer "need more bytes", one request with `0 < consumed <= buf.len()`,
//! or a typed `Malformed` error. A valid pipelined stream must decode to
//! the same requests however the socket happens to split it.

use gale_serve::http::{parse_request, HttpError};
use proptest::collection::vec;
use proptest::prelude::*;

/// One decoded request: method, path, body, keep-alive.
type Decoded = (String, String, Vec<u8>, bool);

/// Strategy for one valid request as `(wire bytes, what it must decode to)`.
fn valid_request() -> impl Strategy<Value = (Vec<u8>, Decoded)> {
    (
        0usize..3,
        "/[a-z0-9]{0,10}",
        0usize..2,
        0usize..3,
        vec((0u16..256).prop_map(|b| b as u8), 0..40),
    )
        .prop_map(|(method, path, version, connection, body)| {
            let method = ["GET", "POST", "put"][method];
            let version = ["HTTP/1.1", "HTTP/1.0"][version];
            let (header, keep_alive) = match connection {
                0 => ("", version == "HTTP/1.1"),
                1 => ("Connection: close\r\n", false),
                _ => ("connection: Keep-Alive\r\n", true),
            };
            let mut wire = format!(
                "{method} {path} {version}\r\nHost: t\r\n{header}Content-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            wire.extend_from_slice(&body);
            let decoded = (method.to_ascii_uppercase(), path, body, keep_alive);
            (wire, decoded)
        })
}

/// Strategy for a pipelined stream of one to four valid requests.
fn pipelined() -> impl Strategy<Value = (Vec<u8>, Vec<Decoded>)> {
    vec(valid_request(), 1..5).prop_map(|requests| {
        let mut wire = Vec::new();
        let mut decoded = Vec::new();
        for (bytes, d) in requests {
            wire.extend_from_slice(&bytes);
            decoded.push(d);
        }
        (wire, decoded)
    })
}

/// Decodes every complete request off the front of `buf` the way the event
/// loop does (drain what was consumed, ask again), checking the decoder's
/// contract on every call. Stops at the first incomplete or malformed
/// request; returns whether the buffer was malformed.
fn drain(buf: &mut Vec<u8>, out: &mut Vec<Decoded>) -> Result<bool, TestCaseError> {
    loop {
        match parse_request(buf) {
            Ok(Some((request, consumed))) => {
                prop_assert!(consumed > 0, "a request consumed no bytes");
                prop_assert!(
                    consumed <= buf.len(),
                    "consumed {consumed} of {} buffered bytes",
                    buf.len()
                );
                buf.drain(..consumed);
                out.push((
                    request.method,
                    request.path,
                    request.body,
                    request.keep_alive,
                ));
            }
            Ok(None) => return Ok(false),
            Err(HttpError::Malformed(_)) => return Ok(true),
        }
    }
}

/// One byte-level edit: `(kind, position, byte)`.
type Edit = (usize, usize, u8);

/// Applies `edits` to `wire`: overwrite, insert, delete, or flip a bit.
fn mutate(wire: &mut Vec<u8>, edits: &[Edit]) {
    for &(kind, pos, byte) in edits {
        let at = pos % (wire.len() + 1);
        match kind {
            0 if at < wire.len() => wire[at] = byte,
            1 => wire.insert(at, byte),
            2 if at < wire.len() => {
                wire.remove(at);
            }
            _ if at < wire.len() => wire[at] ^= 1 << (byte % 8),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn valid_pipelines_decode_the_same_at_every_split(stream in pipelined()) {
        let (wire, want) = stream;
        for split in 0..=wire.len() {
            let mut buf = wire[..split].to_vec();
            let mut got = Vec::new();
            prop_assert!(!drain(&mut buf, &mut got)?, "a prefix of {split} bytes was malformed");
            buf.extend_from_slice(&wire[split..]);
            prop_assert!(!drain(&mut buf, &mut got)?, "split at {split} was malformed");
            prop_assert!(buf.is_empty(), "split at {split} left {} bytes", buf.len());
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn mutated_requests_never_panic(
        stream in pipelined(),
        edits in vec((0usize..4, 0usize..4096, (0u16..256).prop_map(|b| b as u8)), 1..8),
    ) {
        let mut buf = stream.0;
        mutate(&mut buf, &edits);
        drain(&mut buf, &mut Vec::new())?;
    }

    #[test]
    fn truncated_requests_never_panic(stream in pipelined(), cut in 0usize..4096) {
        let (wire, want) = stream;
        let mut buf = wire[..cut % (wire.len() + 1)].to_vec();
        let mut got = Vec::new();
        prop_assert!(!drain(&mut buf, &mut got)?, "a truncated valid stream was malformed");
        // Whatever decoded is a prefix of the full stream's requests.
        prop_assert!(got.len() <= want.len());
        prop_assert_eq!(&got[..], &want[..got.len()]);
    }

    #[test]
    fn random_bytes_never_panic(bytes in vec((0u16..256).prop_map(|b| b as u8), 0..256)) {
        let mut buf = bytes;
        drain(&mut buf, &mut Vec::new())?;
    }
}
