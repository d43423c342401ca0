//! The binary frame layer: length-prefixed, checksummed frames.
//!
//! Every message on a simq connection is one frame:
//!
//! ```text
//! offset 0   MAGIC      4 bytes   b"SIMQ"
//! offset 4   version    u8        PROTOCOL_VERSION (2)
//! offset 5   frame type u8        FrameKind discriminant
//! offset 6   length     u32 LE    payload byte count
//! offset 10  payload    length bytes
//! offset 10+len  checksum  u64 LE  pages::checksum(header ‖ payload)
//! ```
//!
//! The checksum is the storage layer's word-wise checksum
//! ([`simq_storage::pages::checksum`]) over everything before it, so a
//! bit flip anywhere in the frame — header or payload — is detected
//! before the payload is interpreted. Decoding never panics on
//! arbitrary input: every malformed shape maps to a structured
//! [`WireError`] (pinned by `tests/server_fuzz.rs`).

use std::io::{Read, Write};

use simq_index::SerialError;
use simq_storage::pages::checksum;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"SIMQ";

/// The protocol version this build speaks. A version bump is a wire
/// break: both sides reject frames stamped with anything else.
pub const PROTOCOL_VERSION: u8 = 2;

/// Bytes before the payload: magic (4) + version (1) + kind (1) + len (4).
pub const HEADER_LEN: usize = 10;

/// Trailing checksum width.
pub const TRAILER_LEN: usize = 8;

/// Hard cap on one frame's payload. Large enough for any realistic
/// result chunk, small enough that a corrupted (or hostile) length
/// field cannot make the peer allocate gigabytes.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Every frame type in the protocol. Requests (client → server) sit
/// below `0x80`, responses (server → client) at or above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Handshake opener; must be the first frame on a connection.
    Hello = 0x01,
    /// Execute a query text, materialized.
    Query = 0x02,
    /// Register a named prepared statement.
    Prepare = 0x03,
    /// Execute a registered statement with bound arguments.
    Exec = 0x04,
    /// List the connection's registered statements.
    ListPrepared = 0x05,
    /// Open a streaming cursor with an initial row window.
    OpenCursor = 0x06,
    /// Grant the open cursor another row window.
    Fetch = 0x07,
    /// Close the open cursor before it is drained.
    CloseCursor = 0x08,
    /// Insert a batch of rows through the durable write path.
    Insert = 0x09,
    /// Liveness probe.
    Ping = 0x0A,
    /// Orderly connection close.
    Goodbye = 0x0B,

    /// Handshake accepted.
    HelloOk = 0x81,
    /// Materialized query result.
    Result = 0x82,
    /// Statement registered; carries the typed signature.
    PreparedOk = 0x83,
    /// Registry listing.
    PreparedList = 0x84,
    /// A chunk of cursor rows (one or more hits).
    Rows = 0x85,
    /// The granted window is exhausted; send `Fetch` for more.
    CursorSuspended = 0x86,
    /// The cursor is drained (or closed); carries final cursor stats.
    CursorDone = 0x87,
    /// Insert acknowledged; carries the write report.
    Inserted = 0x88,
    /// `Ping` reply.
    Pong = 0x89,
    /// `Goodbye` reply; the server closes after sending it.
    Bye = 0x8A,
    /// Any failure: malformed frame, query error, shutdown.
    Error = 0xFF,
}

impl FrameKind {
    /// Maps a wire discriminant back to a kind.
    ///
    /// # Errors
    /// [`WireError::UnknownKind`] for bytes outside the vocabulary.
    pub fn from_u8(b: u8) -> Result<FrameKind, WireError> {
        use FrameKind::*;
        Ok(match b {
            0x01 => Hello,
            0x02 => Query,
            0x03 => Prepare,
            0x04 => Exec,
            0x05 => ListPrepared,
            0x06 => OpenCursor,
            0x07 => Fetch,
            0x08 => CloseCursor,
            0x09 => Insert,
            0x0A => Ping,
            0x0B => Goodbye,
            0x81 => HelloOk,
            0x82 => Result,
            0x83 => PreparedOk,
            0x84 => PreparedList,
            0x85 => Rows,
            0x86 => CursorSuspended,
            0x87 => CursorDone,
            0x88 => Inserted,
            0x89 => Pong,
            0x8A => Bye,
            0xFF => Error,
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

/// Everything that can go wrong at the frame layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not open with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion(u8),
    /// The frame-type byte is outside the vocabulary.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u64),
    /// The input ends before the declared frame does.
    Truncated,
    /// The trailing checksum does not match the frame bytes.
    ChecksumMismatch,
    /// The payload's internal structure is invalid for its frame type.
    Malformed(String),
    /// The peer closed the connection cleanly (EOF between frames).
    Closed,
    /// An I/O failure on the underlying stream.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame type 0x{k:02x}"),
            WireError::Oversized(n) => {
                write!(
                    f,
                    "frame payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap"
                )
            }
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A payload field the shared byte codec cannot read is a malformed
/// payload.
impl From<SerialError> for WireError {
    fn from(e: SerialError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.to_string())
        }
    }
}

/// Encodes one complete frame (header, payload, checksum).
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    buf.extend_from_slice(&MAGIC);
    buf.push(PROTOCOL_VERSION);
    buf.push(kind as u8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = checksum(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Validates a frame header, returning the kind and payload length.
///
/// # Errors
/// [`WireError::BadMagic`] / [`UnsupportedVersion`](WireError::UnsupportedVersion)
/// / [`UnknownKind`](WireError::UnknownKind) /
/// [`Oversized`](WireError::Oversized).
pub fn decode_header(header: &[u8; HEADER_LEN]) -> Result<(FrameKind, usize), WireError> {
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion(header[4]));
    }
    let kind = FrameKind::from_u8(header[5])?;
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as u64;
    if len > MAX_PAYLOAD as u64 {
        return Err(WireError::Oversized(len));
    }
    Ok((kind, len as usize))
}

/// Decodes one frame from the front of `buf`, returning the kind, the
/// payload, and the total bytes consumed. Never panics on arbitrary
/// input — the frame-fuzz suite's contract.
///
/// # Errors
/// Any header error, [`WireError::Truncated`] when `buf` ends early,
/// [`WireError::ChecksumMismatch`] on corruption.
pub fn decode_frame(buf: &[u8]) -> Result<(FrameKind, Vec<u8>, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let (kind, len) = decode_header(&header)?;
    let total = HEADER_LEN + len + TRAILER_LEN;
    if buf.len() < total {
        return Err(WireError::Truncated);
    }
    let body = &buf[..HEADER_LEN + len];
    let mut sum_bytes = [0u8; 8];
    sum_bytes.copy_from_slice(&buf[HEADER_LEN + len..total]);
    if checksum(body) != u64::from_le_bytes(sum_bytes) {
        return Err(WireError::ChecksumMismatch);
    }
    Ok((kind, buf[HEADER_LEN..HEADER_LEN + len].to_vec(), total))
}

/// Writes one frame to a stream (no flush — callers batch and flush).
///
/// # Errors
/// [`WireError::Io`] on write failure.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), WireError> {
    w.write_all(&encode_frame(kind, payload))?;
    Ok(())
}

/// Reads one complete frame from a stream.
///
/// # Errors
/// [`WireError::Closed`] on EOF before the first byte (a clean
/// between-frames close); [`WireError::Truncated`] on EOF mid-frame;
/// header/checksum errors as in [`decode_frame`].
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), WireError> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(WireError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    read_frame_after(first[0], r)
}

/// Completes a frame read whose first byte was already consumed (the
/// server's shutdown-aware poll loop reads byte 0 with a timeout, then
/// hands over here for the blocking remainder).
///
/// # Errors
/// As [`read_frame`], except EOF anywhere is [`WireError::Truncated`].
pub fn read_frame_after(first: u8, r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    r.read_exact(&mut header[1..])?;
    let (kind, len) = decode_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut sum_bytes = [0u8; TRAILER_LEN];
    r.read_exact(&mut sum_bytes)?;
    let mut body = Vec::with_capacity(HEADER_LEN + len);
    body.extend_from_slice(&header);
    body.extend_from_slice(&payload);
    if checksum(&body) != u64::from_le_bytes(sum_bytes) {
        return Err(WireError::ChecksumMismatch);
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for (kind, payload) in [
            (FrameKind::Hello, b"".to_vec()),
            (FrameKind::Query, b"FIND ALL IN stocks".to_vec()),
            (FrameKind::Error, vec![0u8; 1000]),
        ] {
            let encoded = encode_frame(kind, &payload);
            let (k, p, used) = decode_frame(&encoded).expect("round trip");
            assert_eq!(k, kind);
            assert_eq!(p, payload);
            assert_eq!(used, encoded.len());
            // Stream path agrees with the buffer path.
            let mut r = &encoded[..];
            let (k2, p2) = read_frame(&mut r).expect("stream round trip");
            assert_eq!((k2, p2), (k, p));
        }
    }

    #[test]
    fn corruption_is_detected() {
        let encoded = encode_frame(FrameKind::Query, b"FIND ALL IN stocks");
        for i in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_frame(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let encoded = encode_frame(FrameKind::Query, b"FIND ALL IN stocks");
        for cut in 0..encoded.len() {
            assert_eq!(
                decode_frame(&encoded[..cut]).unwrap_err(),
                WireError::Truncated
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.push(PROTOCOL_VERSION);
        header.push(FrameKind::Query as u8);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut h = [0u8; HEADER_LEN];
        h.copy_from_slice(&header);
        assert!(matches!(decode_header(&h), Err(WireError::Oversized(_))));
    }
}
