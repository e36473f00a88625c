//! The `perfport-serve` wire frames: length-prefixed, versioned,
//! little-endian — see `DESIGN.md` § "perfport-serve wire protocol" for
//! the normative grammar.
//!
//! Every frame travels as an 8-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N, u32 LE (0 ..= MAX_PAYLOAD)
//! 4       1     protocol version (PROTOCOL_VERSION = 2)
//! 5       1     frame tag (1=Hello 2=Lease 3=Result 4=Heartbeat 5=Bye)
//! 6       2     reserved, must be zero
//! 8       N     payload (per-tag field layout, ints LE, strings
//!               u32-length-prefixed UTF-8)
//! ```
//!
//! Decoding is **total**: any byte sequence either yields a frame or a
//! typed [`FrameError`] — truncation, oversize, bad version/tag/reserved
//! bits, malformed payloads, and trailing garbage are all errors, never
//! panics. The property tests in `tests/frame_props.rs` fuzz this
//! contract.
//!
//! # Examples
//!
//! A frame survives the encode/decode round trip bit for bit:
//!
//! ```
//! use perfport_serve::frame::Frame;
//!
//! let frame = Frame::Lease { lease_id: 7, start: 8, end: 12 };
//! let bytes = frame.encode();
//! assert_eq!(Frame::decode_exact(&bytes).unwrap(), frame);
//!
//! // Truncation is a typed error, not a panic.
//! assert!(Frame::decode_exact(&bytes[..bytes.len() - 1]).is_err());
//! ```

use std::fmt;

/// The wire-protocol version this build speaks. Stamped into every
/// frame header; decoders reject anything else with
/// [`FrameError::BadVersion`], which the coordinator answers with a
/// `Bye` naming its own version (there is nothing to negotiate *to*,
/// so mismatches part ways loudly); `DESIGN.md` lists what version 2
/// changed.
pub const PROTOCOL_VERSION: u8 = 2;

/// Fixed header length in bytes (length + version + tag + reserved).
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame payload (64 MiB). A length field above this
/// is rejected before any allocation ([`FrameError::Oversized`]), so a
/// corrupt or hostile peer cannot make the decoder reserve memory.
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// Which side of the protocol a `Hello` frame speaks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A worker offering to execute leased grid ranges.
    Worker,
    /// The coordinator that owns the grid and grants leases.
    Coordinator,
}

impl Role {
    fn to_byte(self) -> u8 {
        match self {
            Role::Worker => 0,
            Role::Coordinator => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Role> {
        match b {
            0 => Some(Role::Worker),
            1 => Some(Role::Coordinator),
            _ => None,
        }
    }

    /// The role's lowercase wire name (`"worker"` / `"coordinator"`).
    pub fn name(self) -> &'static str {
        match self {
            Role::Worker => "worker",
            Role::Coordinator => "coordinator",
        }
    }
}

/// One protocol message. See the module docs for the byte layout and
/// `DESIGN.md` for when each frame is legal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Session opener, sent once by each side. The worker's `detail` is
    /// its one-line `perfport-manifest/1` JSON, the only copy of it the
    /// session carries; the coordinator replies with the study spec
    /// (`ids=...;quick=0|1;ttl_ms=N`) so both sides enumerate the
    /// identical grid and the worker knows when to heartbeat.
    Hello {
        /// Which side is speaking.
        role: Role,
        /// Stable peer name (`"w0"`, `"coordinator"`); keys the joined
        /// artifact's manifest trailer, so workers should pick unique
        /// idents.
        ident: String,
        /// Role-dependent payload: worker manifest JSON or coordinator
        /// study spec.
        detail: String,
    },
    /// Coordinator → worker: run canonical grid indices `start..end`.
    Lease {
        /// Coordinator-unique lease identifier; echoed by `Heartbeat`
        /// and `Result` so stale deliveries are attributable.
        lease_id: u64,
        /// First canonical grid index of the leased range (inclusive).
        start: u64,
        /// One past the last canonical grid index (exclusive).
        end: u64,
    },
    /// Worker → coordinator: the leased range's finished artifact.
    Result {
        /// The lease being fulfilled.
        lease_id: u64,
        /// Echo of the leased range start (coordinator cross-checks).
        start: u64,
        /// Echo of the leased range end.
        end: u64,
        /// Headerless per-point study CSV, one line per grid index in
        /// canonical order — exactly the bytes `--shard` mode would
        /// print for these indices.
        csv: String,
    },
    /// Worker → coordinator liveness: `done` points of the lease are
    /// finished. Sent only after a point that ends at least `ttl / 2`
    /// after the worker's previous frame. Like every worker frame, it
    /// pushes the deadline of each lease the worker holds out by one
    /// TTL; a lease that misses its deadline is re-leased.
    Heartbeat {
        /// The lease being worked.
        lease_id: u64,
        /// Points completed so far within the lease (monotone, 1-based).
        done: u64,
    },
    /// Orderly goodbye from either side; the receiver must not expect
    /// further frames on this connection.
    Bye {
        /// Human-readable reason (`"complete"`, `"version mismatch"`).
        reason: String,
    },
}

/// A decoding failure. Every variant names what the decoder saw, so a
/// coordinator can log *why* a peer's bytes were refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does; `need` more bytes.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Additional bytes required to finish header or payload.
        need: usize,
    },
    /// The header's length field exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// The header's version byte is not [`PROTOCOL_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The header's tag byte names no known frame.
    BadTag {
        /// The tag byte received.
        got: u8,
    },
    /// The header's reserved bytes were not zero.
    BadReserved {
        /// The reserved field received.
        got: u16,
    },
    /// The payload of an otherwise well-formed frame did not parse.
    BadPayload {
        /// Which frame kind was being decoded.
        frame: &'static str,
        /// What went wrong (short field-level description).
        detail: String,
    },
    /// `decode_exact` found bytes after a complete frame.
    TrailingBytes {
        /// How many surplus bytes followed the frame.
        extra: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need} more")
            }
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "oversized frame: payload {len} bytes > max {MAX_PAYLOAD}"
                )
            }
            FrameError::BadVersion { got } => {
                write!(
                    f,
                    "protocol version {got} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::BadTag { got } => write!(f, "unknown frame tag {got}"),
            FrameError::BadReserved { got } => {
                write!(f, "reserved header bytes must be zero, got {got:#06x}")
            }
            FrameError::BadPayload { frame, detail } => {
                write!(f, "malformed {frame} payload: {detail}")
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Outcome of one incremental decode attempt over a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeStep {
    /// Not enough bytes buffered yet for a whole frame; read at least
    /// `need` more and retry. This is the streaming half of the codec —
    /// TCP readers loop on it.
    Incomplete {
        /// Additional bytes required (lower bound).
        need: usize,
    },
    /// A complete frame, occupying the first `consumed` buffer bytes.
    Ready {
        /// The decoded frame.
        frame: Frame,
        /// Bytes the frame occupied; drain these before retrying.
        consumed: usize,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_LEASE: u8 = 2;
const TAG_RESULT: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;
const TAG_BYE: u8 = 5;

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn string(&mut self, s: &str) {
        self.buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    frame: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], frame: &'static str) -> Reader<'a> {
        Reader { buf, pos: 0, frame }
    }

    fn bad(&self, detail: impl Into<String>) -> FrameError {
        FrameError::BadPayload {
            frame: self.frame,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| self.bad(format!("{what}: payload ends early")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn string(&mut self, what: &str) -> Result<String, FrameError> {
        let len = u32::from_le_bytes(self.take(4, what)?.try_into().expect("4-byte slice"));
        let bytes = self.take(len as usize, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.bad(format!("{what}: invalid UTF-8")))
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.bad(format!(
                "{} unread payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

impl Frame {
    /// The frame's lowercase wire name (for logs and errors).
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Lease { .. } => "lease",
            Frame::Result { .. } => "result",
            Frame::Heartbeat { .. } => "heartbeat",
            Frame::Bye { .. } => "bye",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TAG_HELLO,
            Frame::Lease { .. } => TAG_LEASE,
            Frame::Result { .. } => TAG_RESULT,
            Frame::Heartbeat { .. } => TAG_HEARTBEAT,
            Frame::Bye { .. } => TAG_BYE,
        }
    }

    /// Serializes the frame: header ([`HEADER_LEN`] bytes) + payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Frame::Hello {
                role,
                ident,
                detail,
            } => {
                w.u8(role.to_byte());
                w.string(ident);
                w.string(detail);
            }
            Frame::Lease {
                lease_id,
                start,
                end,
            } => {
                w.u64(*lease_id);
                w.u64(*start);
                w.u64(*end);
            }
            Frame::Result {
                lease_id,
                start,
                end,
                csv,
            } => {
                w.u64(*lease_id);
                w.u64(*start);
                w.u64(*end);
                w.string(csv);
            }
            Frame::Heartbeat { lease_id, done } => {
                w.u64(*lease_id);
                w.u64(*done);
            }
            Frame::Bye { reason } => w.string(reason),
        }
        let payload = w.buf;
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.push(PROTOCOL_VERSION);
        out.push(self.tag());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Incremental decode over a (possibly still-filling) buffer:
    /// returns [`DecodeStep::Incomplete`] when more bytes are needed, a
    /// frame plus its consumed length when one is complete, or a typed
    /// [`FrameError`] for bytes that can never become a valid frame.
    pub fn decode_step(buf: &[u8]) -> Result<DecodeStep, FrameError> {
        if buf.len() < HEADER_LEN {
            return Ok(DecodeStep::Incomplete {
                need: HEADER_LEN - buf.len(),
            });
        }
        let len = u32::from_le_bytes(buf[0..4].try_into().expect("4-byte slice"));
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversized { len });
        }
        let version = buf[4];
        if version != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion { got: version });
        }
        let tag = buf[5];
        let reserved = u16::from_le_bytes(buf[6..8].try_into().expect("2-byte slice"));
        if reserved != 0 {
            return Err(FrameError::BadReserved { got: reserved });
        }
        let total = HEADER_LEN + len as usize;
        if buf.len() < total {
            return Ok(DecodeStep::Incomplete {
                need: total - buf.len(),
            });
        }
        let frame = Frame::decode_payload(tag, &buf[HEADER_LEN..total])?;
        Ok(DecodeStep::Ready {
            frame,
            consumed: total,
        })
    }

    /// Decodes a buffer that must hold exactly one frame (the datagram
    /// form used by the loopback transport and the property tests).
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when the buffer ends early and
    /// [`FrameError::TrailingBytes`] when bytes follow the frame, plus
    /// everything [`Frame::decode_step`] can return.
    pub fn decode_exact(buf: &[u8]) -> Result<Frame, FrameError> {
        match Frame::decode_step(buf)? {
            DecodeStep::Incomplete { need } => Err(FrameError::Truncated {
                have: buf.len(),
                need,
            }),
            DecodeStep::Ready { frame, consumed } if consumed == buf.len() => Ok(frame),
            DecodeStep::Ready { consumed, .. } => Err(FrameError::TrailingBytes {
                extra: buf.len() - consumed,
            }),
        }
    }

    fn decode_payload(tag: u8, payload: &[u8]) -> Result<Frame, FrameError> {
        match tag {
            TAG_HELLO => {
                let mut r = Reader::new(payload, "hello");
                let role_byte = r.u8("role")?;
                let role = Role::from_byte(role_byte)
                    .ok_or_else(|| r.bad(format!("unknown role byte {role_byte}")))?;
                let ident = r.string("ident")?;
                let detail = r.string("detail")?;
                r.finish()?;
                Ok(Frame::Hello {
                    role,
                    ident,
                    detail,
                })
            }
            TAG_LEASE => {
                let mut r = Reader::new(payload, "lease");
                let lease_id = r.u64("lease_id")?;
                let start = r.u64("start")?;
                let end = r.u64("end")?;
                r.finish()?;
                Ok(Frame::Lease {
                    lease_id,
                    start,
                    end,
                })
            }
            TAG_RESULT => {
                let mut r = Reader::new(payload, "result");
                let lease_id = r.u64("lease_id")?;
                let start = r.u64("start")?;
                let end = r.u64("end")?;
                let csv = r.string("csv")?;
                r.finish()?;
                Ok(Frame::Result {
                    lease_id,
                    start,
                    end,
                    csv,
                })
            }
            TAG_HEARTBEAT => {
                let mut r = Reader::new(payload, "heartbeat");
                let lease_id = r.u64("lease_id")?;
                let done = r.u64("done")?;
                r.finish()?;
                Ok(Frame::Heartbeat { lease_id, done })
            }
            TAG_BYE => {
                let mut r = Reader::new(payload, "bye");
                let reason = r.string("reason")?;
                r.finish()?;
                Ok(Frame::Bye { reason })
            }
            got => Err(FrameError::BadTag { got }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello {
                role: Role::Worker,
                ident: "w0".to_string(),
                detail: "{\"schema\": \"perfport-manifest/1\"}".to_string(),
            },
            Frame::Hello {
                role: Role::Coordinator,
                ident: "coordinator".to_string(),
                detail: "ids=fig5c;quick=1".to_string(),
            },
            Frame::Lease {
                lease_id: 1,
                start: 0,
                end: 4,
            },
            Frame::Result {
                lease_id: 1,
                start: 0,
                end: 2,
                csv: "fig5c,AmpereAltra,KokkosOmp,FP32,1024,1.0,2e-1,Compute,0e0,ok\n".to_string(),
            },
            Frame::Heartbeat {
                lease_id: 1,
                done: 3,
            },
            Frame::Bye {
                reason: "complete".to_string(),
            },
        ]
    }

    #[test]
    fn round_trip_every_frame_kind() {
        for frame in samples() {
            let bytes = frame.encode();
            assert_eq!(Frame::decode_exact(&bytes), Ok(frame.clone()), "{frame:?}");
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for frame in samples() {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                match Frame::decode_exact(&bytes[..cut]) {
                    Err(FrameError::Truncated { have, need }) => {
                        assert_eq!(have, cut);
                        assert!(need > 0);
                    }
                    other => panic!("cut at {cut} of {frame:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn streaming_decode_consumes_one_frame_and_reports_need() {
        let a = Frame::Heartbeat {
            lease_id: 9,
            done: 1,
        }
        .encode();
        let b = Frame::Bye {
            reason: "x".to_string(),
        }
        .encode();
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        match Frame::decode_step(&buf).unwrap() {
            DecodeStep::Ready { frame, consumed } => {
                assert_eq!(
                    frame,
                    Frame::Heartbeat {
                        lease_id: 9,
                        done: 1
                    }
                );
                assert_eq!(consumed, a.len());
                // The remainder is exactly frame b.
                assert_eq!(
                    Frame::decode_exact(&buf[consumed..]),
                    Ok(Frame::Bye {
                        reason: "x".to_string()
                    })
                );
            }
            other => panic!("{other:?}"),
        }
        match Frame::decode_step(&a[..3]).unwrap() {
            DecodeStep::Incomplete { need } => assert_eq!(need, HEADER_LEN - 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_header_fields_are_rejected() {
        let mut bytes = Frame::Bye {
            reason: "ok".to_string(),
        }
        .encode();
        bytes[4] = PROTOCOL_VERSION + 1; // future version
        assert_eq!(
            Frame::decode_exact(&bytes),
            Err(FrameError::BadVersion {
                got: PROTOCOL_VERSION + 1
            })
        );
        bytes[4] = PROTOCOL_VERSION;
        bytes[5] = 77; // unknown tag
        assert_eq!(
            Frame::decode_exact(&bytes),
            Err(FrameError::BadTag { got: 77 })
        );
        bytes[5] = TAG_BYE;
        bytes[6] = 1; // reserved bits
        assert!(matches!(
            Frame::decode_exact(&bytes),
            Err(FrameError::BadReserved { .. })
        ));
    }

    #[test]
    fn a_v1_header_is_refused_with_its_version() {
        // A v1 `Result` still carried the manifest; whatever the payload,
        // the version byte alone refuses it.
        let mut bytes = Frame::Bye {
            reason: "complete".to_string(),
        }
        .encode();
        bytes[4] = 1;
        assert_eq!(
            Frame::decode_exact(&bytes),
            Err(FrameError::BadVersion { got: 1 })
        );
        assert_eq!(
            Frame::decode_step(&bytes),
            Err(FrameError::BadVersion { got: 1 })
        );
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[0..4].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        bytes[4] = PROTOCOL_VERSION;
        bytes[5] = TAG_BYE;
        assert_eq!(
            Frame::decode_exact(&bytes),
            Err(FrameError::Oversized {
                len: MAX_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Frame::Heartbeat {
            lease_id: 1,
            done: 1,
        }
        .encode();
        bytes.push(0xFF);
        assert_eq!(
            Frame::decode_exact(&bytes),
            Err(FrameError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn inner_string_lengths_cannot_escape_the_payload() {
        // A hello whose ident length field claims more bytes than the
        // payload holds must fail as BadPayload, not panic or over-read.
        let mut w = Writer::new();
        w.u8(0);
        w.buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let payload = w.buf;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.push(PROTOCOL_VERSION);
        bytes.push(TAG_HELLO);
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            Frame::decode_exact(&bytes),
            Err(FrameError::BadPayload { frame: "hello", .. })
        ));
    }
}
