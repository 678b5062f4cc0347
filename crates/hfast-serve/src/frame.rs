//! Length-prefixed framing over a byte stream.
//!
//! Every message — request or response — is a 4-byte big-endian length
//! followed by that many bytes of UTF-8 JSON. Frames are bounded by
//! [`MAX_FRAME_BYTES`]: an oversized length prefix is rejected *before*
//! any allocation, so a hostile prefix cannot balloon memory, and the
//! reader distinguishes a clean end-of-stream (EOF between frames) from a
//! truncated frame (EOF inside one).
//!
//! [`FrameReader`] is incremental: the server reads under a short socket
//! timeout so it can poll its shutdown flag, and a timeout mid-frame must
//! not lose the bytes already consumed. All partial state lives in the
//! reader, so a `WouldBlock`/`TimedOut` tick is simply retried.

use std::io::{self, Read, Write};

/// Upper bound on one frame's payload (1 MiB) — generous for inline
/// graphs at study sizes, tight enough to bound per-connection memory.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly between frames.
    Eof,
    /// The stream ended mid-frame (prefix or payload cut short).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// The payload is not valid UTF-8.
    NotUtf8,
    /// An underlying I/O error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_BYTES} cap")
            }
            FrameError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One step of incremental frame reading.
#[derive(Debug)]
pub enum FramePoll {
    /// A complete frame.
    Frame(String),
    /// A read timeout ticked; no complete frame yet. Retry after checking
    /// whatever the timeout was installed to let you check.
    Pending,
}

/// Incremental frame reader that survives read timeouts without losing
/// partially-read bytes.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Payload length once the prefix is complete.
    target: Option<usize>,
}

impl FrameReader {
    /// A reader positioned between frames.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// True when a frame is partially read (drain decisions key on this:
    /// an idle connection can close, a mid-frame one is owed patience).
    pub(crate) fn mid_frame(&self) -> bool {
        !self.buf.is_empty() || self.target.is_some()
    }

    /// Drives the reader until a frame completes, the stream times out
    /// ([`FramePoll::Pending`]), or an error occurs. After an error the
    /// reader must not be reused (the stream position is undefined).
    pub fn poll(&mut self, r: &mut impl Read) -> Result<FramePoll, FrameError> {
        loop {
            // Resolve the prefix as soon as four bytes are in.
            if self.target.is_none() && self.buf.len() >= 4 {
                let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                    as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(FrameError::Oversized(len));
                }
                self.target = Some(len);
                self.buf.drain(..4);
            }
            if let Some(len) = self.target {
                if self.buf.len() >= len {
                    let payload: Vec<u8> = self.buf.drain(..len).collect();
                    self.target = None;
                    return String::from_utf8(payload)
                        .map(FramePoll::Frame)
                        .map_err(|_| FrameError::NotUtf8);
                }
            }
            let want = match self.target {
                Some(len) => len - self.buf.len(),
                None => 4 - self.buf.len(),
            };
            let mut chunk = vec![0u8; want.max(1)];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.mid_frame() {
                        FrameError::Truncated
                    } else {
                        FrameError::Eof
                    });
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(FramePoll::Pending);
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

/// Reads one frame, blocking until it completes (no-timeout streams).
pub fn read_frame(r: &mut impl Read) -> Result<String, FrameError> {
    let mut reader = FrameReader::new();
    loop {
        match reader.poll(r)? {
            FramePoll::Frame(s) => return Ok(s),
            FramePoll::Pending => continue,
        }
    }
}

/// Writes one frame as a single `write_all` (prefix and payload split
/// over two writes would let Nagle's algorithm hold the payload until
/// the peer ACKs the prefix — a ~40 ms delayed-ACK stall per frame).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    assert!(bytes.len() <= MAX_FRAME_BYTES, "oversized outgoing frame");
    let mut framed = Vec::with_capacity(4 + bytes.len());
    framed.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    framed.extend_from_slice(bytes);
    w.write_all(&framed)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_frames_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"type":"health"}"#).unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut cur = Cursor::new(buf);
        let mut reader = FrameReader::new();
        match reader.poll(&mut cur).unwrap() {
            FramePoll::Frame(s) => assert_eq!(s, r#"{"type":"health"}"#),
            other => panic!("expected frame, got {other:?}"),
        }
        match reader.poll(&mut cur).unwrap() {
            FramePoll::Frame(s) => assert_eq!(s, ""),
            other => panic!("expected frame, got {other:?}"),
        }
        assert!(matches!(reader.poll(&mut cur), Err(FrameError::Eof)));
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let mut cur = Cursor::new(Vec::new());
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Eof)));
    }

    #[test]
    fn truncation_is_distinguished_from_eof() {
        // Prefix promises 10 bytes; only 3 arrive.
        let mut bytes = 10u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let mut cur = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Truncated)));
        // A cut-short prefix is also truncation.
        let mut cur = Cursor::new(vec![0u8, 0]);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let bytes = (u32::MAX).to_be_bytes().to_vec();
        let mut cur = Cursor::new(bytes);
        match read_frame(&mut cur) {
            Err(FrameError::Oversized(n)) => assert_eq!(n, u32::MAX as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_payload_rejected() {
        let mut bytes = 2u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut cur = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::NotUtf8)));
    }

    /// A reader that yields bytes one at a time with a timeout between
    /// each, exercising every resume point.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        tick: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.tick {
                self.tick = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            self.tick = true;
            if self.pos >= self.bytes.len() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn partial_reads_resume_across_timeouts() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, r#"{"type":"stats"}"#).unwrap();
        let mut trickle = Trickle {
            bytes,
            pos: 0,
            tick: false,
        };
        let mut reader = FrameReader::new();
        let mut pendings = 0;
        loop {
            match reader.poll(&mut trickle).unwrap() {
                FramePoll::Frame(s) => {
                    assert_eq!(s, r#"{"type":"stats"}"#);
                    break;
                }
                FramePoll::Pending => pendings += 1,
            }
        }
        assert!(pendings > 4, "every byte boundary saw a timeout");
        assert!(!reader.mid_frame());
    }
}
