//! A blocking client for the hfast-serve protocol.
//!
//! One [`Client`] wraps one connection and issues closed-loop requests:
//! write a frame, read a frame. That mirrors how the load generator and
//! the integration tests drive the daemon, and it is the model under
//! which the server's per-connection ordering guarantee is defined.
//!
//! Errors are typed by *where* they happened: [`ClientError::Transport`]
//! (the bytes never made it there and back) and [`ClientError::Protocol`]
//! (they did, but were not a valid frame or response).

use std::io;
use std::net::TcpStream;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::protocol::{decode_response, encode_request, Request, Response};

/// Why a call failed, by layer.
///
/// A [`Response::Error`] is a *successful* call — the server answered —
/// and is never a `ClientError`.
#[derive(Debug)]
pub enum ClientError {
    /// The bytes never made it there and back: connect, read, or write
    /// failure, or the stream ended mid-frame.
    Transport(io::Error),
    /// The bytes arrived but were not a valid frame or response — a
    /// protocol bug on one side.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Transport(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Transport(io),
            FrameError::Eof | FrameError::Truncated => {
                ClientError::Transport(io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()))
            }
            FrameError::Oversized(_) | FrameError::NotUtf8 => ClientError::Protocol(e.to_string()),
        }
    }
}

/// One connection to a running daemon.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr` (any `ToSocketAddrs`, e.g. `"127.0.0.1:4711"`).
    ///
    /// # Errors
    /// Propagates the connect failure.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends a request and blocks for its response.
    ///
    /// # Errors
    /// Transport, framing, or decode failure. A [`Response::Error`] is a
    /// *successful* call — the server answered — not a `ClientError`.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.call_text(req).map(|(resp, _)| resp)
    }

    /// Like [`call`](Client::call) but also returns the exact response
    /// text, so callers that digest bytes (the load generator, the
    /// byte-identity tests) stay on the typed path.
    ///
    /// # Errors
    /// Transport, framing, or decode failure.
    pub fn call_text(&mut self, req: &Request) -> Result<(Response, String), ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let raw = read_frame(&mut self.stream)?;
        let resp = decode_response(&raw).map_err(ClientError::Protocol)?;
        Ok((resp, raw))
    }
}
