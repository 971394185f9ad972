//! The pipelining key-value client.
//!
//! [`DlhtClient`] is generic over any `Read + Write` transport: a
//! [`std::net::TcpStream`] for real serving, or the deterministic in-process
//! [`crate::loopback::LoopbackTransport`] for offline tests. Its throughput
//! lever is **pipelining**: [`DlhtClient::pipelined_into`] encodes a window
//! of requests, writes them in one flush, and then reads the window's
//! responses — one round trip per window instead of one per request, which
//! the server turns into one prefetched batch execution (see
//! [`crate::service`]).
//!
//! A client made by [`DlhtClient::connect`] waits for a response by
//! polling its socket for up to 50 µs before it falls back to a blocking
//! `read` (so `set_read_timeout` still bounds the wait): a pipelined server
//! usually answers inside that budget, and the client thread then pays no
//! sleep and no wakeup for the round trip.

use crate::wire::{self, RemoteStats, WireError};
use dlht_core::{Batch, BatchPolicy, DlhtError, InsertOutcome, Request, Response};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use {crate::poll::SPIN_BUDGET, std::time::Instant};

/// Client-side errors: transport failures, protocol violations, server-side
/// protocol rejections, and table errors surfaced by single-request
/// conveniences.
#[derive(Debug)]
pub enum NetError {
    /// Transport error.
    Io(std::io::Error),
    /// The peer's bytes violated the wire protocol.
    Wire(WireError),
    /// The server answered with an `ERR` frame (and closed the connection).
    Server {
        /// [`WireError::code`] as reported by the server.
        code: u8,
        /// Human-readable message from the server.
        message: String,
    },
    /// The server answered with a frame of the wrong type.
    UnexpectedFrame(u8),
    /// The connection closed mid-response.
    Closed,
    /// A single-request convenience (e.g. [`DlhtClient::insert`]) carried a
    /// table error back from the server.
    Table(DlhtError),
    /// The response decoded but its variant does not match the request that
    /// was sent (desynchronized stream).
    Mismatched(Response),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Wire(e) => write!(f, "wire protocol error: {e}"),
            NetError::Server { code, message } => {
                write!(f, "server rejected the stream (code {code}): {message}")
            }
            NetError::UnexpectedFrame(op) => write!(f, "unexpected response frame {op:#04x}"),
            NetError::Closed => write!(f, "connection closed mid-response"),
            NetError::Table(e) => write!(f, "table error: {e}"),
            NetError::Mismatched(r) => {
                write!(f, "response {r:?} does not match the request sent")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// Most requests one `BATCH` frame can carry without its payload (5-byte
/// batch header + at most 17 bytes per item) exceeding
/// [`wire::MAX_PAYLOAD`]. [`DlhtClient::execute`] transparently splits
/// larger batches into frames of this size.
const MAX_BATCH_ITEMS: usize = (wire::MAX_PAYLOAD - 5) / 17;

/// Sub-window size for [`DlhtClient::pipelined_into`]: writing an unbounded
/// window before reading any response can deadlock once the window
/// outgrows the combined socket buffers (both peers blocked in `write`), so
/// large windows are processed in bounded chunks — at most ~17 KiB of
/// frames in flight before the client drains that chunk's responses.
const PIPELINE_CHUNK: usize = 1024;

/// A pipelining client over any byte-stream transport (module docs above).
pub struct DlhtClient<S: Read + Write> {
    stream: S,
    /// Encoded-but-unflushed request frames.
    wbuf: Vec<u8>,
    /// Received-but-undecoded response bytes (compacted window).
    rbuf: Vec<u8>,
    rpos: usize,
    /// The socket under `stream` when [`DlhtClient::connect`] opened it;
    /// `read_some` polls it before blocking (module docs).
    #[cfg(unix)]
    spin_fd: Option<std::os::unix::io::RawFd>,
}

impl DlhtClient<TcpStream> {
    /// Connect to a `dlht-net` server over TCP (with `TCP_NODELAY`, so small
    /// unpipelined requests are not delayed by Nagle's algorithm).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = DlhtClient::new(stream);
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            client.spin_fd = Some(client.stream.as_raw_fd());
        }
        Ok(client)
    }
}

impl<S: Read + Write> DlhtClient<S> {
    /// Wrap an established transport.
    pub fn new(stream: S) -> Self {
        DlhtClient {
            stream,
            wbuf: Vec::with_capacity(4096),
            rbuf: Vec::with_capacity(4096),
            rpos: 0,
            #[cfg(unix)]
            spin_fd: None,
        }
    }

    /// Borrow the transport (e.g. to set socket options).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Mutably borrow the transport (tests use this to inject raw bytes
    /// below the client API). The caller may replace the transport, so
    /// reads from then on block at once instead of polling first.
    pub fn get_mut(&mut self) -> &mut S {
        #[cfg(unix)]
        {
            self.spin_fd = None;
        }
        &mut self.stream
    }

    /// Consume the client, returning the transport.
    pub fn into_inner(self) -> S {
        self.stream
    }

    fn flush_writes(&mut self) -> Result<(), NetError> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        self.stream.flush()?;
        Ok(())
    }

    /// Read one complete response frame, returning `(opcode, payload
    /// range into rbuf)`. `ERR` frames become [`NetError::Server`].
    fn read_frame(&mut self) -> Result<(u8, std::ops::Range<usize>), NetError> {
        loop {
            match wire::decode_frame(&self.rbuf[self.rpos..])? {
                Some((frame, used)) => {
                    let opcode = frame.opcode;
                    let start = self.rpos + wire::HEADER_LEN;
                    let end = self.rpos + used;
                    self.rpos = end;
                    if opcode == wire::resp::ERR {
                        let payload = &self.rbuf[start..end];
                        let code = payload.first().copied().unwrap_or(0);
                        let message =
                            String::from_utf8_lossy(payload.get(1..).unwrap_or(&[])).into_owned();
                        return Err(NetError::Server { code, message });
                    }
                    return Ok((opcode, start..end));
                }
                None => {
                    // Compact the consumed prefix, then read more bytes.
                    if self.rpos > 0 {
                        self.rbuf.drain(..self.rpos);
                        self.rpos = 0;
                    }
                    let mut chunk = [0u8; 16 * 1024];
                    let n = self.read_some(&mut chunk)?;
                    if n == 0 {
                        return Err(NetError::Closed);
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }

    /// One read from the transport. Over a socket from
    /// [`DlhtClient::connect`], poll it for [`SPIN_BUDGET`] first, yielding
    /// the CPU between attempts, then block as a plain `read` would.
    fn read_some(&mut self, chunk: &mut [u8]) -> std::io::Result<usize> {
        #[cfg(unix)]
        if let Some(fd) = self.spin_fd {
            let start = Instant::now();
            loop {
                match crate::poll::recv_nonblocking(fd, chunk) {
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    done => return done,
                }
                if start.elapsed() >= SPIN_BUDGET {
                    break;
                }
                std::thread::yield_now();
            }
        }
        self.stream.read(chunk)
    }

    fn expect_single(&mut self) -> Result<Response, NetError> {
        let (opcode, range) = self.read_frame()?;
        if opcode != wire::resp::RESP {
            return Err(NetError::UnexpectedFrame(opcode));
        }
        Ok(wire::decode_response(&self.rbuf[range])?)
    }

    /// Issue one request and wait for its response (one round trip).
    pub fn request(&mut self, req: Request) -> Result<Response, NetError> {
        wire::encode_request(&mut self.wbuf, req);
        self.flush_writes()?;
        self.expect_single()
    }

    /// Look up `key` on the server.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, NetError> {
        match self.request(Request::Get(key))? {
            Response::Value(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    /// Insert `key -> value`; table errors (reserved key, full table) come
    /// back as [`NetError::Table`].
    pub fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, NetError> {
        match self.request(Request::Insert(key, value))? {
            Response::Inserted(Ok(outcome)) => Ok(outcome),
            Response::Inserted(Err(e)) => Err(NetError::Table(e)),
            other => Err(unexpected(other)),
        }
    }

    /// Update an existing key; returns the previous value.
    pub fn put(&mut self, key: u64, value: u64) -> Result<Option<u64>, NetError> {
        match self.request(Request::Put(key, value))? {
            Response::Updated(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    /// Delete `key`; returns the removed value.
    pub fn delete(&mut self, key: u64) -> Result<Option<u64>, NetError> {
        match self.request(Request::Delete(key))? {
            Response::Deleted(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    /// **Pipelined** submission: encode every request, write the window in
    /// one flush, then collect one response per request (submission order)
    /// into `out`. One network round trip per window — and one prefetched
    /// batch execution on the server.
    pub fn pipelined_into(
        &mut self,
        reqs: &[Request],
        out: &mut Vec<Response>,
    ) -> Result<(), NetError> {
        // Windows beyond PIPELINE_CHUNK are split so neither peer can wedge
        // with both socket buffers full of unread bytes; each chunk is still
        // one flush = one server-side batch execution.
        for chunk in reqs.chunks(PIPELINE_CHUNK) {
            for req in chunk {
                wire::encode_request(&mut self.wbuf, *req);
            }
            self.flush_writes()?;
            out.reserve(chunk.len());
            for _ in 0..chunk.len() {
                out.push(self.expect_single()?);
            }
        }
        Ok(())
    }

    /// [`DlhtClient::pipelined_into`] allocating a fresh response vector.
    pub fn pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, NetError> {
        let mut out = Vec::with_capacity(reqs.len());
        self.pipelined_into(reqs, &mut out)?;
        Ok(out)
    }

    /// Execute `batch` remotely under an explicit [`BatchPolicy`] (one
    /// `BATCH` frame, one `RESP_BATCH` frame back), filling the batch's own
    /// response storage exactly like a local `Engine::execute`.
    ///
    /// Batches larger than one frame can carry ([`wire::MAX_PAYLOAD`], about
    /// 61k requests) are split transparently; under
    /// [`BatchPolicy::StopOnFailure`] a failure in one frame marks every
    /// later frame's slots [`Response::Skipped`] without sending them, so
    /// the policy contract holds across the split.
    pub fn execute(&mut self, batch: &mut Batch, policy: BatchPolicy) -> Result<(), NetError> {
        let (requests, responses) = batch.begin_execution();
        let mut stopped = false;
        for chunk in requests.chunks(MAX_BATCH_ITEMS) {
            if stopped {
                responses.resize(responses.len() + chunk.len(), Response::Skipped);
                continue;
            }
            let before = responses.len();
            self.execute_frame(chunk, policy, responses)?;
            if policy.stops_on_failure() && responses[before..].iter().any(|r| !r.succeeded()) {
                stopped = true;
            }
        }
        Ok(())
    }

    /// One `BATCH` frame round trip for `chunk`, appending its responses.
    fn execute_frame(
        &mut self,
        chunk: &[Request],
        policy: BatchPolicy,
        responses: &mut Vec<Response>,
    ) -> Result<(), NetError> {
        wire::encode_batch(&mut self.wbuf, chunk, policy);
        self.flush_writes()?;
        let (opcode, range) = self.read_frame()?;
        if opcode != wire::resp::RESP_BATCH {
            return Err(NetError::UnexpectedFrame(opcode));
        }
        // `read_frame` borrowed self mutably; decode from the settled buffer.
        let payload = &self.rbuf[range];
        let count = wire::decode_batch_responses(payload, responses)?;
        if count as usize != chunk.len() {
            return Err(NetError::Wire(WireError::BadBatch));
        }
        Ok(())
    }

    /// Fetch the server's typed statistics snapshot (`KvBackend::stats()` +
    /// `retired_indexes()` — no string parsing).
    pub fn stats(&mut self) -> Result<RemoteStats, NetError> {
        wire::encode_empty(&mut self.wbuf, wire::op::STATS);
        self.flush_writes()?;
        let (opcode, range) = self.read_frame()?;
        if opcode != wire::resp::RESP_STATS {
            return Err(NetError::UnexpectedFrame(opcode));
        }
        Ok(wire::decode_stats(&self.rbuf[range])?)
    }

    /// Number of live keys on the server.
    pub fn server_len(&mut self) -> Result<u64, NetError> {
        wire::encode_empty(&mut self.wbuf, wire::op::LEN);
        self.flush_writes()?;
        let (opcode, range) = self.read_frame()?;
        if opcode != wire::resp::RESP_LEN {
            return Err(NetError::UnexpectedFrame(opcode));
        }
        Ok(wire::decode_len(&self.rbuf[range])?)
    }

    /// Liveness probe: sends a payload, expects it echoed.
    pub fn ping(&mut self) -> Result<(), NetError> {
        let payload = *b"dlht";
        wire::put_header(&mut self.wbuf, wire::op::PING, payload.len());
        self.wbuf.extend_from_slice(&payload);
        self.flush_writes()?;
        let (opcode, range) = self.read_frame()?;
        if opcode != wire::resp::PONG {
            return Err(NetError::UnexpectedFrame(opcode));
        }
        if self.rbuf[range] != payload {
            return Err(NetError::Wire(WireError::BadPayload {
                opcode: wire::resp::PONG,
                len: 0,
            }));
        }
        Ok(())
    }
}

fn unexpected(resp: Response) -> NetError {
    NetError::Mismatched(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::SPIN_BUDGET;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// A client connected to a hand-driven peer: `peer` gets the accepted
    /// stream on its own thread.
    fn with_peer(
        peer: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (DlhtClient<TcpStream>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || peer(listener.accept().unwrap().0));
        let client = DlhtClient::connect(addr).unwrap();
        client
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        (client, handle)
    }

    /// Read one request frame off the peer's stream.
    fn read_request(stream: &mut TcpStream) -> Request {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            if let Some((frame, _)) = wire::decode_frame(&buf).unwrap() {
                return wire::decode_request(frame.opcode, frame.payload).unwrap();
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "client closed before a whole request");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn read_timeout_still_bounds_the_wait() {
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (mut client, peer) = with_peer(move |stream| {
            // Accept, never answer, hold the socket open until released.
            let _ = release_rx.recv();
            drop(stream);
        });
        let timeout = Duration::from_millis(100);
        client.get_ref().set_read_timeout(Some(timeout)).unwrap();
        let t = Instant::now();
        let err = client.get(7).expect_err("nobody answers");
        let waited = t.elapsed();
        assert!(matches!(err, NetError::Io(_)), "{err:?}");
        assert!(
            waited >= timeout - Duration::from_millis(10),
            "gave up after {waited:?}"
        );
        // The blocking read starts at most one spin budget late; the rest
        // is scheduling slack.
        assert!(
            waited < timeout + SPIN_BUDGET + Duration::from_millis(400),
            "waited {waited:?}"
        );
        release_tx.send(()).unwrap();
        peer.join().unwrap();
    }

    #[test]
    fn peer_closing_mid_frame_is_closed() {
        let (mut client, peer) = with_peer(|mut stream| {
            assert_eq!(read_request(&mut stream), Request::Get(3));
            let mut frame = Vec::new();
            wire::encode_response(&mut frame, Response::Value(Some(9)));
            stream.write_all(&frame[..frame.len() - 2]).unwrap();
        });
        assert!(matches!(client.get(3), Err(NetError::Closed)));
        peer.join().unwrap();
    }

    #[test]
    fn response_written_a_byte_at_a_time_decodes() {
        let (mut client, peer) = with_peer(|mut stream| {
            stream.set_nodelay(true).unwrap();
            assert_eq!(read_request(&mut stream), Request::Get(5));
            let mut frame = Vec::new();
            wire::encode_response(&mut frame, Response::Value(Some(55)));
            for (i, byte) in frame.iter().enumerate() {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                // Every other gap outlasts the spin budget, so the client
                // also takes its blocking path mid-frame.
                if i % 2 == 0 {
                    std::thread::sleep(SPIN_BUDGET * 4);
                }
            }
        });
        assert_eq!(client.get(5).unwrap(), Some(55));
        peer.join().unwrap();
    }

    #[test]
    fn depth_one_round_trips_against_a_server() {
        let table = std::sync::Arc::new(dlht_core::ShardedTable::with_capacity(4, 1_024));
        let server = crate::bind_ephemeral(table, crate::ServerConfig::default());
        let mut client = DlhtClient::connect(server.local_addr()).unwrap();
        assert!(client.insert(1, 10).unwrap().inserted());
        for _ in 0..100 {
            assert_eq!(client.get(1).unwrap(), Some(10));
        }
        assert_eq!(client.get(2).unwrap(), None);
        drop(client);
        server.shutdown();
    }
}
