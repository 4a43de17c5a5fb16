//! Blocking HTTP client used by `levyc`, the smoke script, tests, and
//! the bench pipeline.

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::time::Duration;

use crate::http::{
    read_chunk, read_response, read_stream_head, write_request, Response, StreamHead,
};

/// A client bound to one `host:port` with a per-request timeout.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    /// Client for `addr` (`host:port`) with a 60 s default timeout.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_owned(),
            timeout: Duration::from_secs(60),
        }
    }

    /// Overrides the connect/read/write timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// One request/response exchange on a fresh connection.
    pub fn request(&self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.request_with_headers(method, path, &[], body)
    }

    /// [`request`](Client::request) with extra headers (e.g. a
    /// `traceparent` joining the server's trace to the caller's).
    pub fn request_with_headers(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        self.request_full(method, path, "application/json", headers, body)
    }

    /// [`request_with_headers`](Client::request_with_headers) with an
    /// explicit request `Content-Type` (`application/x-levy-wire` for
    /// binary query bodies).
    pub fn request_full(
        &self,
        method: &str,
        path: &str,
        content_type: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let mut stream = self.connect()?;
        write_request(
            &mut stream,
            method,
            path,
            &self.addr,
            content_type,
            headers,
            body,
        )?;
        let mut reader = BufReader::new(stream);
        read_response(&mut reader)
    }

    /// Opens a streaming query: sends the request with `X-Levy-Stream: 1`
    /// and returns the response head plus a [`StreamReader`] for pulling
    /// chunks (wire frames). Non-chunked heads (pre-stream errors) carry
    /// a normal body, which the reader exposes via
    /// [`StreamReader::read_plain_body`].
    pub fn open_stream(
        &self,
        path: &str,
        content_type: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<(StreamHead, StreamReader)> {
        let mut stream = self.connect()?;
        let mut all_headers: Vec<(&str, &str)> = vec![("X-Levy-Stream", "1")];
        all_headers.extend_from_slice(headers);
        write_request(
            &mut stream,
            "POST",
            path,
            &self.addr,
            content_type,
            &all_headers,
            body,
        )?;
        let mut reader = BufReader::new(stream);
        let head = read_stream_head(&mut reader)?;
        Ok((head.clone(), StreamReader { reader, head }))
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let mut addrs = std::net::ToSocketAddrs::to_socket_addrs(&self.addr.as_str())?;
        let addr = addrs.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        // Requests go out as one coalesced write; Nagle only delays it.
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> io::Result<Response> {
        self.request("GET", path, b"")
    }

    /// `POST path` with a JSON body.
    pub fn post(&self, path: &str, body: &str) -> io::Result<Response> {
        self.request("POST", path, body.as_bytes())
    }
}

/// The body side of an open streaming response.
pub struct StreamReader {
    reader: BufReader<TcpStream>,
    head: StreamHead,
}

impl StreamReader {
    /// Next chunk of a chunked body; `Ok(None)` after the terminal
    /// chunk. Each chunk is one encoded wire frame.
    pub fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        if !self.head.chunked {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "response is not chunked; use read_plain_body",
            ));
        }
        read_chunk(&mut self.reader)
    }

    /// Reads the `Content-Length` body of a non-chunked response (the
    /// buffered error path before a stream starts).
    pub fn read_plain_body(&mut self) -> io::Result<Vec<u8>> {
        use std::io::Read;
        let mut body = vec![0u8; self.head.content_length];
        self.reader.read_exact(&mut body)?;
        Ok(body)
    }
}
