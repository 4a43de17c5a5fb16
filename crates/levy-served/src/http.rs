//! Minimal HTTP/1.1 framing over `std::net` streams.
//!
//! `levyd` and `levyc` speak a deliberately small subset of HTTP/1.1:
//! one request per connection (`Connection: close`), bodies framed by
//! `Content-Length` only (no chunked transfer encoding), header block
//! capped at 16 KiB and bodies at 1 MiB. That subset is enough for every
//! mainstream HTTP client (`curl`, browsers, load generators) to talk to
//! the daemon while keeping the parser small enough to audit.

use std::io::{self, BufRead, Write};

use levy_sim::Json;

/// Upper bound on the request line + header block, in bytes.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Upper bound on a request or response body, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased as received.
    pub method: String,
    /// Request target (path + optional query string).
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response under construction (server) or as received (client).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 400, ...).
    pub status: u16,
    /// Headers with names as written on the wire (server) or lowercased
    /// (client-parsed).
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the standard content type.
    pub fn json(status: u16, body: &Json) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.to_string_pretty().into_bytes(),
        }
    }

    /// A raw-bytes response with an explicit content type (used for
    /// `application/x-levy-wire` bodies).
    pub fn bytes(status: u16, content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), content_type.into())],
            body,
        }
    }

    /// A JSON error response `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &Json::obj([("error", Json::from(message))]))
    }

    /// Adds a header, returning `self` for chaining.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(&name))
            .map(|(_, v)| v.as_str())
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Canonical reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        406 => "Not Acceptable",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Reads one line terminated by `\n`, rejecting oversized input.
fn read_line<R: BufRead>(stream: &mut R, budget: &mut usize) -> io::Result<String> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte)? {
            0 => break,
            _ => {
                if *budget == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "header block too large",
                    ));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 header line"))
}

/// Header list as parsed off the wire: lowercased names, arrival order.
type Headers = Vec<(String, String)>;

/// Parses the shared header/body tail of a request or response.
fn read_headers_and_body<R: BufRead>(
    stream: &mut R,
    budget: &mut usize,
) -> io::Result<(Headers, Vec<u8>)> {
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let line = read_line(stream, budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed header line",
            ));
        };
        let name = name.trim().to_ascii_lowercase();
        // Names must be visible ASCII (no embedded whitespace or
        // control bytes), or the framing is ambiguous.
        if name.is_empty() || !name.bytes().all(|b| (33..=126).contains(&b)) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "invalid header name",
            ));
        }
        let value = value.trim().to_owned();
        if name == "content-length" {
            let length: usize = value.parse().map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "invalid Content-Length")
            })?;
            if length > MAX_BODY_BYTES {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
            }
            // Conflicting duplicates are a framing ambiguity (request
            // smuggling); reject rather than pick one.
            if content_length.is_some_and(|previous| previous != length) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "conflicting Content-Length headers",
                ));
            }
            content_length = Some(length);
        }
        if name == "transfer-encoding" && !value.eq_ignore_ascii_case("identity") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "chunked transfer encoding is not supported",
            ));
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length.unwrap_or(0)];
    stream.read_exact(&mut body)?;
    Ok((headers, body))
}

/// Reads and parses one HTTP request.
pub fn read_request<R: BufRead>(stream: &mut R) -> io::Result<Request> {
    let mut budget = MAX_HEADER_BYTES;
    let request_line = read_line(stream, &mut budget)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unsupported HTTP version",
        ));
    }
    let (headers, body) = read_headers_and_body(stream, &mut budget)?;
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_owned(),
        headers,
        body,
    })
}

/// Writes `response` with `Connection: close` framing.
pub fn write_response<W: Write>(stream: &mut W, response: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\n",
        response.status,
        reason(response.status)
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "Content-Length: {}\r\nConnection: close\r\n\r\n",
        response.body.len()
    ));
    // One buffer, one write: head + body as a single segment keeps the
    // exchange to one syscall and sidesteps Nagle delaying a split tail.
    let mut frame = head.into_bytes();
    frame.extend_from_slice(&response.body);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Writes one client request with `Connection: close` framing. Extra
/// `headers` (e.g. `traceparent`) go between the standard block and the
/// blank line; wire-format POSTs pass `application/x-levy-wire` as the
/// `content_type`.
pub fn write_request<W: Write>(
    stream: &mut W,
    method: &str,
    path: &str,
    host: &str,
    content_type: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: {content_type}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    ));
    // Single coalesced write, mirroring `write_response`.
    let mut frame = head.into_bytes();
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Writes the head of a chunked streaming response.
///
/// The body that follows is framed by [`write_chunk`] /
/// [`finish_chunked`] instead of `Content-Length`. Streaming is the one
/// place the service emits `Transfer-Encoding: chunked`; its own request
/// parser still rejects chunked *requests* (framing stays auditable).
pub fn write_chunked_head<W: Write>(
    stream: &mut W,
    status: u16,
    headers: &[(&str, &str)],
) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", status, reason(status));
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one chunk (hex length, CRLF, payload, CRLF) and flushes so the
/// client observes progress immediately. Empty payloads are skipped: a
/// zero-length chunk would terminate the stream.
pub fn write_chunk<W: Write>(stream: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n", payload.len())?;
    stream.write_all(payload)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Writes the terminal zero-length chunk ending a chunked response.
pub fn finish_chunked<W: Write>(stream: &mut W) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// The head of a streaming response: status plus headers, body not yet
/// consumed. Pull chunks with [`read_chunk`].
#[derive(Debug, Clone)]
pub struct StreamHead {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Headers,
    /// Whether the body is chunked (`Transfer-Encoding: chunked`). When
    /// false the server answered with an ordinary `Content-Length` body
    /// of `content_length` bytes.
    pub chunked: bool,
    /// Declared body length for non-chunked responses.
    pub content_length: usize,
}

impl StreamHead {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads a response head without consuming the body, tolerating
/// `Transfer-Encoding: chunked` (client side of a streaming query).
pub fn read_stream_head<R: BufRead>(stream: &mut R) -> io::Result<StreamHead> {
    let mut budget = MAX_HEADER_BYTES;
    let status_line = read_line(stream, &mut budget)?;
    let mut parts = status_line.split_whitespace();
    let (Some(version), Some(status)) = (parts.next(), parts.next()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed status line",
        ));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unsupported HTTP version",
        ));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid status code"))?;
    let mut headers = Vec::new();
    let mut chunked = false;
    let mut content_length = 0usize;
    loop {
        let line = read_line(stream, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed header line",
            ));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        }
        if name == "content-length" {
            content_length = value.parse().map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "invalid Content-Length")
            })?;
            if content_length > MAX_BODY_BYTES {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
            }
        }
        headers.push((name, value));
    }
    Ok(StreamHead {
        status,
        headers,
        chunked,
        content_length,
    })
}

/// Reads one chunk of a chunked body; `Ok(None)` on the terminal
/// zero-length chunk.
pub fn read_chunk<R: BufRead>(stream: &mut R) -> io::Result<Option<Vec<u8>>> {
    // A fresh budget per chunk line: chunk size lines are tiny.
    let mut budget = 128usize;
    let size_line = read_line(stream, &mut budget)?;
    // Ignore chunk extensions (`;` and beyond), per RFC 9112.
    let size_hex = size_line.split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(size_hex, 16)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid chunk size"))?;
    if size > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "chunk too large",
        ));
    }
    if size == 0 {
        // Terminal chunk; consume the trailing blank line (no trailers).
        let mut tail_budget = MAX_HEADER_BYTES;
        loop {
            let line = read_line(stream, &mut tail_budget)?;
            if line.is_empty() {
                break;
            }
        }
        return Ok(None);
    }
    let mut payload = vec![0u8; size];
    stream.read_exact(&mut payload)?;
    let mut crlf = [0u8; 2];
    stream.read_exact(&mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "chunk not CRLF-terminated",
        ));
    }
    Ok(Some(payload))
}

/// Reads and parses one HTTP response (client side).
pub fn read_response<R: BufRead>(stream: &mut R) -> io::Result<Response> {
    let mut budget = MAX_HEADER_BYTES;
    let status_line = read_line(stream, &mut budget)?;
    let mut parts = status_line.split_whitespace();
    let (Some(version), Some(status)) = (parts.next(), parts.next()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed status line",
        ));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unsupported HTTP version",
        ));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid status code"))?;
    let (headers, body) = read_headers_and_body(stream, &mut budget)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    #[test]
    fn request_round_trip() {
        let wire = b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.header("Content-Type"), Some("application/json"));
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn request_without_body() {
        let wire = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::json(200, &Json::obj([("ok", Json::from(true))]))
            .with_header("X-Levy-Cache", "hit");
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let parsed = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.header("x-levy-cache"), Some("hit"));
        assert_eq!(parsed.body, resp.body);
    }

    #[test]
    fn client_request_wire_format() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "POST",
            "/v1/query",
            "127.0.0.1:1",
            "application/json",
            &[],
            b"{}",
        )
        .unwrap();
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn malformed_inputs_rejected() {
        for wire in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET / SPDY/3\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x"[..],
        ] {
            assert!(read_request(&mut BufReader::new(wire)).is_err());
        }
        // A repeated but agreeing Content-Length is unambiguous.
        let wire = &b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}"[..];
        assert_eq!(read_request(&mut BufReader::new(wire)).unwrap().body, b"{}");
    }

    #[test]
    fn oversized_header_block_rejected() {
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        wire.extend(std::iter::repeat_n(b'x', MAX_HEADER_BYTES + 10));
        assert!(read_request(&mut BufReader::new(&wire[..])).is_err());
    }

    #[test]
    fn oversized_body_rejected() {
        let wire = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(read_request(&mut BufReader::new(wire.as_bytes())).is_err());
    }

    #[test]
    fn reasons_cover_service_codes() {
        for code in [200, 400, 404, 406, 429, 500, 503, 504] {
            assert_ne!(reason(code), "Unknown");
        }
    }

    #[test]
    fn chunked_round_trip() {
        let mut wire = Vec::new();
        write_chunked_head(
            &mut wire,
            200,
            &[("Content-Type", "application/x-levy-stream")],
        )
        .unwrap();
        write_chunk(&mut wire, b"first").unwrap();
        write_chunk(&mut wire, b"").unwrap(); // skipped, not terminal
        write_chunk(&mut wire, &[0u8, 255, 13, 10]).unwrap();
        finish_chunked(&mut wire).unwrap();

        let mut reader = BufReader::new(&wire[..]);
        let head = read_stream_head(&mut reader).unwrap();
        assert_eq!(head.status, 200);
        assert!(head.chunked);
        assert_eq!(
            head.header("content-type"),
            Some("application/x-levy-stream")
        );
        assert_eq!(read_chunk(&mut reader).unwrap().unwrap(), b"first");
        assert_eq!(
            read_chunk(&mut reader).unwrap().unwrap(),
            [0u8, 255, 13, 10]
        );
        assert!(read_chunk(&mut reader).unwrap().is_none());
    }

    #[test]
    fn stream_head_handles_plain_responses() {
        let resp = Response::json(400, &Json::obj([("error", Json::from("nope"))]));
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        let head = read_stream_head(&mut reader).unwrap();
        assert_eq!(head.status, 400);
        assert!(!head.chunked);
        assert_eq!(head.content_length, resp.body.len());
        let mut body = vec![0u8; head.content_length];
        reader.read_exact(&mut body).unwrap();
        assert_eq!(body, resp.body);
    }

    #[test]
    fn malformed_chunks_rejected() {
        for wire in [
            &b"zz\r\nhi\r\n"[..],
            &b"5\r\nhelloXX"[..],
            &b"fffffff\r\n"[..],
        ] {
            assert!(read_chunk(&mut BufReader::new(wire)).is_err());
        }
    }

    #[test]
    fn request_sets_content_type_and_headers() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "POST",
            "/v1/query",
            "h",
            "application/x-levy-wire",
            &[("Accept", "application/x-levy-wire")],
            b"\x00\x01",
        )
        .unwrap();
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(req.header("content-type"), Some("application/x-levy-wire"));
        assert_eq!(req.header("accept"), Some("application/x-levy-wire"));
        assert_eq!(req.body, b"\x00\x01");
    }
}
