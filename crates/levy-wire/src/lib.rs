//! `levy-wire`: the versioned binary wire format for the `levyd`
//! service.
//!
//! JSON-over-HTTP is the service's lingua franca, but it is the measured
//! bottleneck for high-QPS small queries and for the trial-batch bodies
//! the paper's regime-map sweeps generate. This crate defines a compact,
//! versioned, bit-packed encoding for the canonical objects that cross
//! the wire:
//!
//! * [`QueryFrame`] — a canonical query (`levy-served/query-v1`) with its
//!   FNV-1a-128 cache key embedded, so a receiving node can verify the
//!   content address without re-deriving it from JSON;
//! * [`ResultFrame`] — a result envelope (`levy-served/result-v1`):
//!   the query it answers plus either a fixed-trials summary or an
//!   adaptive estimate;
//! * [`BatchFrame`] — one adaptive-estimator batch for streaming
//!   responses, with trial/success counts **delta-packed** against the
//!   previous frame;
//! * [`ErrorFrame`] / [`FinalFrame`] — stream terminators: a structured
//!   error, or the final response body byte-identical to the
//!   non-streaming path.
//!
//! # Frame layout
//!
//! Every frame is a fixed 8-byte header followed by a payload:
//!
//! ```text
//! 0     1     2     3     4     5     6     7     8
//! +-----+-----+-----+-----+-----+-----+-----+-----+----------+
//! | 'L' | 'W' | ver | kind|   payload len (u32 LE)    | payload  |
//! +-----+-----+-----+-----+-----+-----+-----+-----+----------+
//! ```
//!
//! The declared length bounds every read: a decoder never touches bytes
//! past `8 + len`, and rejects frames whose payload is shorter than
//! declared ([`WireError::Truncated`]) or longer ([`WireError::TrailingBytes`]).
//! Integers are unsigned LEB128 varints unless a field is full-entropy
//! (seeds, keys) or fixed-width by nature (status codes, `f64` bit
//! patterns). Floats travel as `f64::to_bits` little-endian, so NaN and
//! signed zero round-trip exactly.
//!
//! Decoding is total: every error is a structured [`WireError`], never a
//! panic, pinned by the seeded fuzz corpus in `levy-served`.
//!
//! The crate is `std`-only and does no I/O; `levy-served` owns sockets
//! and content negotiation, this crate owns the bytes.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"LW";

/// Current wire-format version. Decoders reject any other value with
/// [`WireError::UnsupportedVersion`]; servers answer such frames with a
/// structured 400/406, never a panic.
pub const VERSION: u8 = 1;

/// Fixed header size: magic (2) + version (1) + kind (1) + length (4).
pub const HEADER_LEN: usize = 8;

/// Largest payload a decoder will accept (mirrors the HTTP body cap).
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Media type negotiated via `Accept` / `Content-Type` for single
/// binary frames.
pub const MEDIA_TYPE: &str = "application/x-levy-wire";

/// Media type of a chunked streaming response (each HTTP chunk carries
/// exactly one frame: zero or more [`BatchFrame`]s, then one
/// [`FinalFrame`] or [`ErrorFrame`]).
pub const STREAM_MEDIA_TYPE: &str = "application/x-levy-stream";

const KIND_QUERY: u8 = 0x01;
const KIND_RESULT: u8 = 0x02;
const KIND_BATCH: u8 = 0x03;
const KIND_ERROR: u8 = 0x04;
const KIND_FINAL: u8 = 0x05;

/// Everything that can go wrong while decoding a frame.
///
/// The variants are deliberately specific: the server maps them to
/// structured HTTP errors (`unsupported version` → 400/406 with the
/// offending byte echoed back), and the fuzz suite asserts that no
/// input reaches a panic instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the declared frame did.
    Truncated,
    /// The first two bytes were not `b"LW"`.
    BadMagic,
    /// Version byte other than [`VERSION`].
    UnsupportedVersion(u8),
    /// Unknown frame-kind byte.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge(u32),
    /// Bytes remained after the declared payload was fully parsed.
    TrailingBytes,
    /// A tagged field carried an out-of-range tag byte.
    BadTag {
        /// Which field the bad tag was found in.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A varint ran past 10 bytes or overflowed 64 bits.
    BadVarint,
    /// An embedded string was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic => write!(f, "bad magic (expected 'LW')"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported levy-wire version {v} (expected {VERSION})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::PayloadTooLarge(n) => {
                write!(f, "declared payload {n} bytes exceeds cap {MAX_PAYLOAD}")
            }
            WireError::TrailingBytes => write!(f, "trailing bytes after frame payload"),
            WireError::BadTag { field, value } => {
                write!(f, "bad tag 0x{value:02x} in field `{field}`")
            }
            WireError::BadVarint => write!(f, "malformed varint"),
            WireError::BadUtf8 => write!(f, "embedded string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Which measurement a query runs (the `kind` of `levy-served/query-v1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// One Lévy walk, step-level hitting time (Theorems 1.1–1.3;
    /// experiment E1).
    SingleWalk,
    /// One Lévy flight, flight-level hitting time (intermittent
    /// detection; ablation A2).
    SingleFlight,
    /// k parallel walks, common or per-walk exponents (Cor 4.2,
    /// Thms 1.5–1.6; experiments E6–E7).
    Parallel,
    /// Named search strategy (Lévy / ballistic / random walk / mixture;
    /// the E8 shoot-out families).
    Search,
}

/// Exponent strategy for Lévy walks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Exponent {
    /// All walkers share a fixed α.
    Fixed(f64),
    /// Exponents drawn uniformly from the paper's admissible range,
    /// `α ~ Uniform(2, 3)` per walk (Theorem 1.6).
    Uniform,
    /// Exponents drawn uniformly from `[lo, hi]`.
    UniformRange {
        /// Lower bound of the α range.
        lo: f64,
        /// Upper bound of the α range.
        hi: f64,
    },
    /// The paper's near-optimal exponent choice: the deterministic
    /// scale-aware exponent of Theorem 1.5, from the query's `k` and `ℓ`.
    Optimal,
}

/// Search-family strategy for `kind = Search` queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Search {
    /// Lévy walkers with the embedded exponent strategy.
    Levy(Exponent),
    /// Straight-line ballistic walkers.
    Ballistic,
    /// Simple random walkers.
    RandomWalk,
    /// The paper's mixture strategy with `n` exponent classes.
    Mixture(u64),
}

/// Where the target sits relative to the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Distance ℓ in a seed-derived random direction.
    RandomDirection,
    /// Fixed at `(ℓ, 0)`.
    FixedEast,
}

/// How many trials to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// Fixed trial count.
    Trials(u64),
    /// Adaptive Wilson-interval estimator.
    Adaptive {
        /// Absolute half-width stopping threshold.
        absolute: f64,
        /// Relative half-width stopping threshold.
        relative: f64,
        /// Hard trial cap.
        max_trials: u64,
    },
}

/// A canonical query with its FNV-1a-128 cache key embedded.
///
/// The key is the content address of the query's canonical JSON; a
/// receiving node re-derives it and rejects mismatches, so a frame can
/// never poison a cache slot it does not own.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFrame {
    /// FNV-1a-128 of the canonical query JSON, big-endian bytes (the
    /// same order the 32-hex-digit key renders in).
    pub key: [u8; 16],
    /// Measurement kind.
    pub kind: QueryKind,
    /// Exponent strategy (for `kind = Search`, the Lévy family's spec,
    /// or `Uniform` for the other families).
    pub exponent: Exponent,
    /// Search strategy for `kind = Search`.
    pub search: Option<Search>,
    /// Number of parallel walkers.
    pub k: u64,
    /// Target distance ℓ.
    pub ell: u64,
    /// Per-walker step budget.
    pub budget: u64,
    /// Target placement.
    pub placement: Placement,
    /// Trial-count policy.
    pub estimator: Estimator,
    /// Root seed.
    pub seed: u64,
    /// Optional per-query timeout (not part of the canonical form, but
    /// part of the request).
    pub timeout_ms: Option<u64>,
}

/// The measurement half of a result envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultBody {
    /// Fixed-trials summary (`"mode": "summary"`).
    Summary {
        /// Trials run.
        trials: u64,
        /// Trials that hit the target within budget.
        hits: u64,
        /// Trials censored by the budget.
        censored: u64,
        /// The per-walker budget the query ran with.
        budget: u64,
        /// Empirical hit probability.
        hit_rate: f64,
        /// Wilson 95% interval on the hit rate.
        ci: (f64, f64),
        /// Mean hitting time conditioned on hitting.
        conditional_mean: f64,
        /// Median hitting time conditioned on hitting.
        conditional_median: f64,
        /// Censoring-aware lower bound on the unconditional mean.
        mean_lower_bound: f64,
    },
    /// Adaptive estimate (`"mode": "adaptive"`).
    Adaptive {
        /// Point estimate of the hit probability.
        p: f64,
        /// Wilson 95% interval.
        ci: (f64, f64),
        /// Trials actually run.
        trials_used: u64,
        /// Successes observed.
        successes: u64,
        /// Doubling batches completed.
        batches: u64,
        /// Whether the precision target was met before the cap.
        converged: bool,
        /// The trial cap the estimator ran under.
        max_trials: u64,
    },
}

/// A full result envelope: the query answered plus its measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFrame {
    /// The canonical query (embedded key included).
    pub query: QueryFrame,
    /// The measurement.
    pub body: ResultBody,
}

/// One adaptive-estimator batch, delta-packed for streaming.
///
/// `trials_delta` / `successes_delta` count only what this batch added
/// over the previous [`BatchFrame`] (or zero for the first), so a long
/// stream of doubling batches stays a few bytes per frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchFrame {
    /// 1-based batch index.
    pub batch: u64,
    /// Trials added by this batch.
    pub trials_delta: u64,
    /// Successes added by this batch.
    pub successes_delta: u64,
    /// Running point estimate after this batch.
    pub p: f64,
    /// Running Wilson 95% interval after this batch.
    pub ci: (f64, f64),
}

/// A structured in-stream error terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The HTTP status this error would have carried un-streamed.
    pub status: u16,
    /// Human-readable message.
    pub message: String,
}

/// The stream terminator carrying the final response body, byte-identical
/// to what the non-streaming path would have returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalFrame {
    /// The final body bytes (JSON or a nested wire [`ResultFrame`],
    /// per the stream's negotiated `Accept`).
    pub body: Vec<u8>,
}

/// Any levy-wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A canonical query.
    Query(QueryFrame),
    /// A result envelope.
    Result(ResultFrame),
    /// A streaming progress batch.
    Batch(BatchFrame),
    /// A streaming error terminator.
    Error(ErrorFrame),
    /// A streaming final-body terminator.
    Final(FinalFrame),
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_var(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn encode_exponent(out: &mut Vec<u8>, e: &Exponent) {
    match e {
        Exponent::Fixed(a) => {
            out.push(0);
            put_f64(out, *a);
        }
        Exponent::Uniform => out.push(1),
        Exponent::UniformRange { lo, hi } => {
            out.push(2);
            put_f64(out, *lo);
            put_f64(out, *hi);
        }
        Exponent::Optimal => out.push(3),
    }
}

fn encode_query_payload(q: &QueryFrame, out: &mut Vec<u8>) {
    out.extend_from_slice(&q.key);
    out.push(match q.kind {
        QueryKind::SingleWalk => 0,
        QueryKind::SingleFlight => 1,
        QueryKind::Parallel => 2,
        QueryKind::Search => 3,
    });
    encode_exponent(out, &q.exponent);
    match &q.search {
        None => out.push(0),
        Some(Search::Levy(e)) => {
            out.push(1);
            encode_exponent(out, e);
        }
        Some(Search::Ballistic) => out.push(2),
        Some(Search::RandomWalk) => out.push(3),
        Some(Search::Mixture(n)) => {
            out.push(4);
            put_var(out, *n);
        }
    }
    put_var(out, q.k);
    put_var(out, q.ell);
    put_var(out, q.budget);
    out.push(match q.placement {
        Placement::RandomDirection => 0,
        Placement::FixedEast => 1,
    });
    match &q.estimator {
        Estimator::Trials(n) => {
            out.push(0);
            put_var(out, *n);
        }
        Estimator::Adaptive {
            absolute,
            relative,
            max_trials,
        } => {
            out.push(1);
            put_f64(out, *absolute);
            put_f64(out, *relative);
            put_var(out, *max_trials);
        }
    }
    out.extend_from_slice(&q.seed.to_le_bytes());
    match q.timeout_ms {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_var(out, t);
        }
    }
}

fn encode_result_payload(r: &ResultFrame, out: &mut Vec<u8>) {
    let mut query = Vec::new();
    encode_query_payload(&r.query, &mut query);
    put_var(out, query.len() as u64);
    out.extend_from_slice(&query);
    match &r.body {
        ResultBody::Summary {
            trials,
            hits,
            censored,
            budget,
            hit_rate,
            ci,
            conditional_mean,
            conditional_median,
            mean_lower_bound,
        } => {
            out.push(0);
            put_var(out, *trials);
            put_var(out, *hits);
            put_var(out, *censored);
            put_var(out, *budget);
            put_f64(out, *hit_rate);
            put_f64(out, ci.0);
            put_f64(out, ci.1);
            put_f64(out, *conditional_mean);
            put_f64(out, *conditional_median);
            put_f64(out, *mean_lower_bound);
        }
        ResultBody::Adaptive {
            p,
            ci,
            trials_used,
            successes,
            batches,
            converged,
            max_trials,
        } => {
            out.push(1);
            put_f64(out, *p);
            put_f64(out, ci.0);
            put_f64(out, ci.1);
            put_var(out, *trials_used);
            put_var(out, *successes);
            put_var(out, *batches);
            out.push(u8::from(*converged));
            put_var(out, *max_trials);
        }
    }
}

impl Frame {
    fn kind_byte(&self) -> u8 {
        match self {
            Frame::Query(_) => KIND_QUERY,
            Frame::Result(_) => KIND_RESULT,
            Frame::Batch(_) => KIND_BATCH,
            Frame::Error(_) => KIND_ERROR,
            Frame::Final(_) => KIND_FINAL,
        }
    }

    /// Encodes the frame: 8-byte header plus payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            Frame::Query(q) => encode_query_payload(q, &mut payload),
            Frame::Result(r) => encode_result_payload(r, &mut payload),
            Frame::Batch(b) => {
                put_var(&mut payload, b.batch);
                put_var(&mut payload, b.trials_delta);
                put_var(&mut payload, b.successes_delta);
                put_f64(&mut payload, b.p);
                put_f64(&mut payload, b.ci.0);
                put_f64(&mut payload, b.ci.1);
            }
            Frame::Error(e) => {
                payload.extend_from_slice(&e.status.to_le_bytes());
                put_var(&mut payload, e.message.len() as u64);
                payload.extend_from_slice(e.message.as_bytes());
            }
            Frame::Final(f) => payload.extend_from_slice(&f.body),
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.kind_byte());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes one complete frame; rejects trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if bytes[0..2] != MAGIC {
            return Err(WireError::BadMagic);
        }
        if bytes[2] != VERSION {
            return Err(WireError::UnsupportedVersion(bytes[2]));
        }
        let kind = bytes[3];
        let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if len > MAX_PAYLOAD {
            return Err(WireError::PayloadTooLarge(len));
        }
        let len = len as usize;
        let rest = &bytes[HEADER_LEN..];
        if rest.len() < len {
            return Err(WireError::Truncated);
        }
        if rest.len() > len {
            return Err(WireError::TrailingBytes);
        }
        let mut r = Reader { buf: rest, pos: 0 };
        let frame = match kind {
            KIND_QUERY => Frame::Query(decode_query_payload(&mut r)?),
            KIND_RESULT => Frame::Result(decode_result_payload(&mut r)?),
            KIND_BATCH => Frame::Batch(BatchFrame {
                batch: r.var()?,
                trials_delta: r.var()?,
                successes_delta: r.var()?,
                p: r.f64()?,
                ci: (r.f64()?, r.f64()?),
            }),
            KIND_ERROR => {
                let status = u16::from_le_bytes([r.u8()?, r.u8()?]);
                let len = r.var()?;
                let raw = r.take(len as usize)?.to_vec();
                let message = String::from_utf8(raw).map_err(|_| WireError::BadUtf8)?;
                Frame::Error(ErrorFrame { status, message })
            }
            KIND_FINAL => Frame::Final(FinalFrame {
                body: r.take(r.remaining())?.to_vec(),
            }),
            other => return Err(WireError::UnknownKind(other)),
        };
        r.done()?;
        Ok(frame)
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn var(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        for shift in 0..10u32 {
            let byte = self.u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 9 && byte > 1 {
                return Err(WireError::BadVarint);
            }
            value |= bits << (7 * shift);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(WireError::BadVarint)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let raw = self.take(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn decode_exponent(r: &mut Reader<'_>) -> Result<Exponent, WireError> {
    match r.u8()? {
        0 => Ok(Exponent::Fixed(r.f64()?)),
        1 => Ok(Exponent::Uniform),
        2 => Ok(Exponent::UniformRange {
            lo: r.f64()?,
            hi: r.f64()?,
        }),
        3 => Ok(Exponent::Optimal),
        value => Err(WireError::BadTag {
            field: "exponent",
            value,
        }),
    }
}

fn decode_query_payload(r: &mut Reader<'_>) -> Result<QueryFrame, WireError> {
    let mut key = [0u8; 16];
    key.copy_from_slice(r.take(16)?);
    let kind = match r.u8()? {
        0 => QueryKind::SingleWalk,
        1 => QueryKind::SingleFlight,
        2 => QueryKind::Parallel,
        3 => QueryKind::Search,
        value => {
            return Err(WireError::BadTag {
                field: "kind",
                value,
            })
        }
    };
    let exponent = decode_exponent(r)?;
    let search = match r.u8()? {
        0 => None,
        1 => Some(Search::Levy(decode_exponent(r)?)),
        2 => Some(Search::Ballistic),
        3 => Some(Search::RandomWalk),
        4 => Some(Search::Mixture(r.var()?)),
        value => {
            return Err(WireError::BadTag {
                field: "search",
                value,
            })
        }
    };
    let k = r.var()?;
    let ell = r.var()?;
    let budget = r.var()?;
    let placement = match r.u8()? {
        0 => Placement::RandomDirection,
        1 => Placement::FixedEast,
        value => {
            return Err(WireError::BadTag {
                field: "placement",
                value,
            })
        }
    };
    let estimator = match r.u8()? {
        0 => Estimator::Trials(r.var()?),
        1 => Estimator::Adaptive {
            absolute: r.f64()?,
            relative: r.f64()?,
            max_trials: r.var()?,
        },
        value => {
            return Err(WireError::BadTag {
                field: "estimator",
                value,
            })
        }
    };
    let seed_raw = r.take(8)?;
    let mut seed_bytes = [0u8; 8];
    seed_bytes.copy_from_slice(seed_raw);
    let seed = u64::from_le_bytes(seed_bytes);
    let timeout_ms = match r.u8()? {
        0 => None,
        1 => Some(r.var()?),
        value => {
            return Err(WireError::BadTag {
                field: "timeout",
                value,
            })
        }
    };
    Ok(QueryFrame {
        key,
        kind,
        exponent,
        search,
        k,
        ell,
        budget,
        placement,
        estimator,
        seed,
        timeout_ms,
    })
}

fn decode_result_payload(r: &mut Reader<'_>) -> Result<ResultFrame, WireError> {
    let qlen = r.var()? as usize;
    let qbytes = r.take(qlen)?;
    let mut qr = Reader {
        buf: qbytes,
        pos: 0,
    };
    let query = decode_query_payload(&mut qr)?;
    qr.done()?;
    let body = match r.u8()? {
        0 => ResultBody::Summary {
            trials: r.var()?,
            hits: r.var()?,
            censored: r.var()?,
            budget: r.var()?,
            hit_rate: r.f64()?,
            ci: (r.f64()?, r.f64()?),
            conditional_mean: r.f64()?,
            conditional_median: r.f64()?,
            mean_lower_bound: r.f64()?,
        },
        1 => ResultBody::Adaptive {
            p: r.f64()?,
            ci: (r.f64()?, r.f64()?),
            trials_used: r.var()?,
            successes: r.var()?,
            batches: r.var()?,
            converged: match r.u8()? {
                0 => false,
                1 => true,
                value => {
                    return Err(WireError::BadTag {
                        field: "converged",
                        value,
                    })
                }
            },
            max_trials: r.var()?,
        },
        value => {
            return Err(WireError::BadTag {
                field: "result_mode",
                value,
            })
        }
    };
    Ok(ResultFrame { query, body })
}

/// Renders a 16-byte key as the canonical 32-hex-digit cache key.
pub fn key_to_hex(key: &[u8; 16]) -> String {
    let mut out = String::with_capacity(32);
    for b in key {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Parses a 32-hex-digit cache key into its 16-byte wire form.
pub fn key_from_hex(hex: &str) -> Option<[u8; 16]> {
    if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let mut key = [0u8; 16];
    for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
        let s = std::str::from_utf8(chunk).ok()?;
        key[i] = u8::from_str_radix(s, 16).ok()?;
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> QueryFrame {
        QueryFrame {
            key: *b"0123456789abcdef",
            kind: QueryKind::Parallel,
            exponent: Exponent::Optimal,
            search: None,
            k: 8,
            ell: 16,
            budget: 4000,
            placement: Placement::RandomDirection,
            estimator: Estimator::Trials(300),
            seed: 42,
            timeout_ms: None,
        }
    }

    fn sample_adaptive_query() -> QueryFrame {
        QueryFrame {
            key: [0xAA; 16],
            kind: QueryKind::Search,
            exponent: Exponent::Fixed(2.5),
            search: Some(Search::Mixture(3)),
            k: 4,
            ell: 64,
            budget: 100_000,
            placement: Placement::FixedEast,
            estimator: Estimator::Adaptive {
                absolute: 0.01,
                relative: 0.10,
                max_trials: 1 << 20,
            },
            seed: u64::MAX,
            timeout_ms: Some(2_500),
        }
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = vec![
            Frame::Query(sample_query()),
            Frame::Query(sample_adaptive_query()),
            Frame::Query(QueryFrame {
                search: Some(Search::Levy(Exponent::UniformRange { lo: 1.5, hi: 2.5 })),
                ..sample_adaptive_query()
            }),
            Frame::Query(QueryFrame {
                exponent: Exponent::Uniform,
                search: Some(Search::Ballistic),
                ..sample_query()
            }),
            Frame::Query(QueryFrame {
                search: Some(Search::RandomWalk),
                ..sample_query()
            }),
            Frame::Result(ResultFrame {
                query: sample_query(),
                body: ResultBody::Summary {
                    trials: 300,
                    hits: 154,
                    censored: 146,
                    budget: 4000,
                    hit_rate: 154.0 / 300.0,
                    ci: (0.456, 0.570),
                    conditional_mean: 812.25,
                    conditional_median: 640.0,
                    mean_lower_bound: f64::NAN,
                },
            }),
            Frame::Result(ResultFrame {
                query: sample_adaptive_query(),
                body: ResultBody::Adaptive {
                    p: 0.513,
                    ci: (0.47, 0.55),
                    trials_used: 1792,
                    successes: 919,
                    batches: 3,
                    converged: true,
                    max_trials: 1 << 20,
                },
            }),
            Frame::Batch(BatchFrame {
                batch: 3,
                trials_delta: 1024,
                successes_delta: 530,
                p: 0.51,
                ci: (0.48, 0.54),
            }),
            Frame::Error(ErrorFrame {
                status: 504,
                message: "deadline exceeded".into(),
            }),
            Frame::Final(FinalFrame {
                body: b"{\"schema\":\"levy-served/result-v1\"}".to_vec(),
            }),
        ];
        for frame in frames {
            let bytes = frame.encode();
            let decoded = Frame::decode(&bytes).expect("frame decodes");
            // NaN-carrying frames are not PartialEq-equal; compare via
            // re-encoding, which is bit-exact.
            assert_eq!(decoded.encode(), bytes, "re-encode is byte-identical");
        }
    }

    /// The golden corpus: committed hex images pinned in both directions.
    /// A change to any of these bytes is a wire-format break and needs a
    /// version bump.
    #[test]
    fn golden_query_frame_bytes_are_pinned() {
        let frame = Frame::Query(sample_query());
        let expected = concat!(
            "4c570101",                         // magic, version 1, kind query
            "24000000",                         // payload length 36, u32 LE
            "30313233343536373839616263646566", // embedded FNV key
            "02",                               // kind = parallel
            "03",                               // exponent = optimal
            "00",                               // search = none
            "08",                               // k = 8
            "10",                               // ell = 16
            "a01f",                             // budget = 4000, varint
            "00",                               // placement = random
            "00ac02",                           // estimator = trials(300)
            "2a00000000000000",                 // seed = 42, u64 LE
            "00"                                // no timeout
        );
        let bytes = frame.encode();
        assert_eq!(hex(&bytes), expected, "encoded bytes changed");
        let decoded = Frame::decode(&unhex(expected)).expect("golden decodes");
        assert_eq!(decoded, frame, "golden decodes to the expected struct");
        assert_eq!(hex(&decoded.encode()), expected, "golden re-encodes");
    }

    #[test]
    fn golden_adaptive_query_frame_bytes_are_pinned() {
        let frame = Frame::Query(sample_adaptive_query());
        let expected = concat!(
            "4c570101",                         // magic, version 1, kind query
            "41000000",                         // payload length 65, u32 LE
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", // embedded FNV key
            "03",                               // kind = search
            "000000000000000440",               // exponent = fixed(2.5)
            "0403",                             // search = mixture(3)
            "04",                               // k = 4
            "40",                               // ell = 64
            "a08d06",                           // budget = 100000, varint
            "01",                               // placement = east
            "01",                               // estimator = adaptive
            "7b14ae47e17a843f",                 //   absolute = 0.01
            "9a9999999999b93f",                 //   relative = 0.10
            "808040",                           //   max_trials = 1<<20
            "ffffffffffffffff",                 // seed = u64::MAX
            "01c413"                            // timeout_ms = 2500
        );
        let bytes = frame.encode();
        assert_eq!(hex(&bytes), expected, "encoded bytes changed");
        let decoded = Frame::decode(&unhex(expected)).expect("golden decodes");
        assert_eq!(decoded, frame);
        assert_eq!(hex(&decoded.encode()), expected);
    }

    #[test]
    fn golden_batch_and_error_frames_are_pinned() {
        let batch = Frame::Batch(BatchFrame {
            batch: 2,
            trials_delta: 512,
            successes_delta: 260,
            p: 0.5,
            ci: (0.25, 0.75),
        });
        let batch_expected = concat!(
            "4c570103",         // magic, version 1, kind batch
            "1d000000",         // payload length 29, u32 LE
            "02",               // batch = 2
            "8004",             // trials_delta = 512, varint
            "8402",             // successes_delta = 260, varint
            "000000000000e03f", // p = 0.5
            "000000000000d03f", // ci lo = 0.25
            "000000000000e83f"  // ci hi = 0.75
        )
        .to_string();
        assert_eq!(hex(&batch.encode()), batch_expected);
        assert_eq!(Frame::decode(&unhex(&batch_expected)).unwrap(), batch);

        let error = Frame::Error(ErrorFrame {
            status: 504,
            message: "deadline".into(),
        });
        let error_expected = "4c570104 0b000000 f801 08 646561646c696e65".replace(' ', "");
        assert_eq!(hex(&error.encode()), error_expected);
        assert_eq!(Frame::decode(&unhex(&error_expected)).unwrap(), error);
    }

    #[test]
    fn version_bump_is_rejected_structurally() {
        let mut bytes = Frame::Query(sample_query()).encode();
        bytes[2] = VERSION + 1;
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::UnsupportedVersion(VERSION + 1))
        );
        bytes[2] = 0;
        assert_eq!(Frame::decode(&bytes), Err(WireError::UnsupportedVersion(0)));
    }

    #[test]
    fn bad_magic_and_unknown_kind_are_rejected() {
        let mut bytes = Frame::Query(sample_query()).encode();
        bytes[0] = b'X';
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadMagic));
        let mut bytes = Frame::Query(sample_query()).encode();
        bytes[3] = 0x7f;
        assert_eq!(Frame::decode(&bytes), Err(WireError::UnknownKind(0x7f)));
    }

    #[test]
    fn truncation_at_every_prefix_never_panics() {
        for frame in [
            Frame::Query(sample_adaptive_query()),
            Frame::Result(ResultFrame {
                query: sample_query(),
                body: ResultBody::Adaptive {
                    p: 0.5,
                    ci: (0.4, 0.6),
                    trials_used: 100,
                    successes: 50,
                    batches: 1,
                    converged: false,
                    max_trials: 200,
                },
            }),
            Frame::Error(ErrorFrame {
                status: 400,
                message: "bad".into(),
            }),
        ] {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Frame::decode(&bytes[..cut]).is_err(),
                    "prefix of length {cut} must be rejected"
                );
            }
            assert!(Frame::decode(&bytes).is_ok());
        }
    }

    #[test]
    fn trailing_bytes_and_length_lies_are_rejected() {
        let mut bytes = Frame::Query(sample_query()).encode();
        bytes.push(0x00);
        assert_eq!(Frame::decode(&bytes), Err(WireError::TrailingBytes));

        // Understate the declared length: the payload parser sees a
        // short buffer, the extra byte becomes trailing.
        let mut bytes = Frame::Query(sample_query()).encode();
        let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        bytes[4..8].copy_from_slice(&(len - 1).to_le_bytes());
        assert!(Frame::decode(&bytes).is_err());

        // Oversized declared length is capped before any allocation.
        bytes[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::PayloadTooLarge(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn varints_reject_overlong_and_overflowing_encodings() {
        let mut r = Reader {
            buf: &[
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
            ],
            pos: 0,
        };
        assert_eq!(r.var(), Err(WireError::BadVarint));
        let mut r = Reader {
            buf: &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            pos: 0,
        };
        assert_eq!(r.var(), Err(WireError::BadVarint));
        let mut r = Reader {
            buf: &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
            pos: 0,
        };
        assert_eq!(r.var(), Ok(u64::MAX));
    }

    #[test]
    fn nan_and_signed_zero_round_trip_bit_exactly() {
        let frame = Frame::Batch(BatchFrame {
            batch: 1,
            trials_delta: 0,
            successes_delta: 0,
            p: f64::NAN,
            ci: (-0.0, f64::INFINITY),
        });
        let bytes = frame.encode();
        let Frame::Batch(b) = Frame::decode(&bytes).unwrap() else {
            panic!("wrong kind");
        };
        assert!(b.p.is_nan());
        assert_eq!(b.ci.0.to_bits(), (-0.0f64).to_bits());
        assert_eq!(b.ci.1, f64::INFINITY);
    }

    #[test]
    fn keys_round_trip_through_hex() {
        let key = *b"\x6c\x62\x27\x2e\x07\xbb\x01\x42\x62\xb8\x21\x75\x62\x95\xc5\x8d";
        let hex_key = key_to_hex(&key);
        assert_eq!(hex_key, "6c62272e07bb014262b821756295c58d");
        assert_eq!(key_from_hex(&hex_key), Some(key));
        assert_eq!(key_from_hex("zz"), None);
        assert_eq!(key_from_hex(&hex_key[..30]), None);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        s.as_bytes()
            .chunks(2)
            .map(|c| u8::from_str_radix(std::str::from_utf8(c).unwrap(), 16).unwrap())
            .collect()
    }
}
