//! Deterministic fault injection at the daemon's I/O seams.
//!
//! A [`FaultPlan`] is a replayable schedule of faults addressed by
//! *operation index* at each seam the server touches the outside world
//! through:
//!
//! * **socket** — connections are numbered in accept order; a socket
//!   fault fires after an exact byte budget on connection `conn`, so a
//!   read or write error lands at a reproducible wire offset
//!   ([`FaultStream`] wraps the `Read + Write` stream);
//! * **disk cache** — disk-tier reads and writes are numbered in
//!   arrival order; a read fault returns an error, a deterministic
//!   truncation, or deterministic corruption ([`FaultDisk`] wraps the
//!   [`DiskStore`](crate::cache::DiskStore) seam);
//! * **worker** — engine executions are numbered in start order; an
//!   exec fault panics inside the worker's `catch_unwind` guard.
//!
//! Because every seam consumes indices from atomic counters in arrival
//! order, a plan string (see [`FaultPlan::parse`]) plus the same request
//! sequence replays the same faults byte-for-byte. Plans are inert
//! outside the indices they name: operation `n` with no scheduled fault
//! behaves exactly as an unfaulted server, which is what lets tests
//! assert that seeded response bodies stay byte-identical around an
//! injected failure.
//!
//! The replay grammar (also documented in DESIGN.md §9):
//!
//! ```text
//! plan  := fault (';' fault)*
//! fault := 'socket_read_error@conn=N,after=B'
//!        | 'socket_write_error@conn=N,after=B'
//!        | 'disk_read_error@read=N'
//!        | 'disk_read_truncate@read=N,keep=B'
//!        | 'disk_read_corrupt@read=N'
//!        | 'disk_write_error@write=N'
//!        | 'worker_panic@exec=N'
//!        | 'peer_partition@peer=N'
//!        | 'peer_slow@peer=N,ms=M'
//!        | 'peer_flap@peer=N,period_ms=M'
//! ```
//!
//! The `peer_*` faults drive the **cluster seams** and differ from
//! the rest: they are *persistent conditions*, not indexed one-shot
//! events. `peer_partition@peer=N` makes every cluster call (health
//! probe, cache peek, forward) to peer `N` fail with a connection
//! error before any socket is dialed; `peer_slow@peer=N,ms=M` delays
//! each such call by `M` milliseconds first; `peer_flap@peer=N,
//! period_ms=M` partitions the peer during every *odd* `M`-millisecond
//! window of the plan's clock (up for the first window, down for the
//! second, and so on — a deterministic link flap). Peers are numbered
//! by their position in the configured `--peers` list (order
//! preserved, self excluded) — the same index `GET /v1/peers` reports.
//!
//! Time-dependent faults read the **plan clock**: wall time since the
//! plan was created by default, or a virtual clock pinned with
//! [`FaultPlan::set_clock_ms`] — the test harness drives flap windows
//! deterministically instead of sleeping through them.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use crate::cache::{DiskStore, StdDisk};

/// One scheduled fault, addressed by per-seam operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Connection `conn` errors (`ConnectionReset`) after reading
    /// `after` request bytes off the socket.
    SocketReadError {
        /// Accept-order connection index.
        conn: u64,
        /// Request bytes delivered before the read error.
        after: u64,
    },
    /// Connection `conn` errors (`BrokenPipe`) after writing `after`
    /// response bytes to the socket.
    SocketWriteError {
        /// Accept-order connection index.
        conn: u64,
        /// Response bytes accepted before the write error.
        after: u64,
    },
    /// Disk-tier read number `read` fails with an I/O error.
    DiskReadError {
        /// Arrival-order disk read index.
        read: u64,
    },
    /// Disk-tier read number `read` returns only the first `keep`
    /// bytes of the stored body (a torn/truncated entry).
    DiskReadTruncate {
        /// Arrival-order disk read index.
        read: u64,
        /// Bytes of the stored body to keep.
        keep: u64,
    },
    /// Disk-tier read number `read` returns a deterministically
    /// scrambled body (bit rot).
    DiskReadCorrupt {
        /// Arrival-order disk read index.
        read: u64,
    },
    /// Disk-tier write number `write` fails with an I/O error and
    /// leaves no file behind.
    DiskWriteError {
        /// Arrival-order disk write index.
        write: u64,
    },
    /// Engine execution number `exec` panics inside the worker.
    WorkerPanic {
        /// Start-order execution index.
        exec: u64,
    },
    /// Every cluster call to peer `peer` fails with a connection error
    /// (a network partition, as seen from this node).
    PeerPartition {
        /// Configured-order peer index.
        peer: u64,
    },
    /// Every cluster call to peer `peer` is delayed by `ms` milliseconds
    /// before dialing (a congested or GC-pausing peer).
    PeerSlow {
        /// Configured-order peer index.
        peer: u64,
        /// Injected delay, in milliseconds.
        ms: u64,
    },
    /// Peer `peer` alternates reachable/partitioned in `period_ms`
    /// windows of the plan clock: up during even windows (starting with
    /// window 0), partitioned during odd ones — a deterministic link
    /// flap for pinning the health table's hysteresis.
    PeerFlap {
        /// Configured-order peer index.
        peer: u64,
        /// Width of each up/down window, in plan-clock milliseconds.
        period_ms: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::SocketReadError { conn, after } => {
                write!(f, "socket_read_error@conn={conn},after={after}")
            }
            Fault::SocketWriteError { conn, after } => {
                write!(f, "socket_write_error@conn={conn},after={after}")
            }
            Fault::DiskReadError { read } => write!(f, "disk_read_error@read={read}"),
            Fault::DiskReadTruncate { read, keep } => {
                write!(f, "disk_read_truncate@read={read},keep={keep}")
            }
            Fault::DiskReadCorrupt { read } => write!(f, "disk_read_corrupt@read={read}"),
            Fault::DiskWriteError { write } => write!(f, "disk_write_error@write={write}"),
            Fault::WorkerPanic { exec } => write!(f, "worker_panic@exec={exec}"),
            Fault::PeerPartition { peer } => write!(f, "peer_partition@peer={peer}"),
            Fault::PeerSlow { peer, ms } => write!(f, "peer_slow@peer={peer},ms={ms}"),
            Fault::PeerFlap { peer, period_ms } => {
                write!(f, "peer_flap@peer={peer},period_ms={period_ms}")
            }
        }
    }
}

/// Socket faults assigned to one connection by [`FaultPlan::next_conn`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnFaults {
    /// Error reads after this many request bytes (`None`: never).
    pub read_error_after: Option<u64>,
    /// Error writes after this many response bytes (`None`: never).
    pub write_error_after: Option<u64>,
}

/// What [`FaultPlan::next_disk_read`] scheduled for one disk read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskReadFault {
    /// Fail the read with an I/O error.
    Error,
    /// Deliver only the first `n` bytes of the stored body.
    Truncate(u64),
    /// Deliver a deterministically scrambled body.
    Corrupt,
}

/// A seeded, replayable schedule of faults (see the module docs).
///
/// The plan hands out per-seam operation indices from atomic counters,
/// so concurrent connections/reads/executions are numbered in arrival
/// order and the same request sequence consumes the same indices.
/// [`reset`](FaultPlan::reset) rewinds the counters so one plan can be
/// replayed against a fresh request sequence.
///
/// Time-dependent faults (`peer_flap`) read the **plan clock**: wall
/// milliseconds since construction by default, or a virtual value
/// pinned by [`set_clock_ms`](FaultPlan::set_clock_ms) so tests step
/// through flap windows without sleeping.
#[derive(Debug)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    conns: AtomicU64,
    disk_reads: AtomicU64,
    disk_writes: AtomicU64,
    execs: AtomicU64,
    /// Wall-clock epoch of the plan clock.
    created: std::time::Instant,
    /// Virtual plan-clock override in ms; `u64::MAX` = use wall time.
    clock_ms: AtomicU64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            faults: Vec::new(),
            conns: AtomicU64::new(0),
            disk_reads: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            execs: AtomicU64::new(0),
            created: std::time::Instant::now(),
            clock_ms: AtomicU64::new(u64::MAX),
        }
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds one fault, returning `self` for chaining.
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Rewinds every per-seam operation counter to zero so the plan
    /// replays against a fresh request sequence.
    pub fn reset(&self) {
        self.conns.store(0, Ordering::SeqCst);
        self.disk_reads.store(0, Ordering::SeqCst);
        self.disk_writes.store(0, Ordering::SeqCst);
        self.execs.store(0, Ordering::SeqCst);
    }

    /// Parses the replay grammar from the module docs.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, args) = part
                .split_once('@')
                .ok_or_else(|| format!("fault `{part}` is missing `@`"))?;
            let field = |name: &str| -> Result<u64, String> {
                args.split(',')
                    .find_map(|kv| kv.trim().strip_prefix(name)?.strip_prefix('='))
                    .ok_or_else(|| format!("fault `{part}` is missing `{name}=`"))?
                    .parse()
                    .map_err(|_| format!("fault `{part}`: `{name}` must be an integer"))
            };
            let fault = match kind {
                "socket_read_error" => Fault::SocketReadError {
                    conn: field("conn")?,
                    after: field("after")?,
                },
                "socket_write_error" => Fault::SocketWriteError {
                    conn: field("conn")?,
                    after: field("after")?,
                },
                "disk_read_error" => Fault::DiskReadError {
                    read: field("read")?,
                },
                "disk_read_truncate" => Fault::DiskReadTruncate {
                    read: field("read")?,
                    keep: field("keep")?,
                },
                "disk_read_corrupt" => Fault::DiskReadCorrupt {
                    read: field("read")?,
                },
                "disk_write_error" => Fault::DiskWriteError {
                    write: field("write")?,
                },
                "worker_panic" => Fault::WorkerPanic {
                    exec: field("exec")?,
                },
                "peer_partition" => Fault::PeerPartition {
                    peer: field("peer")?,
                },
                "peer_slow" => Fault::PeerSlow {
                    peer: field("peer")?,
                    ms: field("ms")?,
                },
                "peer_flap" => {
                    let period_ms = field("period_ms")?;
                    if period_ms == 0 {
                        return Err(format!("fault `{part}`: `period_ms` must be nonzero"));
                    }
                    Fault::PeerFlap {
                        peer: field("peer")?,
                        period_ms,
                    }
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            plan.faults.push(fault);
        }
        Ok(plan)
    }

    /// Claims the next accept-order connection index and returns the
    /// socket faults scheduled for it.
    pub fn next_conn(&self) -> ConnFaults {
        let conn = self.conns.fetch_add(1, Ordering::SeqCst);
        let mut out = ConnFaults::default();
        for fault in &self.faults {
            match *fault {
                Fault::SocketReadError { conn: c, after } if c == conn => {
                    out.read_error_after = Some(after);
                }
                Fault::SocketWriteError { conn: c, after } if c == conn => {
                    out.write_error_after = Some(after);
                }
                _ => {}
            }
        }
        out
    }

    /// Claims the next disk-read index and returns its scheduled fault.
    pub fn next_disk_read(&self) -> Option<DiskReadFault> {
        let read = self.disk_reads.fetch_add(1, Ordering::SeqCst);
        self.faults.iter().find_map(|fault| match *fault {
            Fault::DiskReadError { read: r } if r == read => Some(DiskReadFault::Error),
            Fault::DiskReadTruncate { read: r, keep } if r == read => {
                Some(DiskReadFault::Truncate(keep))
            }
            Fault::DiskReadCorrupt { read: r } if r == read => Some(DiskReadFault::Corrupt),
            _ => None,
        })
    }

    /// Claims the next disk-write index; `true` if that write must fail.
    pub fn next_disk_write_fails(&self) -> bool {
        let write = self.disk_writes.fetch_add(1, Ordering::SeqCst);
        self.faults
            .iter()
            .any(|f| matches!(*f, Fault::DiskWriteError { write: w } if w == write))
    }

    /// Claims the next execution index; `true` if it must panic.
    pub fn next_exec_panics(&self) -> bool {
        let exec = self.execs.fetch_add(1, Ordering::SeqCst);
        self.faults
            .iter()
            .any(|f| matches!(*f, Fault::WorkerPanic { exec: e } if e == exec))
    }

    /// The plan clock in milliseconds: the virtual value when one was
    /// pinned, else wall time since the plan was created.
    pub fn clock_ms(&self) -> u64 {
        match self.clock_ms.load(Ordering::SeqCst) {
            u64::MAX => u64::try_from(self.created.elapsed().as_millis()).unwrap_or(u64::MAX - 1),
            pinned => pinned,
        }
    }

    /// Pins the plan clock to a virtual value so time-dependent faults
    /// (`peer_flap`) step deterministically. `u64::MAX` is reserved as
    /// the "wall time" sentinel and is clamped.
    pub fn set_clock_ms(&self, ms: u64) {
        self.clock_ms.store(ms.min(u64::MAX - 1), Ordering::SeqCst);
    }

    /// Whether peer `peer` is partitioned away from this node — by a
    /// standing `peer_partition`, or by a `peer_flap` whose plan clock
    /// currently sits in a down (odd) window. Unlike the indexed seams
    /// these are conditions, not one-shot events: no counter is
    /// consumed.
    pub fn peer_partitioned(&self, peer: u64) -> bool {
        self.faults.iter().any(|f| match *f {
            Fault::PeerPartition { peer: p } => p == peer,
            Fault::PeerFlap { peer: p, period_ms } => {
                p == peer && (self.clock_ms() / period_ms) % 2 == 1
            }
            _ => false,
        })
    }

    /// The standing injected delay before each call to peer `peer`.
    pub fn peer_slow_ms(&self, peer: u64) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            Fault::PeerSlow { peer: p, ms } if p == peer => Some(ms),
            _ => None,
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// Deterministically scrambles a body while keeping it printable ASCII
/// (so it still round-trips through `String`).
pub fn scramble(body: &str) -> String {
    scramble_bytes(body.as_bytes())
        .into_iter()
        .map(char::from)
        .collect()
}

/// [`scramble`] on raw bytes: the shape of bit rot the disk-read
/// corruption fault replays on a stored `.lw` frame.
pub(crate) fn scramble_bytes(body: &[u8]) -> Vec<u8> {
    body.iter().map(|b| ((b ^ 0x2a) % 94) + 33).collect()
}

/// Wraps a stream so reads/writes error after exact byte budgets.
///
/// With no budgets set the wrapper is fully transparent. A read budget
/// of `n` delivers exactly `n` bytes and then fails every read with
/// `ConnectionReset`; a write budget of `n` accepts exactly `n` bytes
/// and then fails with `BrokenPipe` — the partial prefix is genuinely
/// delivered to the peer, mimicking a connection torn mid-frame.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    read_left: Option<u64>,
    write_left: Option<u64>,
}

impl<S> FaultStream<S> {
    /// Wraps `inner` with the budgets from `faults`.
    pub fn new(inner: S, faults: ConnFaults) -> FaultStream<S> {
        FaultStream {
            inner,
            read_left: faults.read_error_after,
            write_left: faults.write_error_after,
        }
    }

    /// Unwraps back to the underlying stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.read_left {
            None => self.inner.read(buf),
            Some(0) => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected socket read fault",
            )),
            Some(left) => {
                let cap = buf.len().min(usize::try_from(left).unwrap_or(usize::MAX));
                let n = self.inner.read(&mut buf[..cap])?;
                self.read_left = Some(left - n as u64);
                Ok(n)
            }
        }
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.write_left {
            None => self.inner.write(buf),
            Some(0) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected socket write fault",
            )),
            Some(left) => {
                let cap = buf.len().min(usize::try_from(left).unwrap_or(usize::MAX));
                let n = self.inner.write(&buf[..cap])?;
                self.write_left = Some(left - n as u64);
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A [`DiskStore`] that consults a [`FaultPlan`] around a real
/// [`StdDisk`], mutating reads and failing writes per schedule.
#[derive(Debug)]
pub struct FaultDisk {
    plan: std::sync::Arc<FaultPlan>,
    real: StdDisk,
}

impl FaultDisk {
    /// A fault-injecting store driven by `plan`.
    pub fn new(plan: std::sync::Arc<FaultPlan>) -> FaultDisk {
        FaultDisk {
            plan,
            real: StdDisk,
        }
    }
}

impl DiskStore for FaultDisk {
    // The disk tier stores one `.lw` file per entry, read once per
    // lookup and written once per put, so `disk_read_*@read=N` and
    // `disk_write_error@write=N` number exactly those operations.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        // The real read happens first so plan indices advance the same
        // way whether or not the entry exists.
        let body = self.real.read(path);
        match self.plan.next_disk_read() {
            None => body,
            Some(DiskReadFault::Error) => Err(io::Error::other("injected disk read fault")),
            Some(DiskReadFault::Truncate(keep)) => {
                let mut body = body?;
                body.truncate(usize::try_from(keep).unwrap_or(usize::MAX));
                Ok(body)
            }
            Some(DiskReadFault::Corrupt) => Ok(scramble_bytes(&body?)),
        }
    }

    fn write(&self, path: &Path, body: &[u8]) -> io::Result<()> {
        if self.plan.next_disk_write_fails() {
            return Err(io::Error::other("injected disk write fault"));
        }
        self.real.write(path, body)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.real.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<(SystemTime, PathBuf)>> {
        self.real.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_format_round_trips() {
        let plan = FaultPlan::new()
            .with(Fault::SocketReadError { conn: 0, after: 16 })
            .with(Fault::SocketWriteError { conn: 2, after: 64 })
            .with(Fault::DiskReadError { read: 1 })
            .with(Fault::DiskReadTruncate { read: 3, keep: 40 })
            .with(Fault::DiskReadCorrupt { read: 4 })
            .with(Fault::DiskWriteError { write: 0 })
            .with(Fault::WorkerPanic { exec: 5 })
            .with(Fault::PeerPartition { peer: 1 })
            .with(Fault::PeerSlow { peer: 0, ms: 250 })
            .with(Fault::PeerFlap {
                peer: 2,
                period_ms: 500,
            });
        let spec = plan.to_string();
        assert_eq!(
            spec,
            "socket_read_error@conn=0,after=16;socket_write_error@conn=2,after=64;\
             disk_read_error@read=1;disk_read_truncate@read=3,keep=40;\
             disk_read_corrupt@read=4;disk_write_error@write=0;worker_panic@exec=5;\
             peer_partition@peer=1;peer_slow@peer=0,ms=250;peer_flap@peer=2,period_ms=500"
        );
        let reparsed = FaultPlan::parse(&spec).unwrap();
        assert_eq!(reparsed.faults(), plan.faults());
        assert_eq!(reparsed.to_string(), spec);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "socket_read_error",
            "socket_read_error@conn=0",
            "socket_read_error@conn=x,after=1",
            "launch_missiles@now=1",
            "peer_partition",
            "peer_partition@conn=0",
            "peer_slow@peer=0",
            "peer_slow@peer=0,ms=x",
            "peer_flap@peer=0",
            "peer_flap@peer=0,period_ms=x",
            "peer_flap@peer=0,period_ms=0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should be rejected");
        }
        assert!(FaultPlan::parse("").unwrap().faults().is_empty());
    }

    #[test]
    fn indices_are_consumed_in_order_and_reset_rewinds() {
        let plan = FaultPlan::new().with(Fault::WorkerPanic { exec: 1 });
        assert!(!plan.next_exec_panics());
        assert!(plan.next_exec_panics());
        assert!(!plan.next_exec_panics());
        plan.reset();
        assert!(!plan.next_exec_panics());
        assert!(plan.next_exec_panics());
    }

    #[test]
    fn peer_faults_are_standing_conditions_not_indexed_events() {
        let plan = FaultPlan::parse("peer_partition@peer=1;peer_slow@peer=2,ms=40").unwrap();
        for _ in 0..3 {
            assert!(!plan.peer_partitioned(0));
            assert!(plan.peer_partitioned(1), "repeated queries keep failing");
            assert_eq!(plan.peer_slow_ms(2), Some(40));
            assert_eq!(plan.peer_slow_ms(1), None);
        }
        plan.reset();
        assert!(plan.peer_partitioned(1), "reset does not heal a partition");
    }

    #[test]
    fn peer_flap_alternates_windows_on_the_virtual_clock() {
        let plan = FaultPlan::parse("peer_flap@peer=1,period_ms=100").unwrap();
        // Window 0 (0..100 ms): up. Window 1 (100..200 ms): down. Etc.
        for (ms, down) in [
            (0, false),
            (99, false),
            (100, true),
            (199, true),
            (200, false),
            (350, true),
        ] {
            plan.set_clock_ms(ms);
            assert_eq!(
                plan.peer_partitioned(1),
                down,
                "at t={ms}ms the flapping peer should be {}",
                if down { "down" } else { "up" }
            );
            assert!(!plan.peer_partitioned(0), "other peers never flap");
        }
    }

    #[test]
    fn plan_clock_defaults_to_wall_time_until_pinned() {
        let plan = FaultPlan::new();
        let early = plan.clock_ms();
        assert!(early < 10_000, "fresh plan clock starts near zero");
        plan.set_clock_ms(123_456);
        assert_eq!(plan.clock_ms(), 123_456);
        plan.set_clock_ms(u64::MAX);
        assert_eq!(plan.clock_ms(), u64::MAX - 1, "sentinel is clamped");
    }

    #[test]
    fn fault_stream_errors_at_exact_byte_offsets() {
        let data = b"0123456789".to_vec();
        let mut stream = FaultStream::new(
            std::io::Cursor::new(data),
            ConnFaults {
                read_error_after: Some(4),
                write_error_after: None,
            },
        );
        let mut buf = [0u8; 16];
        let n = stream.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"0123");
        let err = stream.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);

        let mut sink = FaultStream::new(
            std::io::Cursor::new(Vec::new()),
            ConnFaults {
                read_error_after: None,
                write_error_after: Some(3),
            },
        );
        assert_eq!(sink.write(b"abcdef").unwrap(), 3);
        let err = sink.write(b"def").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(sink.into_inner().into_inner(), b"abc");
    }

    #[test]
    fn unbudgeted_stream_is_transparent() {
        let mut stream = FaultStream::new(
            std::io::Cursor::new(b"hello".to_vec()),
            ConnFaults::default(),
        );
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello");
    }

    #[test]
    fn scramble_is_deterministic_and_unparsable() {
        let body = "{\"schema\":\"levy-served/result-v1\"}";
        let a = scramble(body);
        assert_eq!(a, scramble(body));
        assert_ne!(a, body);
        assert!(levy_sim::Json::parse(&a).is_err());
        assert!(a.bytes().all(|b| (33..127).contains(&b)));
        assert_eq!(scramble_bytes(body.as_bytes()), a.as_bytes());
    }
}
