//! The load generator: one TCP connection to the server, at most two
//! threads (an open-loop writer beside the reader).
//!
//! Timing boundaries: requests are encoded before the timed phase; a reply
//! is stamped when its last byte has been read, and its payload is kept raw
//! and decoded only after the phase ends.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a reply may take before the run is declared failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Pre-encoded length-prefixed frames, back to back.
#[derive(Debug, Default, Clone)]
pub struct Frames {
    buf: Vec<u8>,
    offs: Vec<usize>,
}

impl Frames {
    pub fn from_payloads<I: IntoIterator<Item = Vec<u8>>>(payloads: I) -> Frames {
        let mut frames = Frames::default();
        for p in payloads {
            frames.offs.push(frames.buf.len());
            crate::workload::push_frame(&mut frames.buf, &p);
        }
        frames
    }

    pub fn len(&self) -> usize {
        self.offs.len()
    }

    /// Frames `range.start..range.end` as one contiguous byte slice.
    pub fn slice(&self, range: std::ops::Range<usize>) -> &[u8] {
        let end = self.offs.get(range.end).copied().unwrap_or(self.buf.len());
        &self.buf[self.offs[range.start]..end]
    }

    pub fn frame(&self, i: usize) -> &[u8] {
        self.slice(i..i + 1)
    }
}

/// Raw replies in arrival order: the time their last byte was read, and
/// their payload (one allocation each, so the reader never stalls copying
/// a growing buffer).
#[derive(Debug, Default)]
pub struct Replies {
    pub recs: Vec<(u64, Vec<u8>)>,
}

impl Replies {
    pub fn payload(&self, rec: usize) -> &[u8] {
        &self.recs[rec].1
    }

    pub fn recv_ns(&self, rec: usize) -> u64 {
        self.recs[rec].0
    }
}

/// The correlation id the server echoes first in every reply
/// (`{"id":<n>,...`); `None` for unattributable frames.
pub fn reply_id(payload: &[u8]) -> Option<u64> {
    let digits = payload.strip_prefix(b"{\"id\":")?;
    let end = digits.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

/// Nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock(pub Instant);

impl Clock {
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    pub fn at(&self, ns: u64) -> Instant {
        self.0 + Duration::from_nanos(ns)
    }
}

/// Sleeps until shortly before `deadline`, then spins the rest, so a send
/// is neither late by the sleep's overshoot nor burns a core between sends.
pub fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN + SPIN / 2 {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    pub clock: Clock,
}

impl Conn {
    pub fn new(stream: TcpStream, clock: Clock) -> io::Result<Conn> {
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
            clock,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads one reply frame into `replies`; returns its record index.
    pub fn recv(&mut self, replies: &mut Replies) -> io::Result<usize> {
        let mut prefix = [0u8; 4];
        self.reader.read_exact(&mut prefix)?;
        let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
        self.reader.read_exact(&mut payload)?;
        replies.recs.push((self.clock.ns(), payload));
        Ok(replies.recs.len() - 1)
    }

    /// Sends one frame and awaits one reply; returns the round trip in ns
    /// and the reply's record index.
    pub fn round_trip(&mut self, frame: &[u8], replies: &mut Replies) -> io::Result<(u64, usize)> {
        let start = self.clock.ns();
        self.send(frame)?;
        let rec = self.recv(replies)?;
        Ok((replies.recv_ns(rec) - start, rec))
    }

    /// Sends `count` frames pipelined in one write and awaits all replies;
    /// returns the time from the send to the last reply's last byte.
    pub fn burst(&mut self, frames: &[u8], count: usize, replies: &mut Replies) -> io::Result<u64> {
        let start = self.clock.ns();
        self.send(frames)?;
        let mut last = start;
        for _ in 0..count {
            let rec = self.recv(replies)?;
            last = replies.recv_ns(rec);
        }
        Ok(last - start)
    }
}

/// What the measured phase recorded.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Per sent request (a prefix of the stream): when it was due and when
    /// its first byte was written, in ns since the epoch.
    pub due_ns: Vec<u64>,
    pub sent_ns: Vec<u64>,
    pub replies: Replies,
    /// Burst durations and update round trips (`ring_updates`).
    pub bursts_ns: Vec<u64>,
    pub updates_ns: Vec<u64>,
    /// How late each send was against its schedule (open loop), or how long
    /// after the reply that freed its slot it went out (closed loops).
    pub late_ns: Vec<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The connection failed or a reply timed out.
    pub error: Option<String>,
}

impl PhaseLog {
    fn begin(conn: &Conn) -> PhaseLog {
        PhaseLog {
            start_ns: conn.clock.ns(),
            ..PhaseLog::default()
        }
    }

    fn finish(mut self, conn: &Conn, result: io::Result<()>) -> PhaseLog {
        self.end_ns = conn.clock.ns();
        self.error = result.err().map(|e| e.to_string());
        self
    }
}

/// Open loop: request `i` is written at `schedule[i]` after the phase
/// start by a writer thread while this thread reads replies.
pub fn open_loop(conn: &mut Conn, frames: &Frames, schedule: &[Duration]) -> PhaseLog {
    let mut log = PhaseLog::begin(conn);
    let clock = conn.clock;
    let start = clock.at(log.start_ns);
    let count = frames.len();
    let writer = match conn.writer.try_clone() {
        Ok(w) => w,
        Err(e) => return log.finish(conn, Err(e)),
    };
    let (sent, read) = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let mut writer = writer;
            let mut sent = Vec::with_capacity(count);
            for (i, offset) in schedule.iter().enumerate() {
                wait_until(start + *offset);
                sent.push(clock.ns());
                if writer.write_all(frames.frame(i)).is_err() {
                    break;
                }
            }
            sent
        });
        let mut read = Ok(());
        for _ in 0..count {
            if let Err(e) = conn.recv(&mut log.replies) {
                read = Err(e);
                break;
            }
        }
        let sent = handle.join().expect("open-loop writer thread panicked");
        (sent, read)
    });
    log.due_ns = schedule[..sent.len()]
        .iter()
        .map(|d| log.start_ns + d.as_nanos() as u64)
        .collect();
    log.late_ns = sent.iter().zip(&log.due_ns).map(|(s, d)| s - d).collect();
    log.sent_ns = sent;
    log.finish(conn, read)
}

/// Closed loop: keep `inflight` requests outstanding, sending the next as
/// each reply lands, until `seconds` have passed or the stream ends.
pub fn closed_loop(conn: &mut Conn, frames: &Frames, inflight: usize, seconds: f64) -> PhaseLog {
    let mut log = PhaseLog::begin(conn);
    let stop = log.start_ns + (seconds * 1e9) as u64;
    let result = (|| -> io::Result<()> {
        let mut outstanding = 0usize;
        while log.sent_ns.len() < inflight.min(frames.len()) {
            log.sent_ns.push(conn.clock.ns());
            conn.send(frames.frame(log.sent_ns.len() - 1))?;
            outstanding += 1;
        }
        while outstanding > 0 {
            let rec = conn.recv(&mut log.replies)?;
            outstanding -= 1;
            let next = log.sent_ns.len();
            if next < frames.len() && log.replies.recv_ns(rec) < stop {
                let now = conn.clock.ns();
                log.late_ns.push(now - log.replies.recv_ns(rec));
                log.sent_ns.push(now);
                conn.send(frames.frame(next))?;
                outstanding += 1;
            }
        }
        Ok(())
    })();
    log.due_ns = log.sent_ns.clone();
    log.finish(conn, result)
}

/// Closed loop of bursts: burst `b` (frames `b*len..(b+1)*len`) is written
/// in one go, all its replies are awaited, then update `b` is sent and
/// awaited; repeated until `seconds` have passed or the bursts run out.
pub fn burst_loop(
    conn: &mut Conn,
    frames: &Frames,
    burst_len: usize,
    updates: &Frames,
    seconds: f64,
) -> PhaseLog {
    let mut log = PhaseLog::begin(conn);
    let stop = log.start_ns + (seconds * 1e9) as u64;
    let result = (|| -> io::Result<()> {
        let mut freed = log.start_ns;
        for b in 0..updates.len() {
            let now = conn.clock.ns();
            if now >= stop {
                break;
            }
            log.late_ns.push(now - freed);
            let range = b * burst_len..(b + 1) * burst_len;
            let sent = conn.clock.ns();
            log.sent_ns.extend(std::iter::repeat(sent).take(burst_len));
            log.bursts_ns
                .push(conn.burst(frames.slice(range), burst_len, &mut log.replies)?);
            let (rtt, rec) = conn.round_trip(updates.frame(b), &mut log.replies)?;
            log.updates_ns.push(rtt);
            freed = log.replies.recv_ns(rec);
        }
        Ok(())
    })();
    log.due_ns = log.sent_ns.clone();
    log.finish(conn, result)
}
