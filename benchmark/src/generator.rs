//! The load generator: one thread multiplexing a few pipelined TCP
//! connections to the server, closed-loop (a fixed number of requests in
//! flight) or paced (open-loop, requests sent on a schedule whatever the
//! server does), checking every reply as it arrives.

use crate::corpus::CorpusReader;
use crate::spans::{Recorder, Span, SpanKind};
use crate::stack::{CatalogItem, CORRELATION_BYTES};
use crate::sysinfo::{now_ns, process_cpu_ns, steal_ns, thread_cpu_ns};
use p2drm_core::protocol::messages::LicenseStatus;
use p2drm_core::service::{ApiErrorCode, OpCode, ResponseEnvelope, WireResponse};
use p2drm_core::LicenseId;
use p2drm_crypto::rsa::RsaPublicKey;
use p2drm_net::Poller;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// Connections the generator multiplexes.
pub const CONNECTIONS: usize = 2;
/// Requests kept in flight per connection in closed-loop segments.
pub const PIPELINE_DEPTH: usize = 8;
/// Correlation ids the generator assigns start here, clear of the ids a
/// `WireClient` counts up from 1 in the same traced run.
pub const MUX_ID_BASE: u64 = 1 << 40;
/// How long the generator waits for any reply before giving the run up.
const STALL: Duration = Duration::from_secs(10);

/// Checks replies against what the corpus item asked for and keeps the
/// run's tallies.
pub struct Checker<'a> {
    catalog: &'a [CatalogItem],
    provider_key: &'a RsaPublicKey,
    /// Ids of every license a reply handed over (purchases and
    /// transfers): what must be in the store after the run.
    pub acknowledged: Vec<LicenseId>,
    /// Licenses among them that a purchase issued (each cost a coin).
    pub purchased: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Replies that were a server error envelope.
    pub error_replies: u64,
    /// Error replies that were the server's busy/shed envelope.
    pub shed: u64,
    pub first_failure: Option<String>,
}

impl<'a> Checker<'a> {
    pub fn new(catalog: &'a [CatalogItem], provider_key: &'a RsaPublicKey) -> Self {
        Checker {
            catalog,
            provider_key,
            acknowledged: Vec::new(),
            purchased: 0,
            attempted: 0,
            failed: 0,
            error_replies: 0,
            shed: 0,
            first_failure: None,
        }
    }

    /// Records an operation that failed before or without a reply.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Checks a license a purchase or transfer reply (or a journey)
    /// handed over; `item` is the catalog index it must be for, when the
    /// corpus records one.
    pub fn license(
        &mut self,
        license: &p2drm_core::License,
        item: Option<u16>,
        issued_by: OpCode,
    ) -> Result<(), String> {
        license
            .verify(self.provider_key)
            .map_err(|e| format!("license does not verify under the provider key: {e}"))?;
        if let Some(item) = item {
            if license.body.content_id != self.catalog[item as usize].id {
                return Err("license names a different item than was bought".into());
            }
        }
        self.acknowledged.push(license.id());
        if issued_by == OpCode::Purchase {
            self.purchased += 1;
        }
        Ok(())
    }

    fn verdict(&mut self, op: u8, aux: u16, id: u64, reply: &[u8]) -> Result<(), String> {
        let envelope =
            ResponseEnvelope::from_bytes(reply).map_err(|e| format!("undecodable reply: {e}"))?;
        if let WireResponse::Error(e) = &envelope.body {
            self.error_replies += 1;
            if e.code == ApiErrorCode::ServiceUnavailable {
                self.shed += 1;
            }
            return Err(format!(
                "error reply to {}: {e}",
                crate::stack::op_label(op)
            ));
        }
        if envelope.correlation_id != id {
            return Err(format!(
                "reply echoes correlation id {} for request {id}",
                envelope.correlation_id
            ));
        }
        match (OpCode::from_byte(op), envelope.body) {
            (Some(OpCode::Purchase), WireResponse::Purchase(r)) => {
                self.license(&r.license, Some(aux), OpCode::Purchase)
            }
            (Some(OpCode::Transfer), WireResponse::Transfer(r)) => {
                self.license(&r.license, None, OpCode::Transfer)
            }
            (Some(OpCode::Download), WireResponse::Download(r)) => {
                let want = &self.catalog[aux as usize];
                if r.nonce == want.nonce && r.ciphertext == want.ciphertext {
                    Ok(())
                } else {
                    Err("download differs from the payload published".into())
                }
            }
            (Some(OpCode::Catalog), WireResponse::Catalog(r)) => {
                if r.items.len() == self.catalog.len() {
                    Ok(())
                } else {
                    Err(format!("catalog lists {} items", r.items.len()))
                }
            }
            (Some(OpCode::LicenseStatus), WireResponse::LicenseStatus(r)) => match r.status {
                LicenseStatus::Active { .. } => Ok(()),
                other => Err(format!("untouched license reported {other:?}")),
            },
            (Some(OpCode::PseudonymIssue), WireResponse::PseudonymIssue(_)) => Ok(()),
            (_, other) => Err(format!(
                "{} answered with {}",
                crate::stack::op_label(op),
                other.label()
            )),
        }
    }

    fn check(&mut self, op: u8, aux: u16, id: u64, reply: &[u8]) {
        if let Err(why) = self.verdict(op, aux, id, reply) {
            self.fail(why);
        }
    }
}

struct Pending {
    op: u8,
    aux: u16,
    /// When the request was due (paced) or sent (closed loop).
    intended_ns: u64,
    sent_ns: u64,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    filled: usize,
    inflight: usize,
}

/// A reply that just completed.
struct Completed {
    conn: usize,
    intended_ns: u64,
    received_ns: u64,
}

/// What one segment cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegmentStats {
    pub ops: u64,
    pub wall_ns: u64,
    /// CPU time of the whole process over the segment.
    pub cpu_ns: u64,
    /// CPU time of the generator thread over the segment.
    pub gen_cpu_ns: u64,
    /// Request plus reply frame bytes, length prefixes included.
    pub wire_bytes: u64,
    /// Time the hypervisor withheld from this VM's vCPUs over the segment
    /// (summed over vCPUs; 10-ms resolution).
    pub steal_ns: u64,
    /// `now_ns` readings bracketing the segment.
    pub window: (u64, u64),
}

impl SegmentStats {
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ops as f64
    }
}

/// Reads the clocks a [`SegmentStats`] is the difference of.
pub struct SegmentClock {
    wall: u64,
    cpu: u64,
    gen_cpu: u64,
    steal: u64,
}

impl SegmentClock {
    pub fn start() -> Self {
        SegmentClock {
            wall: now_ns(),
            cpu: process_cpu_ns(),
            gen_cpu: thread_cpu_ns(),
            steal: steal_ns(),
        }
    }

    pub fn stop(self, ops: u64, wire_bytes: u64) -> SegmentStats {
        let end = now_ns();
        SegmentStats {
            ops,
            wall_ns: end - self.wall,
            cpu_ns: process_cpu_ns() - self.cpu,
            gen_cpu_ns: thread_cpu_ns() - self.gen_cpu,
            wire_bytes,
            steal_ns: steal_ns() - self.steal,
            window: (self.wall, end),
        }
    }
}

/// Latencies of a paced segment, in nanoseconds.
#[derive(Default)]
pub struct PacedSamples {
    /// Reply time minus the time the request was due.
    pub latency_ns: Vec<u64>,
    /// Actual send time minus the time the request was due.
    pub lag_ns: Vec<u64>,
}

/// The multiplexing generator.
pub struct Mux<'a> {
    conns: Vec<Conn>,
    poller: Poller,
    pending: HashMap<u64, Pending>,
    next_id: u64,
    wire_bytes: u64,
    rec: &'a Recorder,
}

impl<'a> Mux<'a> {
    pub fn connect(addr: SocketAddr, rec: &'a Recorder) -> Result<Self, String> {
        let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
        let mut conns = Vec::with_capacity(CONNECTIONS);
        for token in 0..CONNECTIONS {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream
                .set_nodelay(true)
                .and_then(|()| stream.set_read_timeout(Some(STALL)))
                .and_then(|()| stream.set_write_timeout(Some(STALL)))
                .and_then(|()| poller.register(stream.as_raw_fd(), token as u64, true, false))
                .map_err(|e| format!("socket set-up: {e}"))?;
            conns.push(Conn {
                stream,
                buf: vec![0u8; 1 << 20],
                filled: 0,
                inflight: 0,
            });
        }
        Ok(Mux {
            conns,
            poller,
            pending: HashMap::new(),
            next_id: MUX_ID_BASE,
            wire_bytes: 0,
            rec,
        })
    }

    /// Sends the next corpus record on `conn`; `false` at corpus end.
    fn send_next(
        &mut self,
        conn: usize,
        reader: &mut CorpusReader,
        intended_ns: Option<u64>,
        checker: &mut Checker,
    ) -> Result<bool, String> {
        let Some(mut record) = reader
            .next_record()
            .map_err(|e| format!("corpus read: {e}"))?
        else {
            return Ok(false);
        };
        let id = self.next_id;
        self.next_id += 1;
        record.request[CORRELATION_BYTES].copy_from_slice(&id.to_le_bytes());
        let mut frame = Vec::with_capacity(4 + record.request.len());
        frame.extend_from_slice(&(record.request.len() as u32).to_le_bytes());
        frame.extend_from_slice(&record.request);
        let sent_ns = now_ns();
        self.conns[conn]
            .stream
            .write_all(&frame)
            .map_err(|e| format!("request write: {e}"))?;
        self.wire_bytes += frame.len() as u64;
        self.conns[conn].inflight += 1;
        checker.attempted += 1;
        self.pending.insert(
            id,
            Pending {
                op: record.request[1],
                aux: record.aux,
                intended_ns: intended_ns.unwrap_or(sent_ns),
                sent_ns,
            },
        );
        Ok(true)
    }

    /// Waits up to `timeout` for readable connections, reads what they
    /// have and checks every complete reply frame.
    fn poll(
        &mut self,
        timeout: Duration,
        checker: &mut Checker,
        completed: &mut Vec<Completed>,
    ) -> Result<(), String> {
        let mut events = Vec::new();
        self.poller
            .wait(&mut events, Some(timeout))
            .map_err(|e| format!("poll: {e}"))?;
        for event in events {
            let index = event.token as usize;
            let conn = &mut self.conns[index];
            if conn.filled == conn.buf.len() {
                conn.buf.resize(conn.buf.len() * 2, 0);
            }
            let n = conn
                .stream
                .read(&mut conn.buf[conn.filled..])
                .map_err(|e| format!("reply read: {e}"))?;
            if n == 0 {
                return Err("server closed a generator connection".into());
            }
            let received_ns = now_ns();
            conn.filled += n;
            let mut at = 0;
            while conn.filled - at >= 4 {
                let len =
                    u32::from_le_bytes(conn.buf[at..at + 4].try_into().expect("4 bytes")) as usize;
                if conn.filled - at < 4 + len {
                    if 4 + len > conn.buf.len() {
                        conn.buf.resize(4 + len, 0);
                    }
                    break;
                }
                let reply = &conn.buf[at + 4..at + 4 + len];
                self.wire_bytes += 4 + len as u64;
                // The id the reply echoes; a busy reply sent before the
                // request was decoded echoes 0 and cannot be matched.
                let id = p2drm_core::service::correlation_hint(reply);
                match self.pending.remove(&id) {
                    Some(p) => {
                        checker.check(p.op, p.aux, id, reply);
                        self.rec.record(Span {
                            id,
                            kind: SpanKind::ClientRequest,
                            op: p.op,
                            start_ns: p.sent_ns,
                            end_ns: received_ns,
                        });
                        conn.inflight -= 1;
                        completed.push(Completed {
                            conn: index,
                            intended_ns: p.intended_ns,
                            received_ns,
                        });
                    }
                    None => return Err(format!("reply for unknown correlation id {id}")),
                }
                at += 4 + len;
            }
            conn.buf.copy_within(at..conn.filled, 0);
            conn.filled -= at;
        }
        Ok(())
    }

    /// Closed loop: sends the next `ops` corpus records keeping
    /// [`PIPELINE_DEPTH`] in flight per connection, and returns once
    /// every reply is in.
    pub fn run_closed(
        &mut self,
        reader: &mut CorpusReader,
        ops: u64,
        checker: &mut Checker,
    ) -> Result<SegmentStats, String> {
        let wire_before = self.wire_bytes;
        let clock = SegmentClock::start();
        let (mut sent, mut done) = (0u64, 0u64);
        for conn in 0..self.conns.len() {
            while self.conns[conn].inflight < PIPELINE_DEPTH && sent < ops {
                if !self.send_next(conn, reader, None, checker)? {
                    return Err("corpus ended inside a segment".into());
                }
                sent += 1;
            }
        }
        let mut completed = Vec::new();
        let mut last_progress = now_ns();
        while done < ops {
            completed.clear();
            self.poll(STALL, checker, &mut completed)?;
            match completed.last() {
                Some(c) => last_progress = c.received_ns,
                None if now_ns() - last_progress > STALL.as_nanos() as u64 => {
                    return Err(format!(
                        "no reply within {STALL:?} with {} in flight",
                        sent - done
                    ))
                }
                None => {}
            }
            for c in &completed {
                done += 1;
                if sent < ops {
                    if !self.send_next(c.conn, reader, None, checker)? {
                        return Err("corpus ended inside a segment".into());
                    }
                    sent += 1;
                }
            }
        }
        Ok(clock.stop(ops, self.wire_bytes - wire_before))
    }

    /// Open loop: sends the next `ops` corpus records at `rate` per
    /// second, each when it is due whatever is still in flight, and times
    /// every reply from when its request was due.
    pub fn run_paced(
        &mut self,
        reader: &mut CorpusReader,
        ops: u64,
        rate: f64,
        checker: &mut Checker,
    ) -> Result<(SegmentStats, PacedSamples), String> {
        let wire_before = self.wire_bytes;
        let interval_ns = 1e9 / rate;
        let mut samples = PacedSamples::default();
        let clock = SegmentClock::start();
        let start = now_ns();
        let (mut sent, mut done) = (0u64, 0u64);
        let mut completed = Vec::new();
        let mut last_progress = start;
        while done < ops {
            let now = now_ns();
            let due = |k: u64| start + (k as f64 * interval_ns) as u64;
            while sent < ops && due(sent) <= now {
                let intended = due(sent);
                let conn = (sent % self.conns.len() as u64) as usize;
                if !self.send_next(conn, reader, Some(intended), checker)? {
                    return Err("corpus ended inside the paced segment".into());
                }
                samples.lag_ns.push(now_ns().saturating_sub(intended));
                sent += 1;
            }
            // Sleep in the poll only when the next send is far enough
            // away that the kernel's millisecond timeout cannot overshoot
            // it; otherwise spin.
            let wait = if sent < ops {
                let until_due = due(sent).saturating_sub(now_ns());
                Duration::from_nanos(until_due.saturating_sub(1_500_000))
            } else {
                Duration::from_millis(50)
            };
            completed.clear();
            self.poll(wait, checker, &mut completed)?;
            for c in &completed {
                done += 1;
                samples
                    .latency_ns
                    .push(c.received_ns.saturating_sub(c.intended_ns));
                last_progress = c.received_ns;
            }
            if sent == ops && now_ns() - last_progress > STALL.as_nanos() as u64 {
                return Err(format!("no reply within {STALL:?} in the paced segment"));
            }
        }
        Ok((clock.stop(ops, self.wire_bytes - wire_before), samples))
    }
}
