//! `client_session`: one consumer's whole journeys through the typed
//! `WireClient` over a real `TcpTransport` — fresh pseudonym, purchase,
//! three plays on a compliant device, transfer.

use crate::corpus::CorpusReader;
use crate::generator::{Checker, PacedSamples, SegmentClock, SegmentStats};
use crate::spans::{Recorder, Span, SpanKind};
use crate::stack::{CatalogItem, Stack, Stream};
use crate::sysinfo::now_ns;
use p2drm_core::entities::device::CompliantDevice;
use p2drm_core::entities::user::{PseudonymPolicy, UserAgent};
use p2drm_core::service::{OpCode, Transport, TransportError, WireClient};
use p2drm_crypto::elgamal::ElGamalPublicKey;
use p2drm_crypto::rng::ChaChaRng;
use p2drm_crypto::rsa::RsaPublicKey;
use p2drm_crypto::sha256::sha256;
use p2drm_net::{TcpTransport, LEN_PREFIX};
use p2drm_payment::Mint;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Plays per journey (the rights template grants exactly three).
pub const PLAYS: usize = 3;

/// `TcpTransport` with its frame bytes counted and, while the recorder is
/// on, a `client.request` span per round trip.
struct SpanTransport {
    inner: TcpTransport,
    rec: Arc<Recorder>,
    wire_bytes: Rc<Cell<u64>>,
    sent: RefCell<HashMap<u64, (u64, u8)>>,
}

impl Transport for SpanTransport {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        self.wire_bytes
            .set(self.wire_bytes.get() + (LEN_PREFIX + request.len()) as u64);
        let op = request.get(1).copied().unwrap_or(0);
        self.sent.borrow_mut().insert(corr_id, (now_ns(), op));
        self.inner.submit(corr_id, request)
    }

    fn complete(
        &self,
        deadline: Option<Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        let reply = self.inner.complete(deadline)?;
        if let Some((id, bytes)) = &reply {
            self.wire_bytes
                .set(self.wire_bytes.get() + (LEN_PREFIX + bytes.len()) as u64);
            if let Some((start_ns, op)) = self.sent.borrow_mut().remove(id) {
                self.rec.record(Span {
                    id: *id,
                    kind: SpanKind::ClientRequest,
                    op,
                    start_ns,
                    end_ns: now_ns(),
                });
            }
        }
        Ok(reply)
    }
}

/// Wall time of each step of one journey, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimes {
    pub obtain_pseudonym_ns: u64,
    pub purchase_ns: u64,
    /// All [`PLAYS`] plays together.
    pub play_ns: u64,
    pub transfer_ns: u64,
}

/// The consumer side of `client_session`: a buyer who takes a fresh
/// pseudonym per purchase, a recipient the licenses are handed on to, and
/// the device the buyer plays on.
pub struct SessionRig {
    client: WireClient<SpanTransport>,
    buyer: UserAgent,
    recipient: UserAgent,
    device: CompliantDevice,
    ra_blind_key: RsaPublicKey,
    ttp_key: ElGamalPublicKey,
    mint: Mint,
    wire_bytes: Rc<Cell<u64>>,
    key: [u8; 32],
    pub steps: Vec<StepTimes>,
}

impl SessionRig {
    /// Registers the buyer (room for `journeys` pseudonyms), the
    /// recipient and the device, connects to `addr` and certifies the
    /// recipient's one standing pseudonym over the wire.
    pub fn new(
        stack: &mut Stack,
        seed: u64,
        journeys: usize,
        addr: SocketAddr,
        rec: Arc<Recorder>,
    ) -> Result<Self, String> {
        let mut rng = stack.rng(Stream::Session, 0);
        let buyer = stack.register("session-buyer", journeys, &mut rng);
        let mut recipient = stack.register("session-recipient", 1, &mut rng);
        recipient.set_policy(PseudonymPolicy::Static);
        let device = stack
            .sys
            .register_device(&mut rng)
            .map_err(|e| format!("device registration: {e}"))?;
        let wire_bytes = Rc::new(Cell::new(0));
        let transport = SpanTransport {
            inner: TcpTransport::connect(addr).map_err(|e| format!("connect: {e}"))?,
            rec,
            wire_bytes: wire_bytes.clone(),
            sent: RefCell::new(HashMap::new()),
        };
        let mut client = WireClient::new(transport);
        client.set_epoch(stack.sys.epoch());
        let ra_blind_key = stack.sys.ra.blind_public().clone();
        let ttp_key = stack.sys.ttp.escrow_key().clone();
        client
            .obtain_pseudonym(&mut recipient, &ra_blind_key, &ttp_key, &mut rng)
            .map_err(|e| format!("recipient pseudonym: {e}"))?;
        Ok(SessionRig {
            client,
            buyer,
            recipient,
            device,
            ra_blind_key,
            ttp_key,
            mint: stack.sys.mint.clone(),
            wire_bytes,
            key: crate::stack::seed_key(seed),
            steps: Vec::new(),
        })
    }

    /// One journey; everything random on the client side comes from
    /// `rng`, so the prime searches are a function of the seed.
    fn journey(
        &mut self,
        item: &CatalogItem,
        item_index: u16,
        rng: &mut ChaChaRng,
        checker: &mut Checker,
    ) -> Result<StepTimes, String> {
        let t0 = now_ns();
        let pseudonym = self
            .client
            .obtain_pseudonym(&mut self.buyer, &self.ra_blind_key, &self.ttp_key, rng)
            .map_err(|e| format!("obtain_pseudonym: {e}"))?;
        let t1 = now_ns();
        let license = self
            .client
            .purchase(&mut self.buyer, &self.mint, item.id, rng)
            .map_err(|e| format!("purchase: {e}"))?;
        checker.license(&license, Some(item_index), OpCode::Purchase)?;
        let t2 = now_ns();
        for _ in 0..PLAYS {
            let payload = self
                .client
                .play(&self.buyer, &mut self.device, &license, rng)
                .map_err(|e| format!("play: {e}"))?;
            if sha256(&payload) != item.plain_sha256 {
                return Err("played payload differs from the one published".into());
            }
        }
        let t3 = now_ns();
        let moved = self
            .client
            .transfer(&mut self.buyer, &mut self.recipient, license.id(), rng)
            .map_err(|e| format!("transfer: {e}"))?;
        checker.license(&moved, Some(item_index), OpCode::Transfer)?;
        let t4 = now_ns();
        // The journey is over: free the card slot, as a card with finite
        // memory would.
        self.buyer.card.forget_pseudonym(&pseudonym);
        Ok(StepTimes {
            obtain_pseudonym_ns: t1 - t0,
            purchase_ns: t2 - t1,
            play_ns: t3 - t2,
            transfer_ns: t4 - t3,
        })
    }

    fn next_journey(
        &mut self,
        reader: &mut CorpusReader,
        catalog: &[CatalogItem],
        checker: &mut Checker,
    ) -> Result<(), String> {
        let record = reader
            .next_record()
            .map_err(|e| format!("corpus read: {e}"))?
            .ok_or("corpus ended inside a segment")?;
        let index = u64::from_le_bytes(
            record.request[..]
                .try_into()
                .map_err(|_| "journey record is not a stream index")?,
        );
        let mut rng = crate::stack::stream_rng(&self.key, Stream::Journey, index);
        // The first draw of the stream chose the item when the corpus was
        // built; skip it so the journey continues the same stream.
        crate::stack::draw(&mut rng, catalog.len());
        checker.attempted += 1;
        match self.journey(&catalog[record.aux as usize], record.aux, &mut rng, checker) {
            Ok(steps) => self.steps.push(steps),
            Err(why) => checker.fail(why),
        }
        Ok(())
    }

    /// Closed loop of depth one: the next `journeys` corpus journeys,
    /// back to back.
    pub fn run_closed(
        &mut self,
        reader: &mut CorpusReader,
        journeys: u64,
        catalog: &[CatalogItem],
        checker: &mut Checker,
    ) -> Result<SegmentStats, String> {
        let wire_before = self.wire_bytes.get();
        let clock = SegmentClock::start();
        for _ in 0..journeys {
            self.next_journey(reader, catalog, checker)?;
        }
        Ok(clock.stop(journeys, self.wire_bytes.get() - wire_before))
    }

    /// Paced: journey `k` is due at `k / rate` seconds; a journey that
    /// overruns delays the next one's start, which its latency (timed
    /// from when it was due) then includes.
    pub fn run_paced(
        &mut self,
        reader: &mut CorpusReader,
        journeys: u64,
        rate: f64,
        catalog: &[CatalogItem],
        checker: &mut Checker,
    ) -> Result<(SegmentStats, PacedSamples), String> {
        let wire_before = self.wire_bytes.get();
        let mut samples = PacedSamples::default();
        let clock = SegmentClock::start();
        let start = now_ns();
        for k in 0..journeys {
            let due = start + (k as f64 * 1e9 / rate) as u64;
            let now = now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            samples.lag_ns.push(now_ns().saturating_sub(due));
            self.next_journey(reader, catalog, checker)?;
            samples.latency_ns.push(now_ns().saturating_sub(due));
        }
        Ok((
            clock.stop(journeys, self.wire_bytes.get() - wire_before),
            samples,
        ))
    }
}
