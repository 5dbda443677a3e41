//! Golden wire transcript: the SHA-256 of every request and response
//! frame of one seeded scripted session that touches all ten op-codes, so
//! that "no behaviour change" in a refactor of the request path is a
//! claim about every frame of every op. A deliberate wire change re-pins
//! the affected constants below in the same PR.
//!
//! `Loopback::new` answers with an RNG keyed from OS entropy, so
//! purchase and transfer replies (license id, sealed content key,
//! signature over both) would differ run to run. The session here runs
//! over `Loopback::with_rng` and a seeded RNG instead: every frame is a
//! function of the seeds and none needs masking.

use p2drm::core::entities::provider::MemBackend;
use p2drm::core::service::{Loopback, OpCode, Transport, TransportError, WireClient};
use p2drm::crypto::sha256::sha256_hex;
use p2drm::prelude::*;
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Keeps every frame the seeded loopback carries.
struct Recorder<'s> {
    inner: Loopback<'s, MemBackend, StdRng>,
    /// Requests whose reply has not been collected; `Loopback` answers
    /// in submission order.
    sent: Mutex<VecDeque<Vec<u8>>>,
    /// `(request frame, response frame)` per exchange, in order; owned
    /// by the test, since `WireClient` keeps its transport to itself.
    frames: &'s Mutex<Vec<(Vec<u8>, Vec<u8>)>>,
}

impl Transport for Recorder<'_> {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        self.inner.submit(corr_id, request)?;
        self.sent.lock().unwrap().push_back(request.to_vec());
        Ok(())
    }

    fn complete(
        &self,
        deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        let done = self.inner.complete(deadline)?;
        if let Some((_, reply)) = &done {
            let request = self
                .sent
                .lock()
                .unwrap()
                .pop_front()
                .expect("a reply answers a request");
            self.frames.lock().unwrap().push((request, reply.clone()));
        }
        Ok(done)
    }
}

/// One line per exchange, in session order: request op label and frame
/// SHA-256, then the response's.
const GOLDEN: &str = "\
pseudonym-issue 1958000039b8ee01e013afbae1fb1b6b2256ec6e684e9822478cf7066a26f91c -> pseudonym-issue 86e647db90ca70654500c3f24f80b284d0380dcec5326204b642c1c6ae7e5606
attribute-issue 621ee48a4a75cacf59a677d0cb878e712f70416cf41647b4e477531c92440c87 -> attribute-issue 5afc67ee1b5cd4545456a3633f097d08276510aafb7cca888ae50c43ffdce073
catalog 0f3adaafc9940b5f18e767264e91e3dedd04f23c5c1e4281e25d56b478c5a458 -> catalog 448c6a80bf9888600957d6bc48b70cb568b1ddf5b29819e5f86460cb1e3755d6
catalog f0e621e7f7b2e4b397cb3961fdc78d78343c51f91a68c4ee1cd77d5e3844f1c9 -> catalog 232dfad7da90ea79d35e6a6cc1f64c4e520e4b6237d6806339fbb51f61467c16
purchase b078ed5521577008a150345484411cc6b57926a7d28e713f6b2b709e3c6b9510 -> purchase b1e5f303a01f0db94a70bc6f4066e6e42077724c3e276b5760bf1c5572d695ad
crl-sync 62571304c4d3595f50191c84f7f2b56c043fb6208dc39b794db855147c9c3f7a -> crl-sync 10674f794cbe26153a545aba8e3d062a45084e1f1f7cfa0c408465eebe597d70
download 033abd7c343248540731f3afdce74e769a371af575b3a00c59a9725a567df402 -> download ec7c6c3aa43e113d8a41f9280f7f7c3b64412e7418217e84ab2c51b4b6321127
license-status 80531e049e223edacd7a655eb1b269bb27a9274775d6884f94e285bafc27a095 -> license-status 5314c0aceb279e6c89ad52b6c26ccebf2be9638cb4c0c8da6f0bb908c4dab357
pseudonym-issue ea67671e1f0f800644eec58093b08a53ebe4480ab8a4795188750bf8c383e5ac -> pseudonym-issue c64772fb1ea7815c3a88a5b6b9f8256a6cb038da7ece41f75d01a5abdb3ca8e2
transfer 7f591cbcc53d958baa8b985b2dd39326a991547f556f06e9a489473abb9258e1 -> transfer 650fb5279ed26f7254e7d1613e4c6db290add0962b627f49311bd5fa786a41d2
metrics-dump ffc3e49bb1db74e86e25b61c80347d513acf3207f1bad2ee1f141d7840bd95a7 -> error d8a367b132228023163537bddd68892ed55e4729eea3c8744f6cc4ab13c9f01b
catalog 50b6959d693b8dffb9a40366d0cf7a959c27bf0fbb2c7443ce8e0d8b37a8271d -> error da936d635f5a0f289b668eb192e9309dd2b597fb49cd5ea23483edb438c5b52f";

#[test]
fn scripted_session_matches_the_golden_frames() {
    let mut rng = test_rng(0x601D_0001);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let rated = sys.publish_rated_content("Rated Track", 100, &[0x5A; 300], "adult", &mut rng);
    sys.publish_content("Open Track", 50, b"open", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    sys.fund(&alice, 500);
    sys.grant_attribute(&alice, "adult", &mut rng).unwrap();
    let attr_key = sys.ra.attribute_public("adult").unwrap();
    let mut device = sys.register_device(&mut rng).unwrap();

    let service = sys.wire_service(0x601D);
    let frames = Mutex::default();
    let mut client = WireClient::new(Recorder {
        inner: Loopback::with_rng(&service, test_rng(0x601D_0002)),
        sent: Mutex::default(),
        frames: &frames,
    });
    client.set_epoch(sys.epoch());
    let (ra_key, ttp_key) = (sys.ra.blind_public(), sys.ttp.escrow_key());

    client
        .obtain_pseudonym(&mut alice, ra_key, ttp_key, &mut rng)
        .unwrap();
    client
        .obtain_attribute(&mut alice, "adult", &attr_key, &mut rng)
        .unwrap();
    assert_eq!(client.catalog().unwrap().len(), 2);
    // By-id catalogue quote, then the purchase itself.
    let license = client
        .purchase(&mut alice, &sys.mint, rated, &mut rng)
        .unwrap();
    client.sync_crls(&mut device).unwrap();
    let audio = client
        .play(&alice, &mut device, &license, &mut rng)
        .unwrap();
    assert_eq!(audio, [0x5A; 300]);
    client.license_status(license.id()).unwrap();
    client
        .obtain_pseudonym(&mut bob, ra_key, ttp_key, &mut rng)
        .unwrap();
    client
        .transfer(&mut alice, &mut bob, license.id(), &mut rng)
        .unwrap();
    // Both are answered with an `Error` frame (the last two rows).
    assert!(client.metrics_dump().is_err());
    let unpublished = ContentId::from_label("never published");
    assert!(client.content_meta(unpublished).is_err());

    let line = |frame: &[u8]| {
        let op = OpCode::from_byte(frame[1]).expect("op byte");
        format!("{} {}", op.label(), sha256_hex(frame))
    };
    let frames = frames.lock().unwrap();
    let seen: Vec<String> = frames
        .iter()
        .map(|(request, reply)| format!("{} -> {}", line(request), line(reply)))
        .collect();
    let seen = seen.join("\n");
    assert!(
        seen == GOLDEN,
        "frames differ from GOLDEN; the session now reads:\n{seen}"
    );
}
