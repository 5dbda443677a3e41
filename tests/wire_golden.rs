//! Golden wire transcript: the SHA-256 of every request and response
//! frame of one seeded scripted session that touches all ten op-codes, so
//! that "no behaviour change" in a refactor of the request path is a
//! claim about every frame of every op. A deliberate wire change re-pins
//! the affected constants below in the same PR.
//!
//! `Loopback::new` answers with an RNG keyed from OS entropy, so
//! purchase and transfer replies (sealed content key, signature over the
//! license) would differ run to run. The session here runs
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
pseudonym-issue 880774e107587f553613c1432e0d72f63ab662dd368591df4aa9b6737e3f8d75 -> pseudonym-issue 79025be9bf8753fb491f9dbcfc4e46f4d8f0daeb753255f712736879d69fcef4
attribute-issue 248689008da986bfec38e509f3e7496d788a23c25b1f74224b813083536dc9e6 -> attribute-issue 984cd7429ee97891e27df03c07096f7443f85eb08893697eaa5440038afcb2c9
catalog 6d48f8575013373a7fb27f4116da2de7cc693205db1ab5afd552031ba629ca8a -> catalog f32c14b0556b67ce89ebc830fdd790c1d80428d2b280748a6b77948f4face19e
catalog b69b3742d7f56b2a11e847f62bb5a132f65055d9277bcd0df14ec94990219ef0 -> catalog 43763eacf7691e06c5944161b788b223b9a795a9f68c0328d40a8114489862f9
purchase 541c37201821c6293b29babf502b1f3da6a7fb1bc623978623e91ed342271487 -> purchase 34525366310ba55d7194bed8c321f06d01419e79e907aba471980e97103cd6be
crl-sync f466d9ccf64e1de12cea61a93d6fcb302b54e35a03e8c8cc6dc0e077ee8c279c -> crl-sync b199035cc2b1bfa4043f1ef90107a9281dfaadca670ae5490c2869bcb9ba969c
download 1df1dddb65154679f772a7ac9c4e2f69cbf27ab67825d299524b7f927baf9445 -> download 38a7e13df92fe2dac2d199c7b31ecca5533ce964b579ed1b692e08e5dac3d629
license-status 06ae62c3309c2700a958d04fc20b59b88c859889e18ff2e586e8f625811ec5bd -> license-status ce77f4be046ff977bfd4df6e60d4ff986921058a9c3f8e12fced56880ea4c0e8
pseudonym-issue a91b8463f803eb08c9677fed366eaf649ed87da27282eb77ebfc1e2cfcdfd3f6 -> pseudonym-issue f530e8b4d7c307d44f29d78e5b0c7a4ba292bd21b164ef0948b017598e240ab8
transfer 4beb25f066626e80f7e599fbaf1ada3e096bc3a1409ee0f51dcf68f6c98ffd29 -> transfer 023df67cd22ffe926c1bb61a79c86dab073c7b1ebb8f4345debf28a844fa80a7
metrics-dump f01ce255bd8e0a098da9a71351ef47f1c9577dc1dc7f1e0c3e64ccbc69d7fc43 -> error 32e33c4bc886daa1934b0e4918f50a83709541ff96011d1923aca0ec1975cc3e
catalog 0ac28f858853e3b2c6f1473fb745d35b3619b2f0c08aa0b23a76e173a720e72d -> error 40b11b93e6d9bad43ed4aa302d7eaab943ff9983a85cfb905203f84b552417dd";

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
    // A fixed correlation-id key: the ids, and so the frames, repeat.
    let recorder = Recorder {
        inner: Loopback::with_rng(&service, test_rng(0x601D_0002)),
        sent: Mutex::default(),
        frames: &frames,
    };
    let mut client = WireClient::with_id_key(recorder, [0x60; 32]);
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
