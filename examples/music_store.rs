//! Music store scenario: a catalog, users with different pseudonym
//! refresh policies, and a demonstration of what the
//! purchase requests the provider receives actually reveal under each
//! policy — the paper's privacy argument made observable.
//!
//! ```sh
//! cargo run --example music_store
//! ```

use p2drm::core::audit::Party;
use p2drm::core::protocol::messages::PurchaseRequest;
use p2drm::core::service::OpCode;
use p2drm::prelude::*;
use rand::Rng;
use std::collections::HashMap;

fn main() {
    let mut rng = test_rng(1977);
    let mut system = System::bootstrap(SystemConfig::fast_test(), &mut rng);

    // A small storefront.
    let titles = [
        "Bohemian Raptor",
        "Stairway to Heapless",
        "Smells Like Clean Code",
        "Hotel Cal-ifetime",
        "Sweet Child O' Types",
        "Borrow Checker Blues",
    ];
    let catalog: Vec<ContentId> = titles
        .iter()
        .map(|t| system.publish_content(t, 100, t.as_bytes(), &mut rng))
        .collect();

    // Three shoppers with different privacy hygiene.
    let mut shoppers = vec![
        ("privacy-maximalist", PseudonymPolicy::FreshPerPurchase),
        ("pragmatist", PseudonymPolicy::ReuseK(3)),
        ("doesnt-care", PseudonymPolicy::Static),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let mut agent = system.register_user(name, &mut rng).unwrap();
        agent.set_policy(policy);
        system.fund(&agent, 10_000);
        (name, agent)
    })
    .collect::<Vec<_>>();

    // Everyone buys six tracks; the transcript holds every request the
    // store received.
    let mut transcript = Transcript::new();
    for round in 0..6 {
        for (_, agent) in shoppers.iter_mut() {
            let pick = catalog[rng.gen_range(0..catalog.len())];
            system
                .purchase_with_transcript(agent, pick, &mut rng, &mut transcript)
                .unwrap();
        }
        if round % 2 == 1 {
            system.advance_epoch();
        }
    }

    // What does the store know? It keeps no purchase log, but it saw each
    // request arrive: group them by pseudonym.
    let received = transcript
        .entries()
        .iter()
        .filter(|e| e.to == Party::Provider && e.label == OpCode::Purchase.label())
        .map(|e| p2drm::codec::from_bytes::<PurchaseRequest>(&e.bytes).unwrap());
    let mut clusters: HashMap<_, Vec<_>> = HashMap::new();
    for req in received {
        clusters
            .entry(req.pseudonym_cert.pseudonym_id())
            .or_default()
            .push(req.content_id);
    }
    println!(
        "store saw {} purchases under {} distinct pseudonyms\n",
        clusters.values().map(Vec::len).sum::<usize>(),
        clusters.len()
    );

    for (name, agent) in &shoppers {
        let owned: Vec<_> = agent.licenses().iter().map(|l| l.pseudonym).collect();
        let mut profile_sizes: Vec<usize> = owned
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .iter()
            .map(|p| clusters.get(*p).map_or(0, |v| v.len()))
            .collect();
        profile_sizes.sort_unstable();
        println!(
            "{name:<20} bought {:>2} tracks -> store sees profiles of sizes {:?}",
            agent.licenses().len(),
            profile_sizes
        );
    }

    println!(
        "\nthe fresh-pseudonym shopper fragments into size-1 profiles; the static\n\
         shopper hands the store their full listening history under one pseudonym\n\
         (and any payment/identity linkage would expose all of it at once)."
    );

    // Sanity: a random other user can't play someone else's license.
    let (_, victim) = &shoppers[0];
    let license = victim.licenses()[0].license.clone();
    let mut thief_device = system.register_device(&mut rng).unwrap();
    let (_, thief) = &shoppers[2];
    let stolen = system.play(thief, &mut thief_device, &license, &mut rng);
    println!(
        "\nplayback of a stolen license file without the holder's card: {}",
        if stolen.is_err() {
            "REFUSED"
        } else {
            "allowed (bug!)"
        }
    );
}
