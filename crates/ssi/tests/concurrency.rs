//! Thread-safety of the shared verifiable data registry: vehicle, cloud,
//! and charging-station actors hammer one registry concurrently.

use std::sync::Arc;

use autosec_sim::SimRng;
use autosec_ssi::prelude::*;

#[test]
fn concurrent_publish_resolve_and_verify() {
    let registry = Arc::new(Registry::new());
    let mut rng = SimRng::seed(777);
    let mut anchor = Wallet::create(&mut rng, "anchor", &registry);
    registry.add_trust_anchor(anchor.did().clone(), "root");

    // Pre-issue credentials for 4 holders.
    let mut holders: Vec<Wallet> = (0..4)
        .map(|i| Wallet::create(&mut rng, &format!("holder-{i}"), &registry))
        .collect();
    let creds: Vec<VerifiableCredential> = holders
        .iter()
        .map(|h| {
            anchor
                .issue(h.did().clone(), serde_json::json!({"n": h.name()}), None)
                .expect("issue")
        })
        .collect();

    std::thread::scope(|scope| {
        // Writers: register new DIDs concurrently.
        for t in 0..4u64 {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                let mut rng = SimRng::seed(1000 + t);
                for i in 0..3 {
                    let _ =
                        Wallet::with_capacity(&mut rng, &format!("writer-{t}-{i}"), &registry, 4);
                }
            });
        }
        // Readers: verify the pre-issued credentials concurrently.
        for cred in &creds {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                for _ in 0..50 {
                    cred.verify(&registry).expect("stays valid under writes");
                    assert!(registry.trust_path_ok(cred));
                }
            });
        }
    });

    // 1 anchor + 4 holders + 4*3 writers.
    assert_eq!(registry.did_count(), 1 + 4 + 12);
    // Presentations still work after the storm.
    let vp = VerifiablePresentation::create(&mut holders[0], vec![creds[0].clone()], b"c")
        .expect("create");
    assert!(vp.verify(&registry, b"c", 0).is_ok());
}

#[test]
fn presentation_challenge_prevents_cross_verifier_replay() {
    // A presentation captured at verifier A cannot be replayed at
    // verifier B, who issues its own challenge.
    let registry = Registry::new();
    let mut rng = SimRng::seed(778);
    let mut anchor = Wallet::create(&mut rng, "anchor", &registry);
    registry.add_trust_anchor(anchor.did().clone(), "root");
    let mut holder = Wallet::create(&mut rng, "vehicle", &registry);
    let cred = anchor
        .issue(holder.did().clone(), serde_json::json!({}), None)
        .expect("issue");

    let vp_for_a =
        VerifiablePresentation::create(&mut holder, vec![cred], b"challenge-A").expect("create");
    assert!(vp_for_a.verify(&registry, b"challenge-A", 0).is_ok());
    // Verifier B's challenge differs: replay rejected.
    assert_eq!(
        vp_for_a.verify(&registry, b"challenge-B", 0).unwrap_err(),
        SsiError::ChallengeMismatch
    );
}
