//! Property tests: codec roundtrips and enforcement invariants for
//! arbitrary rights expressions.

use p2drm_rel::ast::{Limit, Rights, RightsBuilder, Window};
use p2drm_rel::{AccessRequest, Action, Decision, RightsState};
use proptest::prelude::*;

fn limit() -> impl Strategy<Value = Limit> {
    prop_oneof![
        Just(Limit::None),
        (1u32..1000).prop_map(Limit::Count),
        Just(Limit::Unlimited),
    ]
}

fn window() -> impl Strategy<Value = Window> {
    prop_oneof![
        Just(Window::default()),
        (0u64..1000).prop_map(|f| Window {
            from: Some(f),
            until: None
        }),
        (0u64..1000).prop_map(|u| Window {
            from: None,
            until: Some(u)
        }),
        (0u64..1000, 0u64..1000).prop_map(|(a, b)| Window {
            from: Some(a.min(b)),
            until: Some(a.max(b)),
        }),
    ]
}

fn rights() -> impl Strategy<Value = Rights> {
    (
        limit(),
        limit(),
        limit(),
        window(),
        proptest::option::of(any::<[u8; 32]>()),
        proptest::option::of("[a-z]{1,12}"),
        proptest::collection::vec("[A-Z]{2}", 0..4),
    )
        .prop_map(|(play, copy, transfer, w, device, domain, regions)| {
            let mut b = RightsBuilder::default()
                .play(play)
                .copy(copy)
                .transfer(transfer)
                .window(w.from, w.until);
            if let Some(d) = device {
                b = b.device(d);
            }
            if let Some(dom) = domain {
                b = b.domain(dom);
            }
            for r in regions {
                b = b.region(r);
            }
            b.build()
        })
}

fn request() -> impl Strategy<Value = AccessRequest> {
    (
        prop_oneof![
            Just(Action::Play),
            Just(Action::Copy),
            Just(Action::Transfer)
        ],
        0u64..1200,
        any::<[u8; 32]>(),
        proptest::option::of("[a-z]{1,12}"),
        proptest::option::of("[A-Z]{2}"),
    )
        .prop_map(|(action, now, device, domain, region)| {
            let mut r = AccessRequest::play(now, device).with_action(action);
            if let Some(d) = domain {
                r = r.in_domain(d);
            }
            if let Some(reg) = region {
                r = r.in_region(reg);
            }
            r
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn codec_roundtrip(r in rights()) {
        let bytes = p2drm_codec::to_bytes(&r);
        prop_assert_eq!(p2drm_codec::from_bytes::<Rights>(&bytes).unwrap(), r);
    }

    #[test]
    fn evaluation_is_pure(r in rights(), req in request()) {
        let state = RightsState::new();
        let d1 = r.evaluate(&state, &req);
        let d2 = r.evaluate(&state, &req);
        prop_assert_eq!(d1, d2);
    }

    #[test]
    fn consume_monotone(r in rights(), req in request(), uses in 0u32..50) {
        // Once denied for count exhaustion, more consumption never re-permits.
        let mut state = RightsState::new();
        for _ in 0..uses {
            state.consume(req.action);
        }
        let before = r.evaluate(&state, &req).is_permit();
        state.consume(req.action);
        let after = r.evaluate(&state, &req).is_permit();
        prop_assert!(!after || before, "permit must be monotone non-increasing in usage");
    }

    #[test]
    fn permit_requires_grant(r in rights(), req in request()) {
        if r.evaluate(&RightsState::new(), &req).is_permit() {
            prop_assert!(r.limit(req.action) != Limit::None);
            prop_assert!(r.window.contains(req.now));
            if let Some(dev) = r.device {
                prop_assert_eq!(dev, req.device);
            }
        }
    }

    #[test]
    fn count_limits_respected_exactly(n in 1u32..30) {
        let r = RightsBuilder::default().play(Limit::Count(n)).build();
        let mut state = RightsState::new();
        let req = AccessRequest::play(0, [0; 32]);
        let mut permits = 0;
        for _ in 0..(n + 10) {
            if let Decision::Permit = r.evaluate_and_consume(&mut state, &req) {
                permits += 1;
            }
        }
        prop_assert_eq!(permits, n);
    }
}
