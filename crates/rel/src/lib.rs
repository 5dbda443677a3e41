//! Rights Expression Language (REL) for P2DRM.
//!
//! Licenses carry a [`Rights`] value describing what the holder may do:
//! bounded or unlimited *play*/*copy*/*transfer* actions, a validity
//! window, device binding, domain binding and region restrictions. Compliant
//! devices evaluate requests against the rights **and** the license's
//! accumulated [`RightsState`], then persist the updated state — that is
//! the enforcement loop the paper's compliant-device model requires.
//!
//! The language has two interchangeable forms:
//!
//! * a typed AST ([`Rights`], built with [`RightsBuilder`]) used
//!   programmatically,
//! * a canonical binary form via [`p2drm_codec`] for embedding in signed
//!   licenses.
//!
//! [`printer::print`] renders a `Rights` as text (`grant play count=5;
//! valid until=...;`) for display; nothing reads that text back.
//!
//! ```
//! use p2drm_rel::{Action, AccessRequest, Decision, Limit, Rights, RightsState};
//!
//! let rights = Rights::builder()
//!     .play(Limit::Count(2))
//!     .window(Some(100), Some(200))
//!     .build();
//! let mut state = RightsState::new();
//! let req = AccessRequest::play(150, [0u8; 32]);
//! assert_eq!(rights.evaluate(&state, &req), Decision::Permit);
//! state.consume(Action::Play);
//! state.consume(Action::Play);
//! assert!(matches!(rights.evaluate(&state, &req), Decision::Deny(_)));
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod eval;
pub mod printer;

pub use ast::{Action, Limit, Rights, RightsBuilder, Window};
pub use eval::{AccessRequest, Decision, DenyReason};

p2drm_codec::record! {
    /// Per-license consumption counters, persisted by the enforcing device.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RightsState {
        /// Plays consumed so far.
        pub plays_used: u32,
        /// Copies made so far.
        pub copies_used: u32,
        /// Transfers performed so far.
        pub transfers_used: u32,
    }
}

impl RightsState {
    /// Fresh state (nothing consumed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Usage counter for `action`.
    pub fn used(&self, action: Action) -> u32 {
        match action {
            Action::Play => self.plays_used,
            Action::Copy => self.copies_used,
            Action::Transfer => self.transfers_used,
        }
    }

    /// Records one consumption of `action`.
    pub fn consume(&mut self, action: Action) {
        match action {
            Action::Play => self.plays_used += 1,
            Action::Copy => self.copies_used += 1,
            Action::Transfer => self.transfers_used += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_counters() {
        let mut s = RightsState::new();
        assert_eq!(s.used(Action::Play), 0);
        s.consume(Action::Play);
        s.consume(Action::Play);
        s.consume(Action::Transfer);
        assert_eq!(s.used(Action::Play), 2);
        assert_eq!(s.used(Action::Copy), 0);
        assert_eq!(s.used(Action::Transfer), 1);
    }

    #[test]
    fn state_codec_roundtrip() {
        let s = RightsState {
            plays_used: 1,
            copies_used: 2,
            transfers_used: 3,
        };
        let bytes = p2drm_codec::to_bytes(&s);
        assert_eq!(p2drm_codec::from_bytes::<RightsState>(&bytes).unwrap(), s);
    }
}
