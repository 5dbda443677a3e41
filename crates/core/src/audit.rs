//! Protocol transcripts: every protocol engine logs each message it sends
//! with its exact canonical byte size.
//!
//! Transcripts serve three purposes:
//!
//! 1. **Experiment E1** — message count / byte cost per protocol, the
//!    "Table 1" assertions in `tests/paper_tables.rs`;
//! 2. **Privacy auditing** — [`Transcript::scan_for`] greps the raw bytes
//!    of everything a given party *received* for a forbidden needle (e.g.
//!    the user id) — the machine-checkable version of the paper's "the
//!    provider learns nothing identifying" claim;
//! 3. **T-figures** — rendered transcripts reproduce the paper's protocol
//!    figures as executable artifacts.

use std::fmt;

/// Protocol principals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Party {
    /// The human-side agent software.
    User,
    /// The tamper-resistant smart card.
    Card,
    /// Registration authority.
    Ra,
    /// Content provider / license server.
    Provider,
    /// Compliant rendering device.
    Device,
    /// Anonymity-revocation trusted third party.
    Ttp,
    /// E-cash mint.
    Mint,
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Party::User => "User",
            Party::Card => "Card",
            Party::Ra => "RA",
            Party::Provider => "Provider",
            Party::Device => "Device",
            Party::Ttp => "TTP",
            Party::Mint => "Mint",
        };
        write!(f, "{s}")
    }
}

/// One logged message.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Sender.
    pub from: Party,
    /// Receiver.
    pub to: Party,
    /// Message label (stable, used in reports).
    pub label: &'static str,
    /// The canonical message bytes.
    pub bytes: Vec<u8>,
}

/// An ordered protocol transcript.
#[derive(Clone, Debug, Default)]
pub struct Transcript {
    entries: Vec<Entry>,
}

impl Transcript {
    /// Empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logs a message (engines call this with `p2drm_codec::to_bytes`).
    pub fn record(&mut self, from: Party, to: Party, label: &'static str, bytes: Vec<u8>) {
        self.entries.push(Entry {
            from,
            to,
            label,
            bytes,
        });
    }

    /// Logged messages in order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of messages.
    pub fn message_count(&self) -> usize {
        self.entries.len()
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.bytes.len()).sum()
    }

    /// Bytes received by `party`.
    pub fn bytes_received_by(&self, party: Party) -> usize {
        self.entries
            .iter()
            .filter(|e| e.to == party)
            .map(|e| e.bytes.len())
            .sum()
    }

    /// True if any message **received by** `party` contains `needle`.
    ///
    /// This is the leak detector: after a purchase, the provider's received
    /// bytes must not contain the user id, master-key fingerprint, or
    /// account name.
    pub fn scan_for(&self, party: Party, needle: &[u8]) -> bool {
        if needle.is_empty() {
            return false;
        }
        self.entries
            .iter()
            .filter(|e| e.to == party)
            .any(|e| e.bytes.windows(needle.len()).any(|w| w == needle))
    }

    /// Renders the transcript as an ASCII protocol figure (the T-figures
    /// asserted in `tests/paper_tables.rs`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "  {:<8} -> {:<8}  {:<28} {:>6} B\n",
                e.from.to_string(),
                e.to.to_string(),
                e.label,
                e.bytes.len()
            ));
        }
        out.push_str(&format!(
            "  total: {} messages, {} bytes\n",
            self.message_count(),
            self.total_bytes()
        ));
        out
    }

    /// Appends another transcript (protocol composition).
    pub fn extend(&mut self, other: Transcript) {
        self.entries.extend(other.entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Transcript {
        let mut t = Transcript::new();
        t.record(
            Party::User,
            Party::Provider,
            "purchase-request",
            vec![1, 2, 3, 42, 5],
        );
        t.record(Party::Provider, Party::Mint, "deposit", vec![9; 10]);
        t.record(Party::Provider, Party::User, "license", vec![7; 20]);
        t
    }

    #[test]
    fn counting_and_sizing() {
        let t = sample();
        assert_eq!(t.message_count(), 3);
        assert_eq!(t.total_bytes(), 35);
        assert_eq!(t.bytes_received_by(Party::Provider), 5);
        assert_eq!(t.bytes_received_by(Party::User), 20);
        assert_eq!(t.bytes_received_by(Party::Ttp), 0);
    }

    #[test]
    fn scan_finds_needles_only_in_received() {
        let t = sample();
        assert!(t.scan_for(Party::Provider, &[3, 42]));
        assert!(!t.scan_for(Party::Provider, &[42, 3]));
        // Provider *sent* [9;10] but never received it.
        assert!(!t.scan_for(Party::Provider, &[9, 9]));
        assert!(t.scan_for(Party::Mint, &[9, 9]));
        assert!(!t.scan_for(Party::Provider, &[]));
    }

    #[test]
    fn render_contains_rows_and_totals() {
        let s = sample().render();
        assert!(s.contains("purchase-request"));
        assert!(s.contains("total: 3 messages, 35 bytes"));
    }

    #[test]
    fn extend_composes() {
        let mut a = sample();
        let b = sample();
        a.extend(b);
        assert_eq!(a.message_count(), 6);
    }
}
