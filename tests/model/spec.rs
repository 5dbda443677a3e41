//! The protocol's sequential specification: what the provider, the mint,
//! the RA, the TTP, the wire client and the devices answer to any
//! sequence of `Op`s, with no cryptography, no store and no threads.
//!
//! Ids are indices. A license handle stands for the id a request derives
//! (a purchase's from its coin, pseudonym and item, a successor's from
//! the old license and the recipient), so a re-sent request names the
//! handle it named before. Refusals are decided in the order of the
//! provider's check step (`entities::provider` module doc): a replay —
//! the deciding row already names this request's license — skips the
//! checks that time can change; otherwise a purchase is checked for its
//! pseudonym, item, denomination, credential and coin, and a transfer for
//! its rights, holder proof, spent row and recipient. The RA refuses a
//! revoked card before it looks up an entitlement; the TTP opens an
//! escrow only on evidence `AbuseEvidence::verify` accepts, and then the
//! RA revokes the card and the provider lists that one pseudonym.
//!
//! A store cut fails one of the provider's row writes (`Writes`): a
//! purchase's `lic/` row, a transfer's successor `lic/` row then its old
//! id's `crl/l/` row, a revocation's `crl/` row. What was written before
//! it stays — the deposit, the transfer's claim, a revoked license's
//! `spent/` row — and the op answers `Storage`; the parked purchase's
//! settlement, the re-sent transfer or the repeated revocation writes
//! the rest. A restart changes nothing the provider wrote or a device
//! holds.
//!
//! Each op also yields its `View`: the requests an unfaulted run
//! delivers, the model values the provider's payloads carry, and the
//! users the RA hears from. What a party may link is what its views
//! share; the runner holds the stack's bytes to that.

use p2drm::core::service::ApiErrorCode::{self as Code, *};
use std::collections::HashMap;

pub const EPOCH_WINDOW: u32 = 4;
pub const DENOMINATIONS: [u64; 3] = [100, 500, 1000];
pub const FUNDING: u64 = 5_000;
pub const USERS: usize = 3;
pub const DEVICES: usize = 2;
/// The users the RA granted the attribute the rated item needs.
pub const ADULTS: [bool; USERS] = [true, true, false];
/// Purchases per pseudonym: user 1 reuses each for three
/// (`PseudonymPolicy::ReuseK(3)`), the others take a fresh one each time.
pub const USES: [u32; USERS] = [1, 3, 1];
/// The refusals after which the wire client puts the coin back.
pub const PUT_BACK: [Code; 4] = [BadPseudonym, UnknownContent, InsufficientFunds, Payment];

pub type Handle = usize;
pub type Pseudo = usize;
pub type CoinId = usize;
/// A rights limit: `None` is unlimited, `Some(0)` grants nothing.
pub type Limit = Option<u32>;
/// An item; `None` is one nobody published.
pub type ItemId = Option<usize>;

/// A published item: price, plays and transfers per sale, and whether a
/// buyer needs the attribute credential.
pub struct Item(pub u64, pub Limit, pub Limit, pub bool);
pub const ITEMS: [Item; 3] = [
    Item(100, Some(3), Some(2), false),
    Item(500, Some(2), Some(1), false),
    Item(100, None, Some(0), true),
];

/// What the wire did to a faulted purchase or transfer when its retries
/// ran out; the runner reads it off the fault plan's trace and the
/// requests the provider received.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The provider received the request; no reply came back.
    LostReply,
    /// The request never reached the provider.
    Dropped,
    /// A purchase's catalogue quote never came back, so no coin was
    /// withdrawn and no request sent.
    Unquoted,
}

/// A purchase or transfer over a faulty wire: the percent at which every
/// transport site fires, and what the wire did (`None`: it answered,
/// after any number of retries).
#[derive(Clone, Copy, Debug)]
pub struct Faulty(pub u32, pub Option<Fault>);

/// Evidence against a license's holder: two authorizations the holder's
/// card signed for that license toward two recipients, or that with one
/// defect `AbuseEvidence::verify` refuses.
#[derive(Clone, Copy, Debug)]
pub enum Evidence {
    Genuine,
    /// The second authorization names this other license.
    OtherLicense(Handle),
    /// The accused is this pseudonym, not the holder.
    NotHolder(Pseudo),
    /// Both authorizations name the first recipient.
    SameRecipient,
    /// The second authorization carries the first's signature.
    CopiedProof,
}

/// A signed CRL pair shown to a device outside a sync: the current one
/// with one list replaced or forged.
#[derive(Clone, Copy, Debug)]
pub enum Shown {
    /// The license list the n-th sync received.
    OldLicenses(usize),
    /// The pseudonym list the n-th sync received.
    OldPseudonyms(usize),
    /// The current pair, one byte of the pseudonym list's signature flipped.
    Tampered,
    /// The current lists, signed by a key that is not the provider's.
    Stranger,
    /// The current pseudonym list in the license slot, and the reverse.
    Swapped,
}

/// A hand-built purchase's coin: withdrawn now, or one already deposited.
#[derive(Clone, Copy, Debug)]
pub enum Coin {
    Fresh(u64),
    Spent(CoinId),
}

/// A hand-built purchase's credential: none, one obtained now for the
/// current pseudonym, or the one bound to a given pseudonym.
#[derive(Clone, Copy, Debug)]
pub enum Cred {
    None,
    Own,
    Of(Pseudo),
}

/// The script alphabet. Users, devices and items are indices.
#[derive(Clone, Debug)]
pub enum Op {
    /// (user, item, faults) through the wire client, after
    /// `System::ensure_pseudonym` (and `ensure_attribute` for a granted
    /// buyer of the rated item).
    Purchase(usize, usize, Option<Faulty>),
    /// (user, item, pseudonym or the current one, coin, credential): a
    /// hand-built purchase request.
    Forge(usize, ItemId, Option<Pseudo>, Coin, Cred),
    /// (from, to, license, faults) through the wire client.
    Transfer(usize, usize, Handle, Option<Faulty>),
    /// (thief, license, to): a transfer proved by the thief's pseudonym.
    Steal(usize, Handle, usize),
    /// (user, device, license), which the user may not hold.
    Play(usize, usize, Handle),
    SyncCrl(usize),
    Status(Handle),
    Download(ItemId),
    Catalog(ItemId),
    /// The n-th purchase or transfer request, sent again verbatim.
    Resend(usize),
    Settle(usize),
    /// (user, license, pseudonym): a copy the user once held under that
    /// pseudonym, restored from a backup.
    Restore(usize, Handle, Pseudo),
    /// (user, coin): a deposited coin back in the wallet from a backup.
    RestoreCoin(usize, CoinId),
    /// A fresh pseudonym over the wire.
    Pseudonym(usize),
    /// (user, whether the RA knows the attribute): a credential for the
    /// current pseudonym over the wire, after a fresh pseudonym if the
    /// newest was used.
    Attribute(usize, bool),
    /// (license, recipients, evidence): the TTP's abuse pipeline.
    Accuse(Handle, [Pseudo; 2], Evidence),
    /// (device, pair).
    ShowCrl(usize, Shown),
    RevokeLicense(Handle),
    RevokePseudonym(Pseudo),
    AdvanceEpoch(u32),
    /// The provider's unclean stop, maybe a torn tail on this shard, and
    /// its resume; the mint is the `System`'s, in memory, and stays up.
    /// Each device reboots over its own store.
    Restart(Option<usize>),
    /// (k, op): the k-th row write of an unfaulted purchase, transfer or
    /// revocation fails.
    Cut(u32, Box<Op>),
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Done,
    Issued(Handle),
    Status(Status),
    Settled(Vec<Outcome>),
    /// The TTP opened this user's escrow.
    Unmasked(usize),
    Api(Code),
    /// A refusal by the client or the device, as its `CoreError` reads.
    Refused(&'static str),
    /// A reply never arrived: the request's, or a purchase's quote.
    Parked,
}

/// A model value a payload carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    Pseudonym(Pseudo),
    Item(ItemId),
    License(Handle),
    Coin(CoinId),
    /// A CRL sequence number.
    Crl(u64),
}

/// What one op delivers: the labels of the requests an unfaulted run
/// delivers, in order; the values the provider's payloads carry; and the
/// users whose cards ask the RA, one per request.
#[derive(Debug, Default)]
pub struct View {
    pub labels: Vec<&'static str>,
    pub provider: Vec<Value>,
    pub ra: Vec<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Unknown,
    Active(Pseudo),
    Transferred,
    Revoked,
}

/// A purchase or transfer request as it went on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// (coin, pseudonym, item, the pseudonym its credential is bound to).
    Purchase(CoinId, Pseudo, ItemId, Option<Pseudo>),
    /// (license, the pseudonym proving it, recipient).
    Transfer(Handle, Pseudo, Pseudo),
}

pub struct License {
    /// What its id derives from: a purchase's coin, pseudonym and item,
    /// or a transfer's old license and recipient (and the item it
    /// carries over).
    key: (usize, Pseudo, ItemId, bool),
    pub holder: Pseudo,
    plays: Limit,
    pub transfers: Limit,
    /// Its `lic/` row exists.
    issued: bool,
    /// Its `spent/` row: the successor, or `None` for a revocation.
    spent: Option<Option<Handle>>,
}

pub struct Pseudonym {
    pub user: usize,
    pub epoch: u32,
    /// The epoch of its attribute credential, if it has one.
    pub cred: Option<u32>,
}

#[derive(Default)]
pub struct User {
    account: u64,
    wallet: Vec<CoinId>,
    /// Indices into `Model::sent`.
    pub parked: Vec<usize>,
    pub pseudonyms: Vec<Pseudo>,
    /// Uses of the newest pseudonym; the policy wants a fresh one after
    /// `USES`.
    pub uses: u32,
    pub held: Vec<(Handle, Pseudo)>,
    /// Every license held, and its pseudonym: what a backup holds.
    pub history: Vec<(Handle, Pseudo)>,
    /// The RA revoked the card.
    pub revoked: bool,
}

/// A device's CRLs, its play counts and the items it keeps.
#[derive(Clone, Default)]
pub struct Device(pub Crls, pub HashMap<Handle, u32>, pub Vec<ItemId>);

/// The license and the pseudonym CRL.
pub type Crls = (Crl<Handle>, Crl<Pseudo>);

/// A revocation list and its sequence number.
#[derive(Clone, Default, PartialEq)]
pub struct Crl<T>(pub Vec<T>, pub u64);

impl<T: PartialEq> Crl<T> {
    /// Lists `id` at the next sequence, after its `crl/` row write; an id
    /// already listed writes nothing.
    fn list(&mut self, id: T, writes: &mut Writes) -> Result<(), Code> {
        if !self.0.contains(&id) {
            writes.next()?;
            self.0.push(id);
            self.1 += 1;
        }
        Ok(())
    }
}

/// The provider's row writes in the op being applied, the one a cut
/// fails, and how many cuts have failed one.
#[derive(Default)]
struct Writes {
    cut: Option<u32>,
    made: u32,
    failed: u64,
}

impl Writes {
    /// The next row write: `Storage` if it is the one cut.
    fn next(&mut self) -> Result<(), Code> {
        self.made += 1;
        if self.cut == Some(self.made) {
            self.failed += 1;
            return Err(Storage);
        }
        Ok(())
    }
}

/// What the ledger comparison reads on both sides.
#[derive(Debug, PartialEq, Eq)]
pub struct Ledger {
    /// The mint's deposited total and spent coins; the provider's
    /// licenses and spent ids.
    pub counts: [u64; 4],
    pub statuses: Vec<Status>,
    /// (sequence, length) of the license, the pseudonym and the card CRL.
    pub crls: [(u64, usize); 3],
    /// Per user: account, wallet balance, parked requests, held licenses,
    /// card revoked.
    pub users: Vec<(u64, u64, usize, Vec<Handle>, bool)>,
    /// The TTP's openings: the user unmasked and the evidence's kind.
    pub unmasked: Vec<(usize, &'static str)>,
    /// Per device: the license CRL sequence it holds.
    pub devices: Vec<u64>,
}

#[derive(Default)]
pub struct Model {
    pub epoch: u32,
    pub users: Vec<User>,
    pub devices: Vec<Device>,
    pub pseudonyms: Vec<Pseudonym>,
    /// Per coin: its denomination and the license its deposit paid for.
    pub coins: Vec<(u64, Option<Handle>)>,
    pub licenses: Vec<License>,
    license_crl: Crl<Handle>,
    pub pseudonym_crl: Crl<Pseudo>,
    /// The RA's card CRL sequence, which every revocation moves; the list
    /// is the revoked users'.
    card_crl: u64,
    /// The pair each sync received.
    pub synced: Vec<Crls>,
    /// The users the TTP unmasked, in order.
    unmasked: Vec<usize>,
    /// Every request sent, and the license it names.
    pub sent: Vec<(Req, Handle)>,
    /// Requests answered as replays.
    pub replays: usize,
    writes: Writes,
    /// What the op being applied delivers.
    view: View,
}

impl Model {
    pub fn new() -> Self {
        let mut model = Model::default();
        for _ in 0..USERS {
            model.users.push(User {
                account: FUNDING,
                ..User::default()
            });
        }
        model.devices = vec![Device::default(); DEVICES];
        model
    }

    pub fn apply(&mut self, op: &Op) -> (Outcome, View) {
        let out = self.step(op).unwrap_or_else(|refused| refused);
        (out, std::mem::take(&mut self.view))
    }

    /// `op`'s outcome, or `Err` with the refusal that ends it early.
    fn step(&mut self, op: &Op) -> Result<Outcome, Outcome> {
        Ok(match *op {
            Op::Purchase(user, item, faulty) => {
                let Item(price, _, _, rated) = ITEMS[item];
                let fault = faulty.and_then(|f| f.1);
                let pseudonym = self.ensure_pseudonym(user)?;
                if rated && ADULTS[user] {
                    self.credential(pseudonym)?;
                }
                self.deliver("catalog", [Value::Item(Some(item))]);
                if fault == Some(Fault::Unquoted) {
                    return Ok(Outcome::Parked);
                }
                if rated && self.pseudonyms[pseudonym].cred.is_none() {
                    return Err(Outcome::Refused("bad pseudonym"));
                }
                let coin = self.coin_for_amount(user, price);
                let coin = coin.ok_or(Outcome::Refused("payment"))?;
                self.users[user].uses += 1;
                let cred = rated.then_some(pseudonym);
                let (k, out) = self.send(Req::Purchase(coin, pseudonym, Some(item), cred), fault);
                self.settle(user, k, out)
            }
            Op::Forge(user, item, chosen, coin, cred) => {
                let pseudonym = match chosen {
                    Some(p) => p,
                    None => self.ensure_pseudonym(user)?,
                };
                let cred = match cred {
                    Cred::None => None,
                    Cred::Own => {
                        self.credential(pseudonym)?;
                        Some(pseudonym)
                    }
                    Cred::Of(bound) => Some(bound),
                };
                let (coin, fresh) = match coin {
                    Coin::Spent(coin) => (coin, false),
                    Coin::Fresh(denomination) => match self.withdraw(user, denomination) {
                        Some(coin) => (coin, true),
                        None => return Err(Outcome::Refused("payment")),
                    },
                };
                self.users[user].uses += u32::from(chosen.is_none());
                let out = self
                    .send(Req::Purchase(coin, pseudonym, item, cred), None)
                    .1;
                match out {
                    Outcome::Issued(h) if !self.users[user].held.iter().any(|l| l.0 == h) => {
                        self.hold(user, h, pseudonym)
                    }
                    Outcome::Api(code) if fresh && PUT_BACK.contains(&code) => {
                        self.users[user].wallet.push(coin)
                    }
                    _ => {}
                }
                out
            }
            Op::Transfer(from, to, license, faulty) => {
                let recipient = self.ensure_pseudonym(to)?;
                let signer = self.holding(from, license).expect("held");
                let fault = faulty.and_then(|f| f.1);
                let (_, out) = self.send(Req::Transfer(license, signer, recipient), fault);
                if let Outcome::Issued(successor) = out {
                    let held = &mut self.users[from].held;
                    held.remove(held.iter().position(|l| l.0 == license).expect("held"));
                    self.users[to].uses += 1;
                    self.hold(to, successor, recipient);
                }
                out
            }
            Op::Steal(thief, license, to) => {
                let signer = self.ensure_pseudonym(thief)?;
                let recipient = self.ensure_pseudonym(to)?;
                self.send(Req::Transfer(license, signer, recipient), None).1
            }
            Op::Play(user, device, license) => {
                // The client learns the server's clock from a CRL sync.
                self.deliver("crl-sync", [Value::Crl(0)]);
                let holder = self.holding(user, license);
                let holder = holder.ok_or(Outcome::Refused("unknown license"))?;
                let item = self.item(license);
                let Device((licenses, pseudonyms), plays, kept) = &mut self.devices[device];
                if licenses.0.contains(&license) {
                    return Err(Outcome::Refused("revoked license"));
                }
                if pseudonyms.0.contains(&holder) {
                    return Err(Outcome::Refused("revoked pseudonym"));
                }
                let played = plays.entry(license).or_insert(0);
                if self.licenses[license].plays.is_some_and(|n| *played >= n) {
                    return Err(Outcome::Refused("denied"));
                }
                *played += 1;
                if !kept.contains(&item) {
                    kept.push(item);
                    self.deliver("download", [Value::Item(item)]);
                }
                Outcome::Done
            }
            Op::SyncCrl(device) => {
                let held = self.devices[device].0 .0 .1;
                self.deliver("crl-sync", [Value::Crl(held), Value::Crl(0)]);
                let crls = (self.license_crl.clone(), self.pseudonym_crl.clone());
                self.synced.push(crls.clone());
                self.devices[device].0 = crls;
                Outcome::Done
            }
            Op::ShowCrl(device, shown) => {
                let (licenses, pseudonyms) = (&self.license_crl, &self.pseudonym_crl);
                let crls = match shown {
                    Shown::OldLicenses(n) => (self.synced[n].0.clone(), pseudonyms.clone()),
                    Shown::OldPseudonyms(n) => (licenses.clone(), self.synced[n].1.clone()),
                    Shown::Tampered => return Err(Outcome::Refused("bad signature")),
                    Shown::Stranger => return Err(Outcome::Refused("unknown issuer")),
                    Shown::Swapped => return Err(Outcome::Refused("wrong scope")),
                };
                let held = &mut self.devices[device].0;
                if crls.0 .1 < held.0 .1 || crls.1 .1 < held.1 .1 {
                    return Err(Outcome::Refused("stale CRL"));
                }
                *held = crls;
                Outcome::Done
            }
            Op::Status(license) => {
                self.deliver("license-status", [Value::License(license)]);
                Outcome::Status(self.status(license))
            }
            Op::Download(item) | Op::Catalog(item) => {
                let label = ["catalog", "download"][usize::from(matches!(op, Op::Download(_)))];
                self.deliver(label, [Value::Item(item)]);
                item.map_or(Outcome::Api(UnknownContent), |_| Outcome::Done)
            }
            Op::Resend(k) => self.send(self.sent[k].0, None).1,
            Op::Settle(user) => {
                let parked = std::mem::take(&mut self.users[user].parked);
                let settled = parked.into_iter().map(|k| {
                    let (k, out) = self.send(self.sent[k].0, None);
                    self.settle(user, k, out)
                });
                Outcome::Settled(settled.collect())
            }
            Op::Restore(user, license, pseudonym) => {
                self.users[user].held.push((license, pseudonym));
                Outcome::Done
            }
            Op::RestoreCoin(user, coin) => {
                self.users[user].wallet.push(coin);
                Outcome::Done
            }
            Op::Pseudonym(user) => {
                self.ask_ra("pseudonym-issue", user);
                self.fresh_pseudonym(user)?;
                Outcome::Done
            }
            Op::Attribute(user, known) => {
                let pseudonym = match self.current_pseudonym(user) {
                    Some(p) => p,
                    None => {
                        self.ask_ra("pseudonym-issue", user);
                        self.fresh_pseudonym(user)?
                    }
                };
                self.ask_ra("attribute-issue", user);
                if self.users[user].revoked {
                    return Err(Outcome::Api(Revoked));
                }
                if !(known && ADULTS[user]) {
                    return Err(Outcome::Api(CardRefused));
                }
                self.pseudonyms[pseudonym].cred.get_or_insert(self.epoch);
                Outcome::Done
            }
            Op::Accuse(license, _, evidence) => {
                let refusal = match evidence {
                    Evidence::Genuine => None,
                    Evidence::OtherLicense(_) => Some("license ids differ"),
                    Evidence::NotHolder(_) => Some("holder key does not match accused"),
                    Evidence::SameRecipient => Some("same recipient twice is a replay, not abuse"),
                    Evidence::CopiedProof => Some("authorization signature invalid"),
                };
                if let Some(why) = refusal {
                    return Err(Outcome::Refused(why));
                }
                // A second genuine accusation of a revoked user still
                // unmasks them; the card CRL already lists the card, so
                // its sequence stays.
                let holder = self.licenses[license].holder;
                let user = self.pseudonyms[holder].user;
                self.unmasked.push(user);
                if !self.users[user].revoked {
                    self.users[user].revoked = true;
                    self.card_crl += 1;
                }
                let listed = self.pseudonym_crl.list(holder, &mut self.writes);
                listed.map_err(Outcome::Api)?;
                Outcome::Unmasked(user)
            }
            Op::RevokeLicense(license) => {
                self.licenses[license].spent.get_or_insert(None);
                let listed = self.license_crl.list(license, &mut self.writes);
                listed.map_err(Outcome::Api)?;
                Outcome::Done
            }
            Op::RevokePseudonym(pseudonym) => {
                let listed = self.pseudonym_crl.list(pseudonym, &mut self.writes);
                listed.map_err(Outcome::Api)?;
                Outcome::Done
            }
            Op::AdvanceEpoch(epochs) => {
                self.epoch += epochs;
                Outcome::Done
            }
            // Every row is read back, and a device's store holds its CRL
            // pair, play counts and kept items: nothing changes.
            Op::Restart(_) => Outcome::Done,
            Op::Cut(k, ref op) => {
                self.writes.cut = Some(k);
                self.writes.made = 0;
                let out = self.step(op);
                self.writes.cut = None;
                return out;
            }
        })
    }

    /// Settles a purchase's answer as the wire client does: the license,
    /// the coin back, nothing (a double spend), or the request parked.
    fn settle(&mut self, user: usize, k: usize, out: Outcome) -> Outcome {
        let Req::Purchase(coin, pseudonym, ..) = self.sent[k].0 else {
            unreachable!()
        };
        match out {
            Outcome::Issued(h) => self.hold(user, h, pseudonym),
            Outcome::Api(code) if PUT_BACK.contains(&code) => self.users[user].wallet.push(coin),
            Outcome::Api(DoubleSpend) => {}
            _ => self.users[user].parked.push(k),
        }
        out
    }

    /// The labels and values of a request the provider receives.
    fn deliver(&mut self, label: &'static str, values: impl IntoIterator<Item = Value>) {
        self.view.labels.push(label);
        self.view.provider.extend(values);
    }

    /// A card's issuance request, which the RA receives.
    fn ask_ra(&mut self, label: &'static str, user: usize) {
        self.view.labels.push(label);
        self.view.ra.push(user);
    }

    /// A request going out: the provider serves it unless it is dropped,
    /// and a lost reply answers `Parked` whatever was served.
    fn send(&mut self, req: Req, fault: Option<Fault>) -> (usize, Outcome) {
        let (key, holder, plays, transfers) = match req {
            Req::Purchase(coin, pseudonym, item, _) => {
                let Item(_, plays, transfers, _) = ITEMS[item.unwrap_or(0)];
                ((coin, pseudonym, item, false), pseudonym, plays, transfers)
            }
            Req::Transfer(license, _, recipient) => {
                let old = &self.licenses[license];
                let transfers = old.transfers.map(|n| n.saturating_sub(1));
                (
                    (license, recipient, old.key.2, true),
                    recipient,
                    old.plays,
                    transfers,
                )
            }
        };
        let handle = self.licenses.iter().position(|l| l.key == key);
        let handle = handle.unwrap_or_else(|| {
            let (issued, spent) = (false, None);
            let license = License {
                key,
                holder,
                plays,
                transfers,
                issued,
                spent,
            };
            self.licenses.push(license);
            self.licenses.len() - 1
        });
        self.sent.push((req, handle));
        if fault != Some(Fault::Dropped) {
            let (label, values) = match req {
                Req::Purchase(coin, p, item, cred) => {
                    let cred = Value::Pseudonym(cred.unwrap_or(p));
                    let values = [
                        Value::Coin(coin),
                        Value::Pseudonym(p),
                        Value::Item(item),
                        cred,
                    ];
                    ("purchase", values)
                }
                Req::Transfer(old, _, to) => {
                    let holder = Value::Pseudonym(self.licenses[old].holder);
                    let values = [Value::License(old), holder, Value::Pseudonym(to), holder];
                    ("transfer", values)
                }
            };
            self.deliver(label, values.into_iter().chain([Value::License(handle)]));
        }
        let out = match fault {
            Some(Fault::Dropped) => Outcome::Parked,
            _ => match self.serve(req, handle) {
                Ok(()) => Outcome::Issued(handle),
                Err(code) => Outcome::Api(code),
            },
        };
        let lost = fault == Some(Fault::LostReply);
        (
            self.sent.len() - 1,
            if lost { Outcome::Parked } else { out },
        )
    }

    /// The provider's check, then its commit: the claim — the deposit, or
    /// the old id's `spent/` row — and the rows that follow from it, the
    /// `lic/` row and a transfer's CRL listing of the old id, each a write
    /// a cut may fail. A replay writes them again.
    fn serve(&mut self, req: Req, handle: Handle) -> Result<(), Code> {
        let replay = self.check(req, handle)?;
        self.replays += usize::from(replay);
        match req {
            Req::Purchase(coin, ..) => self.coins[coin].1 = Some(handle),
            Req::Transfer(license, ..) => {
                self.licenses[license].spent.get_or_insert(Some(handle));
            }
        }
        self.writes.next()?;
        self.licenses[handle].issued = true;
        match req {
            Req::Transfer(license, ..) => self.license_crl.list(license, &mut self.writes),
            Req::Purchase(..) => Ok(()),
        }
    }

    /// The provider's check step: `Ok(replay)`, or the refusal.
    fn check(&self, req: Req, handle: Handle) -> Result<bool, Code> {
        match req {
            Req::Purchase(coin, pseudonym, item, cred) => {
                let (denomination, memo) = self.coins[coin];
                let replay = memo == Some(handle);
                if !replay {
                    self.check_pseudonym(pseudonym)?;
                }
                let Item(price, _, _, rated) = ITEMS[item.ok_or(UnknownContent)?];
                if replay {
                    return Ok(true);
                }
                if denomination < price {
                    return Err(InsufficientFunds);
                }
                let fresh = |epoch| self.epoch - epoch <= EPOCH_WINDOW;
                let bound = self.pseudonyms[pseudonym].cred.is_some_and(fresh);
                if rated && !(cred == Some(pseudonym) && bound) {
                    return Err(BadPseudonym);
                }
                memo.map_or(Ok(false), |_| Err(DoubleSpend))
            }
            Req::Transfer(license, signer, recipient) => {
                let old = &self.licenses[license];
                if old.transfers == Some(0) {
                    return Err(RightsDenied);
                }
                if signer != old.holder {
                    return Err(BadProof);
                }
                let replay = match old.spent {
                    None => false,
                    Some(successor) if successor == Some(handle) => true,
                    Some(_) => return Err(AlreadyRedeemed),
                };
                if !replay {
                    self.check_pseudonym(recipient)?;
                }
                Ok(replay)
            }
        }
    }

    fn check_pseudonym(&self, pseudonym: Pseudo) -> Result<(), Code> {
        let stale = self.epoch - self.pseudonyms[pseudonym].epoch > EPOCH_WINDOW;
        match stale || self.pseudonym_crl.0.contains(&pseudonym) {
            true => Err(BadPseudonym),
            false => Ok(()),
        }
    }

    /// Row writes a cut has failed so far.
    pub fn cuts(&self) -> u64 {
        self.writes.failed
    }

    /// The item a license is for.
    pub fn item(&self, license: Handle) -> ItemId {
        self.licenses[license].key.2
    }

    pub fn status(&self, license: Handle) -> Status {
        let l = &self.licenses[license];
        match l.spent {
            Some(Some(_)) => Status::Transferred,
            Some(None) => Status::Revoked,
            None if self.license_crl.0.contains(&license) => Status::Revoked,
            None if l.issued => Status::Active(l.holder),
            None => Status::Unknown,
        }
    }

    /// The user's newest pseudonym, if the policy lets it be used again.
    pub fn current_pseudonym(&self, user: usize) -> Option<Pseudo> {
        let u = &self.users[user];
        u.pseudonyms.last().copied().filter(|_| u.uses < USES[user])
    }

    /// A pseudonym issued over the wire; the RA refuses a revoked card.
    fn fresh_pseudonym(&mut self, user: usize) -> Result<Pseudo, Outcome> {
        let u = &mut self.users[user];
        if u.revoked {
            return Err(Outcome::Api(Revoked));
        }
        u.pseudonyms.push(self.pseudonyms.len());
        u.uses = 0;
        let epoch = self.epoch;
        self.pseudonyms.push(Pseudonym {
            user,
            epoch,
            cred: None,
        });
        Ok(self.pseudonyms.len() - 1)
    }

    /// The user's current pseudonym, else a fresh one through the RA's
    /// direct endpoint (`System::ensure_pseudonym`), whose refusal of a
    /// revoked card the client reads as a `CoreError`.
    fn ensure_pseudonym(&mut self, user: usize) -> Result<Pseudo, Outcome> {
        match self.current_pseudonym(user) {
            Some(p) => Ok(p),
            None => self
                .fresh_pseudonym(user)
                .map_err(|_| Outcome::Refused("revoked card")),
        }
    }

    /// `System::ensure_attribute` for the pseudonym the caller ensured:
    /// a credential unless it has one, which a revoked card does not get.
    fn credential(&mut self, pseudonym: Pseudo) -> Result<(), Outcome> {
        let p = &mut self.pseudonyms[pseudonym];
        if p.cred.is_none() && self.users[p.user].revoked {
            return Err(Outcome::Refused("revoked card"));
        }
        p.cred.get_or_insert(self.epoch);
        Ok(())
    }

    /// The pseudonym `user` holds `license` under, if the user holds it.
    pub fn holding(&self, user: usize, license: Handle) -> Option<Pseudo> {
        let held = &self.users[user].held;
        held.iter().find(|l| l.0 == license).map(|l| l.1)
    }

    fn hold(&mut self, user: usize, license: Handle, pseudonym: Pseudo) {
        let u = &mut self.users[user];
        u.held.push((license, pseudonym));
        if !u.history.contains(&(license, pseudonym)) {
            u.history.push((license, pseudonym));
        }
    }

    /// `Wallet::coin_for_amount`: the smallest held coin that covers
    /// `amount` (the first of equals), else a withdrawal of the smallest
    /// denomination that does.
    fn coin_for_amount(&mut self, user: usize, amount: u64) -> Option<CoinId> {
        let wallet = &mut self.users[user].wallet;
        let value = |i: &usize| self.coins[wallet[*i]].0;
        let covering = (0..wallet.len()).filter(|i| value(i) >= amount);
        match covering.min_by_key(value) {
            Some(i) => Some(wallet.swap_remove(i)),
            None => self.withdraw(user, *DENOMINATIONS.iter().find(|&&d| d >= amount)?),
        }
    }

    fn withdraw(&mut self, user: usize, denomination: u64) -> Option<CoinId> {
        let account = &mut self.users[user].account;
        *account = account.checked_sub(denomination)?;
        self.coins.push((denomination, None));
        Some(self.coins.len() - 1)
    }

    pub fn ledger(&self) -> Ledger {
        let deposits = self.coins.iter().filter_map(|&(d, memo)| memo.map(|_| d));
        let count = |f: fn(&License) -> bool| self.licenses.iter().filter(|l| f(l)).count();
        let user = |u: &User| {
            let wallet = u.wallet.iter().map(|&c| self.coins[c].0).sum();
            let held = u.held.iter().map(|l| l.0).collect();
            (u.account, wallet, u.parked.len(), held, u.revoked)
        };
        let revoked = self.users.iter().filter(|u| u.revoked).count();
        let [issued, spent] = [count(|l| l.issued), count(|l| l.spent.is_some())];
        let (licenses, pseudonyms) = (&self.license_crl, &self.pseudonym_crl);
        Ledger {
            counts: [
                deposits.clone().sum(),
                deposits.count() as u64,
                issued as u64,
                spent as u64,
            ],
            statuses: (0..self.licenses.len()).map(|l| self.status(l)).collect(),
            crls: [
                (licenses.1, licenses.0.len()),
                (pseudonyms.1, pseudonyms.0.len()),
                (self.card_crl, revoked),
            ],
            users: self.users.iter().map(user).collect(),
            unmasked: self
                .unmasked
                .iter()
                .map(|&u| (u, "double-transfer"))
                .collect(),
            devices: self.devices.iter().map(|d| d.0 .0 .1).collect(),
        }
    }
}
