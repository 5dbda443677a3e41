//! The typed rights AST: actions, limits, windows, bindings.

use p2drm_codec::{Decode, Encode, Reader, Writer};

/// An action a license holder may request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// Render the content.
    Play,
    /// Make a (protected) copy for another owned device.
    Copy,
    /// Transfer the license to another user.
    Transfer,
}

impl Action {
    /// All actions, in canonical order.
    pub const ALL: [Action; 3] = [Action::Play, Action::Copy, Action::Transfer];

    /// Canonical keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Action::Play => "play",
            Action::Copy => "copy",
            Action::Transfer => "transfer",
        }
    }

    fn discriminant(self) -> u8 {
        match self {
            Action::Play => 0,
            Action::Copy => 1,
            Action::Transfer => 2,
        }
    }

    fn from_discriminant(d: u8) -> Option<Self> {
        Some(match d {
            0 => Action::Play,
            1 => Action::Copy,
            2 => Action::Transfer,
            _ => return None,
        })
    }
}

impl Encode for Action {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.discriminant());
    }
}

impl Decode for Action {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let d = r.get_u8()?;
        Self::from_discriminant(d).ok_or(p2drm_codec::CodecError::BadDiscriminant(d))
    }
}

/// Usage limit for an action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Limit {
    /// Action not granted at all.
    None,
    /// Up to `n` uses.
    Count(u32),
    /// Unlimited uses.
    Unlimited,
}

impl Limit {
    /// Whether `used` consumptions still leave headroom.
    pub fn allows(&self, used: u32) -> bool {
        match self {
            Limit::None => false,
            Limit::Count(n) => used < *n,
            Limit::Unlimited => true,
        }
    }

    /// Remaining uses (`None` for unlimited).
    pub fn remaining(&self, used: u32) -> Option<u32> {
        match self {
            Limit::None => Some(0),
            Limit::Count(n) => Some(n.saturating_sub(used)),
            Limit::Unlimited => None,
        }
    }
}

impl Encode for Limit {
    fn encode(&self, w: &mut Writer) {
        match self {
            Limit::None => w.put_u8(0),
            Limit::Count(n) => {
                w.put_u8(1);
                w.put_u32(*n);
            }
            Limit::Unlimited => w.put_u8(2),
        }
    }
}

impl Decode for Limit {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        match r.get_u8()? {
            0 => Ok(Limit::None),
            1 => Ok(Limit::Count(r.get_u32()?)),
            2 => Ok(Limit::Unlimited),
            d => Err(p2drm_codec::CodecError::BadDiscriminant(d)),
        }
    }
}

p2drm_codec::record! {
    /// Half-open-free validity window `[from, until]` in unix seconds; either
    /// bound may be absent.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Window {
        /// Earliest valid second (None = no lower bound).
        pub from: Option<u64>,
        /// Latest valid second (None = no upper bound).
        pub until: Option<u64>,
    }
}

impl Window {
    /// True when `now` is inside the window.
    pub fn contains(&self, now: u64) -> bool {
        self.from.is_none_or(|f| now >= f) && self.until.is_none_or(|u| now <= u)
    }

    /// True when no bounds are set.
    pub fn is_unbounded(&self) -> bool {
        self.from.is_none() && self.until.is_none()
    }
}

p2drm_codec::record! {
    /// A complete rights expression.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Rights {
        /// Play limit.
        pub play: Limit,
        /// Copy limit.
        pub copy: Limit,
        /// Transfer limit.
        pub transfer: Limit,
        /// Validity window.
        pub window: Window,
        /// Device binding: if set, only this device (by 32-byte id) may render.
        pub device: Option<[u8; 32]>,
        /// Authorized-domain binding (domain name).
        pub domain: Option<String>,
        /// Region allowlist (empty = everywhere); uppercase codes.
        pub regions: Vec<String> as seq,
    }
}

impl Rights {
    /// Limit for `action`.
    pub fn limit(&self, action: Action) -> Limit {
        match action {
            Action::Play => self.play,
            Action::Copy => self.copy,
            Action::Transfer => self.transfer,
        }
    }

    /// Starts a builder with nothing granted.
    pub fn builder() -> RightsBuilder {
        RightsBuilder::default()
    }

    /// Common default: unlimited personal playback, one transfer.
    pub fn standard_purchase() -> Rights {
        Rights::builder()
            .play(Limit::Unlimited)
            .transfer(Limit::Count(1))
            .build()
    }
}

impl Default for Rights {
    fn default() -> Self {
        Rights {
            play: Limit::None,
            copy: Limit::None,
            transfer: Limit::None,
            window: Window::default(),
            device: None,
            domain: None,
            regions: Vec::new(),
        }
    }
}

/// Fluent constructor for [`Rights`].
#[derive(Default, Clone, Debug)]
pub struct RightsBuilder {
    rights: Rights,
}

impl RightsBuilder {
    /// Sets the play limit.
    pub fn play(mut self, limit: Limit) -> Self {
        self.rights.play = limit;
        self
    }

    /// Sets the copy limit.
    pub fn copy(mut self, limit: Limit) -> Self {
        self.rights.copy = limit;
        self
    }

    /// Sets the transfer limit.
    pub fn transfer(mut self, limit: Limit) -> Self {
        self.rights.transfer = limit;
        self
    }

    /// Sets the validity window.
    pub fn window(mut self, from: Option<u64>, until: Option<u64>) -> Self {
        self.rights.window = Window { from, until };
        self
    }

    /// Binds to a device id.
    pub fn device(mut self, id: [u8; 32]) -> Self {
        self.rights.device = Some(id);
        self
    }

    /// Binds to an authorized domain.
    pub fn domain(mut self, name: impl Into<String>) -> Self {
        self.rights.domain = Some(name.into());
        self
    }

    /// Adds a permitted region code (stored uppercase).
    pub fn region(mut self, code: impl Into<String>) -> Self {
        self.rights.regions.push(code.into().to_uppercase());
        self
    }

    /// Finishes, normalizing region order for canonical encoding.
    pub fn build(mut self) -> Rights {
        self.rights.regions.sort();
        self.rights.regions.dedup();
        self.rights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_allows() {
        assert!(!Limit::None.allows(0));
        assert!(Limit::Count(2).allows(1));
        assert!(!Limit::Count(2).allows(2));
        assert!(Limit::Unlimited.allows(u32::MAX));
        assert_eq!(Limit::Count(5).remaining(2), Some(3));
        assert_eq!(Limit::Count(5).remaining(9), Some(0));
        assert_eq!(Limit::Unlimited.remaining(9), None);
        assert_eq!(Limit::None.remaining(0), Some(0));
    }

    #[test]
    fn window_contains() {
        let w = Window {
            from: Some(10),
            until: Some(20),
        };
        assert!(!w.contains(9) && w.contains(10) && w.contains(20) && !w.contains(21));
        assert!(Window::default().contains(0));
        assert!(Window::default().contains(u64::MAX));
        let half = Window {
            from: Some(5),
            until: None,
        };
        assert!(!half.contains(4) && half.contains(u64::MAX));
    }

    #[test]
    fn builder_normalizes_regions() {
        let r = Rights::builder()
            .region("us")
            .region("EU")
            .region("US")
            .build();
        assert_eq!(r.regions, vec!["EU".to_string(), "US".to_string()]);
    }

    #[test]
    fn rights_codec_roundtrip() {
        let r = Rights::builder()
            .play(Limit::Count(3))
            .copy(Limit::Unlimited)
            .transfer(Limit::Count(1))
            .window(Some(100), Some(200))
            .device([7u8; 32])
            .domain("home")
            .region("EU")
            .build();
        let bytes = p2drm_codec::to_bytes(&r);
        assert_eq!(p2drm_codec::from_bytes::<Rights>(&bytes).unwrap(), r);
    }

    #[test]
    fn default_grants_nothing() {
        let r = Rights::default();
        for a in Action::ALL {
            assert_eq!(r.limit(a), Limit::None);
        }
    }

    #[test]
    fn standard_purchase_shape() {
        let r = Rights::standard_purchase();
        assert_eq!(r.play, Limit::Unlimited);
        assert_eq!(r.transfer, Limit::Count(1));
        assert_eq!(r.copy, Limit::None);
    }
}
