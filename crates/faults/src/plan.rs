//! The seeded fault plan: per-site schedules and a decision trace.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// When a site's fault fires, as a function of the site's 1-based call
/// counter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// Never fires (the default for unconfigured sites).
    Never,
    /// Fires with this probability per call, decided by a deterministic
    /// per-`(seed, site, call)` coin — same seed, same coin flips.
    Probability(f64),
    /// Fires exactly once, on this call number (1-based).
    OneShot(u64),
}

impl Schedule {
    fn fires(&self, seed: u64, site_hash: u64, call: u64) -> bool {
        match *self {
            Schedule::Never => false,
            Schedule::OneShot(n) => n != 0 && call == n,
            Schedule::Probability(p) => {
                if p <= 0.0 {
                    return false;
                }
                if p >= 1.0 {
                    return true;
                }
                let x = splitmix64(seed ^ site_hash ^ call.wrapping_mul(0x9E37_79B9));
                ((x >> 11) as f64 / (1u64 << 53) as f64) < p
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the site name — the per-site component of the coin.
fn site_hash(site: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[derive(Debug)]
struct SiteState {
    schedule: Schedule,
    calls: u64,
    fired: u64,
}

/// One fault-injection decision, recorded in call order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Site name.
    pub site: &'static str,
    /// 1-based call number at that site.
    pub call: u64,
    /// Whether the fault fired.
    pub fired: bool,
}

/// Seeded, deterministic fault plan: a [`Schedule`] per named site,
/// per-site call counters, and a trace of every decision taken.
/// Shared behind an `Arc` by all wrappers of one run; interior
/// mutability keeps the wrappers' `&self` APIs intact.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    sites: Mutex<BTreeMap<&'static str, SiteState>>,
    trace: Mutex<Vec<Decision>>,
}

impl FaultPlan {
    /// Empty plan (all sites [`Schedule::Never`]) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: Mutex::new(BTreeMap::new()),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Sets `site`'s schedule (builder form).
    pub fn with(self, site: &'static str, schedule: Schedule) -> Self {
        self.set(site, schedule);
        self
    }

    /// Sets `site`'s schedule. The site's call counter is preserved —
    /// re-arming mid-run continues the same call numbering.
    pub fn set(&self, site: &'static str, schedule: Schedule) {
        let mut sites = lock(&self.sites);
        sites
            .entry(site)
            .and_modify(|s| s.schedule = schedule)
            .or_insert(SiteState {
                schedule,
                calls: 0,
                fired: 0,
            });
    }

    /// One decision: advances `site`'s call counter and reports whether
    /// the fault fires on this call. Unconfigured sites count calls but
    /// never fire.
    pub fn decide(&self, site: &'static str) -> bool {
        let (call, fired) = {
            let mut sites = lock(&self.sites);
            let st = sites.entry(site).or_insert(SiteState {
                schedule: Schedule::Never,
                calls: 0,
                fired: 0,
            });
            st.calls += 1;
            let fired = st.schedule.fires(self.seed, site_hash(site), st.calls);
            if fired {
                st.fired += 1;
            }
            (st.calls, fired)
        };
        lock(&self.trace).push(Decision { site, call, fired });
        fired
    }

    /// Times `site` has been consulted.
    pub fn calls(&self, site: &str) -> u64 {
        lock(&self.sites).get(site).map_or(0, |s| s.calls)
    }

    /// Times `site` has fired.
    pub fn fired(&self, site: &str) -> u64 {
        lock(&self.sites).get(site).map_or(0, |s| s.fired)
    }

    /// The decision trace so far (call order).
    pub fn trace(&self) -> Vec<Decision> {
        lock(&self.trace).clone()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Plan state is counters and a trace; the last consistent write is
    // safe to observe after a panic elsewhere.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_is_deterministic_and_roughly_calibrated() {
        let flips = |seed, site| {
            let plan = FaultPlan::new(seed).with(site, Schedule::Probability(0.1));
            (0..10_000).map(|_| plan.decide(site)).collect::<Vec<_>>()
        };
        let a = flips(7, "x");
        assert_eq!(a, flips(7, "x"), "same seed, same coin flips");
        assert_ne!(a, flips(8, "x"), "different seed, different flips");
        let hits = a.iter().filter(|f| **f).count();
        assert!((700..1300).contains(&hits), "~10% of 10k, got {hits}");
        // Different sites under the same seed are decorrelated.
        assert_ne!(a, flips(7, "y"));
    }

    #[test]
    fn decide_counts_and_traces() {
        let plan = FaultPlan::new(3).with("s", Schedule::OneShot(2));
        assert!(!plan.decide("s"));
        assert!(plan.decide("s"));
        assert!(!plan.decide("s"));
        assert!(!plan.decide("other"), "unconfigured site never fires");
        assert_eq!(plan.calls("s"), 3);
        assert_eq!(plan.fired("s"), 1);
        let decision = |site, call, fired| Decision { site, call, fired };
        assert_eq!(
            plan.trace(),
            [
                decision("s", 1, false),
                decision("s", 2, true),
                decision("s", 3, false),
                decision("other", 1, false),
            ]
        );
    }

    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let plan = FaultPlan::new(99)
                .with("a", Schedule::Probability(0.5))
                .with("b", Schedule::OneShot(7));
            for _ in 0..50 {
                plan.decide("a");
                plan.decide("b");
            }
            plan.trace()
        };
        assert_eq!(run(), run());
    }
}
