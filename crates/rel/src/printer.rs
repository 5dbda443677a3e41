//! Display form of a `Rights`: one canonical line of text, for people to
//! read (nothing parses it back).

use crate::ast::{Limit, Rights};
use std::fmt::Write as _;

/// Renders `rights` in canonical statement order: grants (play, copy,
/// transfer), validity, device bind, domain bind, regions.
pub fn print(rights: &Rights) -> String {
    let mut out = String::new();
    for (name, limit) in [
        ("play", rights.play),
        ("copy", rights.copy),
        ("transfer", rights.transfer),
    ] {
        match limit {
            Limit::None => {}
            Limit::Count(1) => {
                let _ = write!(out, "grant {name}; ");
            }
            Limit::Count(n) => {
                let _ = write!(out, "grant {name} count={n}; ");
            }
            Limit::Unlimited => {
                let _ = write!(out, "grant {name} unlimited; ");
            }
        }
    }
    if !rights.window.is_unbounded() {
        let _ = write!(out, "valid");
        if let Some(f) = rights.window.from {
            let _ = write!(out, " from={f}");
        }
        if let Some(u) = rights.window.until {
            let _ = write!(out, " until={u}");
        }
        let _ = write!(out, "; ");
    }
    if let Some(device) = &rights.device {
        let hex: String = device.iter().map(|b| format!("{b:02x}")).collect();
        let _ = write!(out, "bind device=0x{hex}; ");
    }
    if let Some(domain) = &rights.domain {
        let _ = write!(out, "bind domain=\"{domain}\"; ");
    }
    if !rights.regions.is_empty() {
        let _ = write!(out, "region");
        for r in &rights.regions {
            let _ = write!(out, " \"{r}\"");
        }
        let _ = write!(out, "; ");
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::RightsBuilder;

    #[test]
    fn full_rights_print_every_statement_in_canonical_order() {
        let r = RightsBuilder::default()
            .play(Limit::Count(5))
            .copy(Limit::Unlimited)
            .transfer(Limit::Count(1))
            .window(Some(10), Some(99))
            .device([0xab; 32])
            .domain("family")
            .region("jp")
            .build();
        assert_eq!(
            print(&r),
            format!(
                "grant play count=5; grant copy unlimited; grant transfer; \
                 valid from=10 until=99; bind device=0x{}; bind domain=\"family\"; region \"JP\";",
                "ab".repeat(32)
            )
        );
    }

    #[test]
    fn empty_rights_prints_empty() {
        assert_eq!(print(&Rights::default()), "");
    }

    #[test]
    fn count_one_prints_bare_grant() {
        let r = RightsBuilder::default().play(Limit::Count(1)).build();
        assert_eq!(print(&r), "grant play;");
    }

    #[test]
    fn printing_is_deterministic() {
        let r = RightsBuilder::default()
            .region("us")
            .region("eu")
            .play(Limit::Unlimited)
            .build();
        assert_eq!(print(&r), print(&r.clone()));
        assert!(print(&r).starts_with("grant play unlimited; region"));
    }
}
