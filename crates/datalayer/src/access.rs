//! Owner-controlled data access (§VIII): *"the widespread distribution
//! of data within such systems necessitates controlled access mechanisms
//! that allow data owners to retain the rights to grant or restrict
//! access"* — across ecosystems with multiple stakeholders (ref \[55\]).

use std::collections::{BTreeSet, HashMap};

/// A data access scope.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Aggregate, anonymized statistics.
    Aggregate,
    /// Vehicle diagnostics (DTCs, battery health).
    Diagnostics,
    /// Precise geolocation traces.
    Geolocation,
    /// Personal identity (name, email).
    Identity,
}

/// Per-owner access policy: deny-by-default, explicit grants.
#[derive(Debug, Clone, Default)]
pub struct OwnerPolicy {
    grants: HashMap<String, BTreeSet<Scope>>,
}

impl OwnerPolicy {
    /// New empty (deny-everything) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants `party` the given scopes (additive).
    pub fn grant(&mut self, party: &str, scopes: impl IntoIterator<Item = Scope>) {
        self.grants
            .entry(party.to_owned())
            .or_default()
            .extend(scopes);
    }

    /// Whether `party` holds `scope`.
    pub fn check(&self, party: &str, scope: Scope) -> bool {
        self.grants.get(party).is_some_and(|s| s.contains(&scope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_by_default() {
        let p = OwnerPolicy::new();
        assert!(!p.check("oem", Scope::Geolocation));
    }

    #[test]
    fn grant_then_allow() {
        let mut p = OwnerPolicy::new();
        p.grant("workshop", [Scope::Diagnostics]);
        assert!(p.check("workshop", Scope::Diagnostics));
        assert!(!p.check("workshop", Scope::Geolocation));
    }

    #[test]
    fn grants_are_per_party() {
        let mut p = OwnerPolicy::new();
        p.grant("oem", [Scope::Diagnostics]);
        assert!(!p.check("insurance", Scope::Diagnostics));
    }

    #[test]
    fn grants_accumulate() {
        let mut p = OwnerPolicy::new();
        p.grant("oem", [Scope::Aggregate]);
        p.grant("oem", [Scope::Diagnostics]);
        assert!(p.check("oem", Scope::Aggregate));
        assert!(p.check("oem", Scope::Diagnostics));
    }
}
