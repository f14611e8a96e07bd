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

/// Per-owner access policy: deny-by-default, explicit grants, revocable.
#[derive(Debug, Clone, Default)]
pub struct OwnerPolicy {
    grants: HashMap<String, BTreeSet<Scope>>,
    /// Audit log of access decisions: (party, scope, allowed).
    audit: Vec<(String, Scope, bool)>,
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

    /// Revokes a single scope from a party.
    pub fn revoke(&mut self, party: &str, scope: &Scope) {
        if let Some(s) = self.grants.get_mut(party) {
            s.remove(scope);
        }
    }

    /// Revokes everything from a party.
    pub fn revoke_all(&mut self, party: &str) {
        self.grants.remove(party);
    }

    /// Access check with audit logging.
    pub fn check(&mut self, party: &str, scope: Scope) -> bool {
        let allowed = self
            .grants
            .get(party)
            .map(|s| s.contains(&scope))
            .unwrap_or(false);
        self.audit.push((party.to_owned(), scope, allowed));
        allowed
    }

    /// The audit log.
    pub fn audit_log(&self) -> &[(String, Scope, bool)] {
        &self.audit
    }

    /// Current grants of a party.
    pub fn scopes_of(&self, party: &str) -> BTreeSet<Scope> {
        self.grants.get(party).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_by_default() {
        let mut p = OwnerPolicy::new();
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
    fn revocation_takes_effect() {
        let mut p = OwnerPolicy::new();
        p.grant("insurance", [Scope::Geolocation, Scope::Aggregate]);
        assert!(p.check("insurance", Scope::Geolocation));
        p.revoke("insurance", &Scope::Geolocation);
        assert!(!p.check("insurance", Scope::Geolocation));
        assert!(p.check("insurance", Scope::Aggregate));
        p.revoke_all("insurance");
        assert!(!p.check("insurance", Scope::Aggregate));
    }

    #[test]
    fn grants_are_per_party() {
        let mut p = OwnerPolicy::new();
        p.grant("oem", [Scope::Diagnostics]);
        assert!(!p.check("insurance", Scope::Diagnostics));
    }

    #[test]
    fn audit_records_denials_too() {
        let mut p = OwnerPolicy::new();
        p.grant("oem", [Scope::Aggregate]);
        p.check("oem", Scope::Aggregate);
        p.check("oem", Scope::Identity);
        let log = p.audit_log();
        assert_eq!(log.len(), 2);
        assert!(log[0].2);
        assert!(!log[1].2);
    }

    #[test]
    fn grants_accumulate() {
        let mut p = OwnerPolicy::new();
        p.grant("oem", [Scope::Aggregate]);
        p.grant("oem", [Scope::Diagnostics]);
        assert_eq!(p.scopes_of("oem").len(), 2);
    }
}
