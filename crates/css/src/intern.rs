//! Property-name interning: a process-wide atom table mapping CSS
//! property names to small integer ids.
//!
//! Computed styles store `(PropertyId, value)` pairs instead of owned
//! `String` keys, so cloning a style copies ids, equality compares ids,
//! and the interner pays each name's allocation exactly once. The table
//! only ever grows — property vocabularies are tiny and bounded by the
//! stylesheets a process loads — so interned names can be handed out as
//! `&'static str` without lifetime plumbing. Each id carries its name, so
//! only interning touches the table's lock; reading a name never does.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

fn interner() -> &'static RwLock<HashMap<&'static str, PropertyId>> {
    static INTERNER: OnceLock<RwLock<HashMap<&'static str, PropertyId>>> = OnceLock::new();
    INTERNER.get_or_init(RwLock::default)
}

/// An interned CSS property name.
///
/// The id is the identity: equality and hashing compare it alone. The
/// interned name rides along, so [`PropertyId::as_str`] is a field read
/// rather than a trip through the shared table. Ordering compares the
/// *names*: interning order depends on which thread interned a name
/// first, so id-order would differ between runs, while name-order is the
/// same everywhere — the property that keeps style iteration
/// byte-identical across serial and parallel executions.
#[derive(Debug, Clone, Copy)]
pub struct PropertyId {
    id: u32,
    name: &'static str,
}

impl PropertyId {
    /// Interns `name` (idempotent) and returns its id.
    pub fn intern(name: &str) -> Self {
        if let Some(&id) = interner().read().expect("interner lock").get(name) {
            return id;
        }
        let mut table = interner().write().expect("interner lock");
        if let Some(&id) = table.get(name) {
            return id;
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        let id = PropertyId {
            id: u32::try_from(table.len()).expect("property table overflow"),
            name: leaked,
        };
        table.insert(leaked, id);
        id
    }

    /// The interned name.
    pub fn as_str(self) -> &'static str {
        self.name
    }
}

impl PartialEq for PropertyId {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for PropertyId {}

impl Hash for PropertyId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl Ord for PropertyId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.id == other.id {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for PropertyId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for PropertyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = PropertyId::intern("width");
        let b = PropertyId::intern("width");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "width");
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        assert_ne!(PropertyId::intern("width"), PropertyId::intern("height"));
    }

    #[test]
    fn ordering_follows_names_not_ids() {
        // Intern in reverse-alphabetical order; Ord must still sort
        // alphabetically, whatever ids were assigned.
        let z = PropertyId::intern("zz-test-prop");
        let a = PropertyId::intern("aa-test-prop");
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
