//! Service subscribers (virtual web sites) and their registry.

use std::collections::BTreeMap;
use std::fmt;

use crate::resource::Grps;

/// Identifier of a service subscriber (one hosted virtual web site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SubscriberId(pub u32);

impl fmt::Display for SubscriberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// A subscriber's static contract: its host name (classification key) and
/// reserved service rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscriber {
    /// Stable identifier.
    pub id: SubscriberId,
    /// Host name by which requests are classified (paper §3.3: the
    /// host-name part of the URL).
    pub host: String,
    /// Reserved generic-requests-per-second rate.
    pub reservation: Grps,
}

/// The set of subscribers hosted on the cluster, with host-name lookup.
///
/// ```rust
/// use gage_core::subscriber::{SubscriberRegistry, SubscriberId};
/// use gage_core::resource::Grps;
///
/// let mut reg = SubscriberRegistry::new();
/// let site1 = reg.register("site1.example.com", Grps(250.0)).unwrap();
/// assert_eq!(reg.classify_host("site1.example.com"), Some(site1));
/// assert_eq!(reg.classify_host("unknown.example.com"), None);
/// assert_eq!(reg.get(site1).unwrap().reservation, Grps(250.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SubscriberRegistry {
    subscribers: Vec<Subscriber>,
    by_host: BTreeMap<String, SubscriberId>,
}

/// Error returned when registering a duplicate host name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateHostError(pub String);

impl fmt::Display for DuplicateHostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host {:?} already registered", self.0)
    }
}

impl std::error::Error for DuplicateHostError {}

impl SubscriberRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a subscriber and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateHostError`] if `host` is already taken.
    pub fn register(
        &mut self,
        host: impl Into<String>,
        reservation: Grps,
    ) -> Result<SubscriberId, DuplicateHostError> {
        let host = host.into();
        if self.by_host.contains_key(&host) {
            return Err(DuplicateHostError(host));
        }
        let id = SubscriberId(self.subscribers.len() as u32);
        self.by_host.insert(host.clone(), id);
        self.subscribers.push(Subscriber {
            id,
            host,
            reservation,
        });
        Ok(id)
    }

    /// Looks a subscriber up by host name (request classification).
    pub fn classify_host(&self, host: &str) -> Option<SubscriberId> {
        self.by_host.get(host).copied()
    }

    /// Fetches a subscriber's contract.
    pub fn get(&self, id: SubscriberId) -> Option<&Subscriber> {
        self.subscribers.get(id.0 as usize)
    }

    /// Number of subscribers.
    pub fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// True if nobody is registered.
    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }

    /// Iterates over all subscribers in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Subscriber> {
        self.subscribers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_classify() {
        let mut reg = SubscriberRegistry::new();
        let a = reg.register("a.com", Grps(100.0)).unwrap();
        let b = reg.register("b.com", Grps(50.0)).unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.classify_host("a.com"), Some(a));
        assert_eq!(reg.classify_host("b.com"), Some(b));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn duplicate_host_rejected() {
        let mut reg = SubscriberRegistry::new();
        reg.register("a.com", Grps(1.0)).unwrap();
        let err = reg.register("a.com", Grps(2.0)).unwrap_err();
        assert_eq!(err, DuplicateHostError("a.com".to_string()));
        assert_eq!(reg.len(), 1, "failed registration does not mutate");
    }

    #[test]
    fn ids_are_dense_indices() {
        let mut reg = SubscriberRegistry::new();
        for i in 0..10 {
            let id = reg.register(format!("s{i}.com"), Grps(1.0)).unwrap();
            assert_eq!(id, SubscriberId(i));
        }
        assert_eq!(reg.iter().count(), 10);
    }

    #[test]
    fn unknown_lookups() {
        let reg = SubscriberRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.classify_host("nope"), None);
        assert!(reg.get(SubscriberId(3)).is_none());
    }
}
