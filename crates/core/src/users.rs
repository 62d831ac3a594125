//! Platform users and roles.
//!
//! The paper names four participant kinds (Section II): governments
//! providing open datasets, professional researchers/developers providing
//! algorithms, community partners operating solutions or crowdsourcing
//! data, and academic partners building on the open datasets.

use std::collections::BTreeMap;

use tvdp_kernel::sync::RwLock;
use tvdp_storage::UserId;

/// Participant category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// City departments (e.g. LASAN) providing data and taking action.
    Government,
    /// Researchers and developers providing analysis methods.
    Researcher,
    /// Community partners operating solutions and crowdsourcing data.
    CommunityPartner,
    /// Students and academics building on open datasets.
    Academic,
}

/// A registered participant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct User {
    /// Identifier.
    pub id: UserId,
    /// Display name.
    pub name: String,
    /// Participant category.
    pub role: Role,
}

/// Thread-safe user table.
#[derive(Debug, Default)]
pub struct UserRegistry {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    next: u64,
    users: BTreeMap<UserId, User>,
}

impl UserRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a user, returning the new id.
    pub fn register(&self, name: impl Into<String>, role: Role) -> UserId {
        let mut inner = self.inner.write();
        let id = UserId(inner.next);
        inner.next += 1;
        inner.users.insert(
            id,
            User {
                id,
                name: name.into(),
                role,
            },
        );
        id
    }

    /// Whether the id is registered.
    pub fn exists(&self, id: UserId) -> bool {
        self.inner.read().users.contains_key(&id)
    }

    /// All users.
    pub fn all(&self) -> Vec<User> {
        self.inner.read().users.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let reg = UserRegistry::new();
        let lasan = reg.register("LASAN", Role::Government);
        let usc = reg.register("USC IMSC", Role::Researcher);
        assert_ne!(lasan, usc);
        assert!(reg.exists(usc));
        assert!(!reg.exists(UserId(99)));
        let all = reg.all();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].id, all[0].name.as_str()), (lasan, "LASAN"));
    }
}
