//! API key issuance and validation.

use tvdp_kernel::sync::RwLock;
use tvdp_storage::UserId;

/// Thread-safe API key table: opaque tokens mapped to users.
#[derive(Debug, Default)]
pub struct ApiKeyRegistry {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counter: u64,
    #[expect(
        clippy::disallowed_types,
        reason = "lookup only: keys are inserted and looked up, never iterated"
    )]
    keys: std::collections::HashMap<String, UserId>,
}

impl ApiKeyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a fresh key for `user`. Tokens are unguessable-looking but
    /// deterministic per process (a mixed counter hash), which keeps the
    /// platform reproducible.
    pub fn issue(&self, user: UserId) -> String {
        let mut inner = self.inner.write();
        inner.counter += 1;
        // SplitMix64 over the counter: well-distributed, stable.
        let mut z = inner.counter.wrapping_mul(0x9E3779B97F4A7C15) ^ (user.raw() << 32);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let key = format!("tvdp_{z:016x}");
        inner.keys.insert(key.clone(), user);
        key
    }

    /// The user a key belongs to, if valid.
    pub fn validate(&self, key: &str) -> Option<UserId> {
        self.inner.read().keys.get(key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_and_validate() {
        let reg = ApiKeyRegistry::new();
        let k1 = reg.issue(UserId(1));
        let k2 = reg.issue(UserId(2));
        assert_ne!(k1, k2);
        assert_eq!(reg.validate(&k1), Some(UserId(1)));
        assert_eq!(reg.validate(&k2), Some(UserId(2)));
        assert_eq!(reg.validate("tvdp_bogus"), None);
        assert_eq!(reg.inner.read().keys.len(), 2);
    }

    #[test]
    fn keys_have_stable_format() {
        let reg = ApiKeyRegistry::new();
        let k = reg.issue(UserId(0));
        assert!(k.starts_with("tvdp_"));
        assert_eq!(k.len(), 5 + 16);
    }

    #[test]
    fn many_keys_for_one_user_all_valid() {
        let reg = ApiKeyRegistry::new();
        let keys: Vec<String> = (0..10).map(|_| reg.issue(UserId(3))).collect();
        for k in &keys {
            assert_eq!(reg.validate(k), Some(UserId(3)));
        }
        assert_eq!(reg.inner.read().keys.len(), 10);
    }
}
