//! Offline stand-in for `serde`: `Serialize` / `Deserialize` are marker
//! traits every type implements, and the derives are no-ops. Nothing
//! can actually be serialized through it — the TVDP request path uses
//! `tvdp_storage::codec` instead.

pub use serde_derive::{Deserialize, Serialize};

/// Marker: every type "serializes".
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker: every type "deserializes".
pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

/// Deserialization helpers.
pub mod de {
    /// Owned-deserialization marker.
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T> DeserializeOwned for T {}
}
