//! Offline stand-in for `serde_derive`. The stand-in `serde` traits are
//! blanket-implemented, so both derives expand to nothing; they exist so
//! `#[derive(Serialize, Deserialize)]` and `#[serde(..)]` attributes
//! keep compiling.

use proc_macro::TokenStream;

/// No-op `Serialize` derive.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
