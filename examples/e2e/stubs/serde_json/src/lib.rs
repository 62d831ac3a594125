//! Offline stand-in for `serde_json`. It type-checks the two calls the
//! TVDP API layer makes (portable model weights) and answers both with
//! an error; the benchmark never exercises those endpoints.

use serde::{Deserialize, Serialize};

/// The only error this stand-in produces.
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serde_json is an offline stand-in and cannot (de)serialize")
    }
}

impl std::error::Error for Error {}

/// Result alias, as in the published crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Always `Err`.
pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error)
}

/// Always `Err`.
pub fn from_str<'a, T: Deserialize<'a>>(_text: &'a str) -> Result<T> {
    Err(Error)
}
