//! Fixture: L3 violation behind an alias — `std::thread` renamed on
//! import. A matcher of the spelling `thread::spawn` never sees `t::spawn`;
//! clippy resolves the path and under the root `clippy.toml` must reject
//! it.

use std::thread as t;

/// The same ad-hoc thread as `l3_adhoc_thread.rs`, under another name.
pub fn fan_out(items: Vec<u64>) -> Vec<u64> {
    let handle = t::spawn(move || items.into_iter().map(|x| x * 2).collect());
    handle.join().unwrap_or_default()
}
