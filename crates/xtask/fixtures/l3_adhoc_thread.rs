//! Fixture: L3 pool-only-threading violation — spawning threads
//! outside `tvdp-kernel` bypasses the deterministic work pool. Clippy
//! under the root `clippy.toml` must reject it.

/// Ad-hoc threads make output placement depend on the scheduler.
pub fn fan_out(items: Vec<u64>) -> Vec<u64> {
    let handle = std::thread::spawn(move || items.into_iter().map(|x| x * 2).collect());
    handle.join().unwrap_or_default()
}
