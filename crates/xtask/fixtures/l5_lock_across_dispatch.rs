//! Fixture: L5 violations — a lock guard held across a pool dispatch,
//! and a nested lock acquisition while another guard is live.

use tvdp_kernel::sync::Mutex;
use tvdp_kernel::Pool;

/// Holds the writer lock across a pool fan-out: the dispatch blocks on
/// worker threads while the guard serializes every one of them.
pub fn held_across_dispatch(state: &Mutex<Vec<u64>>, pool: &Pool) -> Vec<u64> {
    let guard = state.lock();
    pool.map_index(guard.len(), |i| guard[i] * 2)
}

/// Acquires `b` while `a`'s guard is still live — the ABBA half.
pub fn nested_acquisition(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {
    let ga = a.lock();
    let gb = b.lock();
    *ga + *gb
}
