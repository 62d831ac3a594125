//! Model-checked specifications of TVDP's five load-bearing
//! concurrency protocols.
//!
//! Each submodule exposes a `correct()` model — a faithful,
//! down-scaled transcription of the production protocol — plus one or
//! more `mutant_*()` variants that reintroduce a specific bug the real
//! implementation avoids. The test suite (`tests/protocols.rs`)
//! asserts the checker passes every correct model *exhaustively* and
//! produces a counterexample trace for every mutant: evidence the
//! models have teeth, not just that the checker says "ok".
//!
//! Models are deliberately tiny (2–3 threads, 1–2 operations each):
//! the state spaces stay exhaustively explorable in CI while still
//! containing every ordering the protocol's correctness argument has
//! to survive.

pub mod admission;
pub mod breaker;
pub mod gencell;
pub mod shard;
pub mod wal;
