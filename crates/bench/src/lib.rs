//! Experiment harness regenerating the paper's evaluation figures.
//!
//! Each module implements one experiment as a pure function from a config
//! to a structured result; the `src/bin/*` binaries print the paper-style
//! tables. See `EXPERIMENTS.md` at the repository root for paper-vs-measured records.
//!
//! | experiment | module | binary |
//! |---|---|---|
//! | Fig. 6 — classifier × feature F1 matrix | [`classification`] | `fig6` |
//! | Fig. 7 — per-category F1 of SVM + CNN | [`classification`] | `fig7` |
//! | Fig. 8 — edge inference latency grid | [`edge_inference`] | `fig8` |
//! | Fig. 9 — translational scenario | [`translational_exp`] | `fig9` |
//! | §III — iterative coverage campaign | [`coverage_exp`] | `coverage_campaign` |
//! | §VI — crowd-based learning ablation | [`edge_learning_exp`] | `edge_learning` |
//! | ref [23] — scene localization | [`localization_exp`] | `localization` |
//! | `BENCH_*.json` harness: exit-on-failure, percentile, header, acceptance | [`report`] | `load_harness`, `ingest_throughput`, `query_planner`, `edge_goodput` |

pub mod classification;
pub mod coverage_exp;
pub mod edge_inference;
pub mod edge_learning_exp;
pub mod localization_exp;
pub mod report;
pub mod translational_exp;

pub use classification::{run_fig6, run_fig7, ClassificationConfig, Fig6Result, Fig7Result};
pub use coverage_exp::{run_coverage, CoverageConfig, CoverageResult};
pub use edge_inference::{run_fig8, Fig8Config, Fig8Result};
pub use edge_learning_exp::{run_edge_learning, EdgeLearningConfig, EdgeLearningResult};
pub use localization_exp::{run_localization, LocalizationConfig, LocalizationResult};
pub use translational_exp::{run_fig9, Fig9Config, Fig9Result};
