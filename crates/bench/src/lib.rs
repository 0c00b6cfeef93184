//! # bench — the evaluation harness
//!
//! One module per experiment of `EXPERIMENTS.md`, each regenerating one
//! table, figure or §3 evaluation criterion of the paper:
//!
//! | module | paper artefact |
//! |---|---|
//! | [`e1_mapping`] | Table 1 (JCF-FMCAD mapping) + master/slave ablation |
//! | [`e2_e3_schemas`] | Figures 1 and 2 (information architectures) |
//! | [`e4_concurrency`] | §3.1 multi-user design and concurrency control |
//! | [`e5_consistency`] | §3.2 design management and data consistency |
//! | [`e6_hierarchy`] | §3.3 handling of design hierarchies |
//! | [`e7_ui`] | §3.4 user interface |
//! | [`e8_flow`] | §3.5 flow management and derivation relations |
//! | [`e9_performance`] | §3.6 performance |
//! | [`e10_throughput`] | host wall-clock of the zero-copy blob layer |
//! | [`e11_faults`] | crash-point matrix of the persistence protocol |
//! | [`e12_sessions`] | concurrent session throughput of the service layer |
//! | [`e13_publish`] | O(Δ) snapshot publication of the persistent CoW store |
//! | [`e14_shards`] | write-path scaling of the partitioned (sharded) service |
//! | [`e15_durability`] | incremental O(Δ) durability: delta checkpoints, warm restarts |
//! | [`e16_net`] | wire-protocol front-end under 1000 concurrent TCP clients |
//! | [`e17_history`] | time-travel history layer: retained snapshots, merges |
//! | [`e18_fml`] | compiled extension-language fast path (bytecode VM vs tree-walker) |
//! | [`e19_retention`] | O(Δ) history retention: write cost under retained snapshots |
//!
//! The `report` binary prints every experiment
//! (`cargo run -p bench --bin report`); the Criterion benches in
//! `benches/` time the runner functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e10_throughput;
pub mod e11_faults;
pub mod e12_sessions;
pub mod e13_publish;
pub mod e14_shards;
pub mod e15_durability;
pub mod e16_net;
pub mod e17_history;
pub mod e18_fml;
pub mod e19_retention;
pub mod e1_mapping;
pub mod e2_e3_schemas;
pub mod e4_concurrency;
pub mod e5_consistency;
pub mod e6_hierarchy;
pub mod e7_ui;
pub mod e8_flow;
pub mod e9_performance;
pub mod workload;
