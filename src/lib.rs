//! # ecfd — Eventually Consistent Failure Detectors
//!
//! A complete, executable reproduction of *"Eventually consistent failure
//! detectors"* (M. Larrea, A. Fernández, S. Arévalo): the ◇C failure
//! detector class, its relationships to ◇P/◇S/◇W/Ω, the ◇C→◇P
//! transformation under partial synchrony (Fig. 2 / Theorem 1), and the
//! leader-based Uniform Consensus algorithm (Figs. 3–4 / Theorem 2) with
//! the Chandra–Toueg and Mostefaoui–Raynal baselines it is compared
//! against in §5.4.
//!
//! This crate is an umbrella: it re-exports the workspace members and a
//! [`prelude`]. A complete consensus run in a dozen lines:
//!
//! ```
//! use ecfd::prelude::*;
//!
//! let n = 5;
//! let scenario = Scenario {
//!     seed: 42,
//!     crashes: vec![(ProcessId(3), Time::from_millis(25))],
//!     proposals: vec![700, 701, 702, 703, 704],
//!     horizon: Time::from_secs(10),
//! };
//! let result = run_scenario(default_net(n), &scenario, ec_node_hb);
//! assert!(result.all_decided);
//! ConsensusRun::new(&result.trace, n).check_all().unwrap();
//! assert_eq!(result.max_decision_round(), Some(1));
//! ```
//!
//! More in `examples/` — start with `cargo run --example quickstart`.
//!
//! ## Workspace map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event simulator (processes, links, crashes, traces) |
//! | [`core`] | process sets, detector classes, query traits, property checkers |
//! | [`detectors`] | heartbeat ◇P, ring ◇S, candidate Ω/◇C, ◇C→◇P, ◇W→◇S, fused stack |
//! | [`broadcast`] | Reliable / Uniform Reliable Broadcast |
//! | [`consensus`] | ◇C consensus + CT ◇S + MR Ω protocols, nodes, scenario harness |
//! | [`campaign`] | parallel seed sweeps, property monitors, repro artifacts, shrinking |
//! | [`chaos`] | declarative fault schedules (partitions, churn, mangling) compiled to kernel interventions |
//! | [`kv`] | durable replicated KV service on the consensus log: WAL, snapshots, crash catch-up |
//! | [`obs`] | counters/gauges/histograms, scoped spans, JSONL metrics export |
//! | [`bench`] | experiment harness regenerating the paper's tables (incl. campaign scenarios) |
//! | [`mc`] | bounded exhaustive schedule exploration (model checking) with replayable witnesses |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fd_bench as bench;
pub use fd_broadcast as broadcast;
pub use fd_campaign as campaign;
pub use fd_chaos as chaos;
pub use fd_consensus as consensus;
pub use fd_core as core;
pub use fd_detectors as detectors;
pub use fd_kv as kv;
pub use fd_mc as mc;
pub use fd_obs as obs;
pub use fd_sim as sim;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use fd_campaign::{Campaign, CampaignReport, RunPlan};
    pub use fd_consensus::{
        ct_node_hb, default_net, ec_node_hb, ec_node_leader, mr_node_leader, run_scenario,
        scripted_node, ConsensusConfig, ConsensusNode, CtConsensus, EcConsensus, MrConsensus,
        RoundProtocol, RunResult, Scenario,
    };
    pub use fd_core::prelude::*;
    pub use fd_detectors::prelude::*;
    pub use fd_sim::prelude::*;
}
