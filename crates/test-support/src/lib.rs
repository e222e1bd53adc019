//! # mg-test-support — shared deterministic test workloads
//!
//! Every integration test in the workspace needs the same three
//! things: a seeded RNG stream, representative fixture matrices, and
//! proptest strategies for arbitrary matrices/hypergraphs. Before this crate
//! they were copy-pasted per test file with drifting parameters; now they
//! live here and are consumed as a dev-dependency, so new PRs get
//! deterministic workloads for free.

pub mod fixtures;
pub mod strategies;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The workspace-wide convention for deterministic test RNGs.
///
/// A thin wrapper over `StdRng::seed_from_u64`, named so test code reads as
/// intent ("give me the seeded stream") rather than mechanism.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
