//! Fiduccia–Mattheyses refinement with gain buckets and best-prefix
//! rollback.
//!
//! This is the refinement engine of both the multilevel driver and the
//! paper's Algorithm 2 (which calls it directly on the hypergraph of `B`).
//! One *pass* tentatively moves vertices one at a time — always the highest
//! gain move that keeps the balance admissible — locking each moved vertex,
//! then rolls back to the best prefix. Passes repeat until no improvement
//! (or a configured cap).
//!
//! Balance handling: a move is admissible if the destination stays within
//! its budget *or* the move strictly reduces the total overweight, so a
//! run started from an infeasible partition steers itself back to
//! feasibility (this matters for medium-grain hypergraphs whose vertices
//! are whole row/column groups with large weights).

use crate::gainbucket::GainBuckets;
use crate::Idx;
use mg_hypergraph::{Hypergraph, VertexBipartition};

/// Candidates inspected per side when the head of a bucket is infeasible.
const SCAN_CAP: usize = 128;

/// Budgets and effort limits for an FM run.
#[derive(Debug, Clone)]
pub struct FmLimits {
    /// Maximum vertex weight allowed in each part (eqn (1) on this level).
    pub budget: [u64; 2],
    /// Maximum number of passes (each pass is a full tentative sequence).
    pub max_passes: u32,
    /// Abort a pass after this many consecutive moves without a new best
    /// prefix; 0 disables.
    pub stall_limit: u32,
    /// Boundary mode (PaToH-style): seed the gain buckets only with
    /// vertices touching a cut net; interior vertices enter lazily when a
    /// neighbouring net becomes cut. Much faster on mostly-clean
    /// partitions, identical quality in practice (interior vertices have
    /// non-positive gain).
    pub boundary_only: bool,
}

impl FmLimits {
    /// Limits with the given budgets and conventional effort settings.
    pub fn new(budget: [u64; 2]) -> Self {
        FmLimits {
            budget,
            max_passes: 8,
            stall_limit: 2000,
            boundary_only: false,
        }
    }
}

/// Total overweight of the two parts relative to the budgets.
#[inline]
fn violation(bp: &VertexBipartition, budget: &[u64; 2]) -> u64 {
    bp.part_weight(0).saturating_sub(budget[0]) + bp.part_weight(1).saturating_sub(budget[1])
}

/// Largest possible |gain| of any single vertex: used to size the buckets.
fn gain_range(h: &Hypergraph) -> i64 {
    let mut best = 0u64;
    for v in 0..h.num_vertices() {
        let sum: u64 = h.vertex_nets(v).iter().map(|&n| h.net_weight(n)).sum();
        best = best.max(sum);
    }
    best.min(i64::MAX as u64 >> 2) as i64
}

/// Reusable FM working memory: gain buckets, lock flags, the move log
/// and the lazy-admission queue. One instance serves every pass of every
/// level of a multilevel run — the buckets are `reset` (not reallocated)
/// per pass, which removes the dominant allocation cost of small passes.
#[derive(Debug, Default)]
pub struct FmScratch {
    buckets: Option<[GainBuckets; 2]>,
    locked: Vec<bool>,
    moves: Vec<Idx>,
    pending: Vec<Idx>,
    seed_gain: Vec<i64>,
    seed_boundary: Vec<bool>,
    /// Gain updates of the current move's "after" rules, held back until
    /// every "before" rule has been applied (see
    /// [`move_and_update_gains`]).
    after: Vec<(Idx, i64)>,
}

impl FmScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        FmScratch::default()
    }
}

/// Runs FM passes on `bp` in place. Returns the total cut decrease
/// (negative only if cut was sacrificed to repair an infeasible balance).
pub fn fm_refine(h: &Hypergraph, bp: &mut VertexBipartition, limits: &FmLimits) -> i64 {
    fm_refine_with_scratch(h, bp, limits, &mut FmScratch::new())
}

/// [`fm_refine`] with caller-owned working memory — the scratch-reuse
/// entry point for loops that refine many partitions (multilevel
/// uncoarsening, initial-partition candidate polish, IR sweeps).
pub fn fm_refine_with_scratch(
    h: &Hypergraph,
    bp: &mut VertexBipartition,
    limits: &FmLimits,
    scratch: &mut FmScratch,
) -> i64 {
    // Invariant across passes: the hypergraph is fixed, so the bucket
    // range and the balance slack are too — hoist them out of the pass.
    let range = gain_range(h);
    let slack = (0..h.num_vertices())
        .map(|v| h.vertex_weight(v))
        .max()
        .unwrap_or(0);
    let mut total_gain = 0i64;
    for _ in 0..limits.max_passes {
        let (pass_gain, improved) = fm_pass(h, bp, limits, range, slack, scratch);
        total_gain += pass_gain;
        if !improved {
            break;
        }
    }
    total_gain
}

/// One FM pass. Returns `(realised gain, whether the pass found a strictly
/// better state)` — "better" meaning lower (violation, −cut) key.
///
/// Tentative moves may exceed a budget by up to one maximum vertex weight
/// (the classic FM balance rule); the best-prefix selection enforces
/// the true budgets, so the *returned* state never ends up worse than the
/// start.
fn fm_pass(
    h: &Hypergraph,
    bp: &mut VertexBipartition,
    limits: &FmLimits,
    range: i64,
    slack: u64,
    scratch: &mut FmScratch,
) -> (i64, bool) {
    let n = h.num_vertices() as usize;
    if n == 0 {
        return (0, false);
    }
    let buckets = match &mut scratch.buckets {
        Some(buckets) => {
            buckets[0].reset(n, range);
            buckets[1].reset(n, range);
            buckets
        }
        slot => slot.insert([GainBuckets::new(n, range), GainBuckets::new(n, range)]),
    };
    // Seed gains net-major: each net looks up its weight and pin counts
    // once and streams a per-side delta over its pins, instead of every
    // pin re-deriving them vertex-major (three indexed loads per pin).
    // The accumulated sums are the same i64 additions in a different
    // order, and bucket insertion stays the ascending-vertex loop below,
    // so seeding is bit-for-bit identical to the per-vertex scan.
    scratch.seed_gain.clear();
    scratch.seed_gain.resize(n, 0);
    scratch.seed_boundary.clear();
    scratch.seed_boundary.resize(n, false);
    for net in 0..h.num_nets() {
        let z0 = bp.pins_in(net, 0);
        let z1 = bp.pins_in(net, 1);
        if z0 + z1 < 2 {
            continue; // a single-pin net can never be cut or uncut
        }
        let w = h.net_weight(net) as i64;
        // A side-s pin gains +w when it is the lone s pin (moving it
        // uncuts the net) and −w when the net is pure on s (moving it
        // cuts the net); z0 == 1 and z1 == 0 exclude each other at
        // size ≥ 2, so the sum is the classic FM seed gain. Indexing the
        // pair by side keeps the pin loop free of an unpredictable
        // branch on the pin's side.
        let delta = [
            if z0 == 1 { w } else { 0 } + if z1 == 0 { -w } else { 0 },
            if z1 == 1 { w } else { 0 } + if z0 == 0 { -w } else { 0 },
        ];
        let cut = z0 > 0 && z1 > 0;
        for &u in h.net_pins(net) {
            let ui = u as usize;
            scratch.seed_gain[ui] += delta[bp.side(u) as usize];
            scratch.seed_boundary[ui] |= cut;
        }
    }
    for v in 0..h.num_vertices() {
        if limits.boundary_only && !scratch.seed_boundary[v as usize] {
            continue;
        }
        buckets[bp.side(v) as usize].insert(v, scratch.seed_gain[v as usize]);
    }
    scratch.locked.clear();
    scratch.locked.resize(n, false);
    scratch.moves.clear();
    scratch.pending.clear();
    let locked = &mut scratch.locked;
    let moves = &mut scratch.moves;
    let pending = &mut scratch.pending;
    let after = &mut scratch.after;

    let start_violation = violation(bp, &limits.budget);
    // Minimised key: (violation, -cumulative_gain). The empty prefix is the
    // baseline; only strictly better prefixes are kept.
    let mut best_key = (start_violation, 0i64);
    let mut best_len = 0usize;
    let mut cumulative = 0i64;
    let mut since_best = 0u32;

    loop {
        // Candidate per side: best-gain vertex whose move is admissible.
        // No move happens between the two side scans, so the current
        // violation is one computation, not one per side.
        let cur_violation = violation(bp, &limits.budget);
        let mut chosen: Option<(Idx, u8, i64)> = None;
        for from in 0..2u8 {
            let to = 1 - from;
            let to_weight = bp.part_weight(to);
            let budget = limits.budget;
            let candidate = buckets[from as usize].best_where(
                |v| {
                    let w = h.vertex_weight(v);
                    let new_to = to_weight + w;
                    if new_to <= budget[to as usize] + slack {
                        return true;
                    }
                    // Admit balance-repairing moves from an overweight part.
                    let new_violation = new_to.saturating_sub(budget[to as usize])
                        + bp.part_weight(from)
                            .saturating_sub(w)
                            .saturating_sub(budget[from as usize]);
                    new_violation < cur_violation
                },
                SCAN_CAP,
            );
            if let Some(v) = candidate {
                let g = buckets[from as usize].gain_of(v);
                let better = match chosen {
                    None => true,
                    Some((_, cf, cg)) => {
                        g > cg || (g == cg && bp.part_weight(from) > bp.part_weight(cf))
                    }
                };
                if better {
                    chosen = Some((v, from, g));
                }
            }
        }
        let Some((v, from, _)) = chosen else { break };

        buckets[from as usize].remove(v);
        locked[v as usize] = true;
        let realised = move_and_update_gains(h, bp, v, locked, buckets, pending, after);
        // Lazily admit vertices that just became boundary (only possible in
        // boundary mode); their gain is computed fresh from the post-move
        // state, so no delta bookkeeping is needed.
        for &u in pending.iter() {
            if !locked[u as usize] && !buckets[bp.side(u) as usize].contains(u) {
                buckets[bp.side(u) as usize].insert(u, bp.gain(h, u));
            }
        }
        pending.clear();

        cumulative += realised;
        moves.push(v);
        let key = (violation(bp, &limits.budget), -cumulative);
        if key < best_key {
            best_key = key;
            best_len = moves.len();
            since_best = 0;
        } else {
            since_best += 1;
            if limits.stall_limit > 0 && since_best >= limits.stall_limit {
                break;
            }
        }
    }

    // Roll back to the best prefix.
    let mut rolled_back = 0i64;
    for &v in moves[best_len..].iter().rev() {
        rolled_back += bp.move_vertex(h, v);
    }
    debug_assert!(bp.validate(h).is_ok());
    let improved = best_len > 0;
    (cumulative + rolled_back, improved)
}

/// Adjusts the stored gain of `u` if it is in a bucket; otherwise (lazy
/// boundary mode) queues it for fresh insertion after the move.
#[inline]
fn adjust_or_queue(
    buckets: &mut [GainBuckets; 2],
    pending: &mut Vec<Idx>,
    side: u8,
    u: Idx,
    delta: i64,
) {
    if buckets[side as usize].contains(u) {
        buckets[side as usize].adjust(u, delta);
    } else {
        pending.push(u);
    }
}

/// Moves `v` and applies the FM gain-update rules to its free neighbours
/// in one sweep over `v`'s nets. Returns the realised gain.
///
/// The rules come in two groups: the *before* rules (critical nets on the
/// destination side, judged on the pre-move counts) and the *after* rules
/// (critical nets on the source side, judged on the post-move counts).
/// The classic formulation walks `v`'s nets once per group, with the move
/// itself in between; here the move reports each net's pre-move count,
/// which determines both states. Before-rule updates are applied as the
/// sweep goes and after-rule updates are queued in `after` and applied
/// once it ends, so the bucket operations happen in exactly the two-walk
/// order — LIFO positions inside the gain buckets, and with them every
/// later tie-break, are unchanged.
#[inline]
fn move_and_update_gains(
    h: &Hypergraph,
    bp: &mut VertexBipartition,
    v: Idx,
    locked: &[bool],
    buckets: &mut [GainBuckets; 2],
    pending: &mut Vec<Idx>,
    after: &mut Vec<(Idx, i64)>,
) -> i64 {
    let from = bp.side(v);
    let to = 1 - from;
    after.clear();
    let realised = bp.move_vertex_with(h, v, |net, in_from, size, sides| {
        if size < 2 {
            return;
        }
        let w = h.net_weight(net) as i64;
        let in_to = size - in_from;
        // Before: the net was pure on `from` and becomes cut, so every
        // other free pin gains w (its move would now uncut or keep
        // status) ...
        if in_to == 0 {
            for &u in h.net_pins(net) {
                if u != v && !locked[u as usize] {
                    adjust_or_queue(buckets, pending, sides[u as usize], u, w);
                }
            }
        } else if in_to == 1 {
            // ... or the lone destination-side pin was the uncutting move,
            // and after v arrives it no longer is.
            for &u in h.net_pins(net) {
                if sides[u as usize] == to {
                    if !locked[u as usize] {
                        adjust_or_queue(buckets, pending, to, u, -w);
                    }
                    break;
                }
            }
        }
        // After: v was the last source-side pin, so the net is pure on the
        // destination and moving any pin would cut it again ...
        if in_from == 1 {
            for &u in h.net_pins(net) {
                if u != v && !locked[u as usize] {
                    after.push((u, -w));
                }
            }
        } else if in_from == 2 {
            // ... or a single source-side pin remains: its move now uncuts.
            for &u in h.net_pins(net) {
                if u != v && sides[u as usize] == from {
                    if !locked[u as usize] {
                        after.push((u, w));
                    }
                    break;
                }
            }
        }
    });
    for &(u, delta) in after.iter() {
        adjust_or_queue(buckets, pending, bp.side(u), u, delta);
    }
    realised
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_hypergraph::HypergraphBuilder;

    /// Two cliques joined by one bridge net: FM must find the obvious
    /// bisection regardless of the (bad) initial state.
    fn two_cliques() -> Hypergraph {
        let mut b = HypergraphBuilder::new(vec![1; 8]);
        // Clique nets within {0..3} and {4..7} (pairwise 2-pin nets).
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_net(1, [i, j]);
                b.add_net(1, [i + 4, j + 4]);
            }
        }
        b.add_net(1, [3, 4]); // bridge
        b.build()
    }

    #[test]
    fn finds_the_natural_bisection() {
        let h = two_cliques();
        // Interleaved start: heavily cut.
        let sides: Vec<u8> = (0..8).map(|v| (v % 2) as u8).collect();
        let mut bp = VertexBipartition::new(&h, sides);
        let initial_cut = bp.cut_weight();
        let limits = FmLimits::new([4, 4]);
        let gain = fm_refine(&h, &mut bp, &limits);
        assert_eq!(bp.cut_weight(), 1, "only the bridge should be cut");
        assert_eq!(gain as u64, initial_cut - 1);
        assert_eq!(bp.part_weight(0), 4);
        assert_eq!(bp.part_weight(1), 4);
    }

    #[test]
    fn never_violates_budget_from_feasible_start() {
        let h = two_cliques();
        let sides: Vec<u8> = (0..8).map(|v| (v % 2) as u8).collect();
        let mut bp = VertexBipartition::new(&h, sides);
        let limits = FmLimits::new([5, 5]);
        fm_refine(&h, &mut bp, &limits);
        assert!(bp.part_weight(0) <= 5);
        assert!(bp.part_weight(1) <= 5);
    }

    #[test]
    fn repairs_infeasible_start() {
        let h = two_cliques();
        // Everything on side 0: infeasible for budget [5, 5].
        let mut bp = VertexBipartition::new(&h, vec![0; 8]);
        let limits = FmLimits::new([5, 5]);
        fm_refine(&h, &mut bp, &limits);
        assert!(bp.part_weight(0) <= 5, "left {}", bp.part_weight(0));
        assert!(bp.part_weight(1) <= 5, "right {}", bp.part_weight(1));
    }

    #[test]
    fn cut_never_increases_from_feasible_start() {
        // Random-ish hypergraph; FM must be monotone from feasible starts.
        let mut b = HypergraphBuilder::new(vec![1; 12]);
        for i in 0..12u32 {
            b.add_net(1 + (i as u64 % 3), [i, (i * 5 + 1) % 12, (i * 7 + 3) % 12]);
        }
        let h = b.build();
        for seed in 0..10u32 {
            let sides: Vec<u8> = (0..12).map(|v| ((v * 7 + seed) % 3 == 0) as u8).collect();
            let mut bp = VertexBipartition::new(&h, sides);
            let before = bp.cut_weight();
            let limits = FmLimits::new([8, 8]);
            fm_refine(&h, &mut bp, &limits);
            assert!(bp.cut_weight() <= before, "seed {seed}");
            bp.validate(&h).unwrap();
        }
    }

    #[test]
    fn weighted_vertices_respect_budget() {
        let mut b = HypergraphBuilder::new(vec![5, 1, 1, 1]);
        b.add_net(10, [0, 1]);
        b.add_net(1, [1, 2]);
        b.add_net(1, [2, 3]);
        let h = b.build();
        // Start: 0|123 — cut = 10. Moving 1 to side 0 would uncut the heavy
        // net but budget forbids weight 6 on side 0 with budget 5.
        let mut bp = VertexBipartition::new(&h, vec![0, 1, 1, 1]);
        let limits = FmLimits::new([5, 5]);
        fm_refine(&h, &mut bp, &limits);
        assert!(bp.part_weight(0) <= 5);
        assert!(bp.part_weight(1) <= 5);
        // Vertices 0 (weight 5) and 1 can never share a side under budget
        // 5, so the heavy net stays cut and the start is already optimal;
        // FM must not make it worse or break balance chasing the heavy net.
        assert_eq!(bp.cut_weight(), 10);
    }

    #[test]
    fn empty_hypergraph_is_a_noop() {
        let h = HypergraphBuilder::new(vec![]).build();
        let mut bp = VertexBipartition::new(&h, vec![]);
        let limits = FmLimits::new([0, 0]);
        assert_eq!(fm_refine(&h, &mut bp, &limits), 0);
    }

    #[test]
    fn single_pass_limit_is_respected_and_monotone() {
        let h = two_cliques();
        let sides: Vec<u8> = (0..8).map(|v| (v % 2) as u8).collect();
        let mut bp = VertexBipartition::new(&h, sides);
        let before = bp.cut_weight();
        let mut limits = FmLimits::new([4, 4]);
        limits.max_passes = 1;
        fm_refine(&h, &mut bp, &limits);
        assert!(bp.cut_weight() <= before);
    }
}
