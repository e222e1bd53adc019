//! Vector distribution and the BSP cost metric of Table II.
//!
//! The paper defines the BSP (communication) cost as "the sum of the maximum
//! number of data words that are sent or received by a single processor
//! during the fan-in and fan-out phase". Computing it requires choosing an
//! owner for every input-vector entry `v_j` and every output-vector entry
//! `u_i`; like Mondriaan, we pick owners greedily among the processors that
//! already hold nonzeros of the corresponding column/row, balancing the
//! per-processor send/receive loads.

use crate::partition::NonzeroPartition;
use crate::{Coo, Idx, LineIndex};

/// Owner of each input (`v_j`, per column) and output (`u_i`, per row)
/// vector entry. Entries of empty columns/rows are owned by part 0 by
/// convention; they never cause communication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorDistribution {
    /// `input_owner[j]` owns `v_j`.
    pub input_owner: Vec<Idx>,
    /// `output_owner[i]` owns `u_i`.
    pub output_owner: Vec<Idx>,
}

/// Per-phase h-relations and their sum, in data words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BspCost {
    /// `max_q max(send_q, recv_q)` during the fan-out (input-vector) phase.
    pub fanout_h: u64,
    /// `max_q max(send_q, recv_q)` during the fan-in (partial-sum) phase.
    pub fanin_h: u64,
}

impl BspCost {
    /// The paper's Table II metric: fan-out plus fan-in h-relation.
    pub fn total(&self) -> u64 {
        self.fanout_h + self.fanin_h
    }
}

/// Collects, for each line (row or column), the distinct parts owning its
/// nonzeros. `lines[x]` is sorted by first-seen order; uses a stamp array so
/// the whole pass is `O(N + lines)`.
fn owners_per_line<L: IntoIterator<Item = usize>>(
    num_parts: Idx,
    lines: impl Iterator<Item = L>,
    partition: &NonzeroPartition,
) -> Vec<Vec<Idx>> {
    let mut stamp = vec![Idx::MAX; num_parts as usize];
    lines
        .zip(0..)
        .map(|(nonzero_ids, line)| {
            let mut owners = Vec::new();
            for k in nonzero_ids {
                let p = partition.part_of(k);
                if stamp[p as usize] != line {
                    stamp[p as usize] = line;
                    owners.push(p);
                }
            }
            owners
        })
        .collect()
}

/// Greedily assigns each vector entry to one of the parts owning nonzeros in
/// its line, processing lines with the largest `λ` first and picking the
/// candidate with the lightest current load.
///
/// `owner_load_weight` is the load the owner takes on for a line with `λ`
/// parts (λ−1 sends for fan-out, λ−1 receives for fan-in); every other owner
/// takes on one unit of the complementary direction.
fn greedy_assign(
    owners: &[Vec<Idx>],
    num_parts: Idx,
    owner_is_sender: bool,
) -> (Vec<Idx>, Vec<u64>, Vec<u64>) {
    let mut send = vec![0u64; num_parts as usize];
    let mut recv = vec![0u64; num_parts as usize];
    let mut owner_of = vec![0 as Idx; owners.len()];

    let mut order: Vec<usize> = (0..owners.len()).collect();
    order.sort_unstable_by_key(|&x| std::cmp::Reverse(owners[x].len()));

    for &line in &order {
        let cands = &owners[line];
        if cands.is_empty() {
            continue; // empty line: owner 0, no communication
        }
        let lambda = cands.len() as u64;
        // The owner pays (λ−1) in its direction; pick the candidate whose
        // resulting maximum load is smallest.
        let best = *cands
            .iter()
            .min_by_key(|&&q| {
                let (s, r) = (send[q as usize], recv[q as usize]);
                let (s, r) = if owner_is_sender {
                    (s + lambda - 1, r)
                } else {
                    (s, r + lambda - 1)
                };
                (s.max(r), s + r)
            })
            .expect("non-empty candidate list");
        owner_of[line] = best;
        for &q in cands {
            if q == best {
                if owner_is_sender {
                    send[q as usize] += lambda - 1;
                } else {
                    recv[q as usize] += lambda - 1;
                }
            } else if owner_is_sender {
                recv[q as usize] += 1;
            } else {
                send[q as usize] += 1;
            }
        }
    }
    (owner_of, send, recv)
}

/// Builds a greedy vector distribution for a partitioned matrix.
pub fn distribute_vectors(a: &Coo, partition: &NonzeroPartition) -> VectorDistribution {
    distribute(a, &LineIndex::new(a), partition)
}

/// [`distribute_vectors`] over the caller's index of `a`.
fn distribute(a: &Coo, index: &LineIndex, partition: &NonzeroPartition) -> VectorDistribution {
    let p = partition.num_parts();
    let row_owners = owners_per_line(
        p,
        (0..a.rows()).map(|i| index.row_nonzero_ids(i)),
        partition,
    );
    let col_owners = owners_per_line(
        p,
        (0..a.cols()).map(|j| index.col_nonzero_ids(j).iter().map(|&k| k as usize)),
        partition,
    );

    let (input_owner, _, _) = greedy_assign(&col_owners, p, true);
    let (output_owner, _, _) = greedy_assign(&row_owners, p, false);
    VectorDistribution {
        input_owner,
        output_owner,
    }
}

/// Computes the BSP cost (per-phase h-relations) of a partitioned matrix
/// under the greedy vector distribution.
pub fn bsp_cost(a: &Coo, partition: &NonzeroPartition) -> BspCost {
    bsp_cost_with(a, partition, None)
}

/// BSP cost under a caller-provided vector distribution (owners must own
/// nonzeros of their line whenever the line is non-empty).
pub fn bsp_cost_with(
    a: &Coo,
    partition: &NonzeroPartition,
    distribution: Option<&VectorDistribution>,
) -> BspCost {
    let p = partition.num_parts();
    let index = LineIndex::new(a);

    let owned;
    let dist = match distribution {
        Some(d) => d,
        None => {
            owned = distribute(a, &index, partition);
            &owned
        }
    };
    assert_eq!(dist.input_owner.len(), a.cols() as usize);
    assert_eq!(dist.output_owner.len(), a.rows() as usize);

    let mut send = vec![0u64; p as usize];
    let mut recv = vec![0u64; p as usize];
    let mut stamp = vec![Idx::MAX; p as usize];

    // Fan-out: the owner of v_j sends one word to every other part that has
    // nonzeros in column j.
    for j in 0..a.cols() {
        let owner = dist.input_owner[j as usize];
        for &k in index.col_nonzero_ids(j) {
            let q = partition.part_of(k as usize);
            if stamp[q as usize] != j {
                stamp[q as usize] = j;
                if q != owner {
                    send[owner as usize] += 1;
                    recv[q as usize] += 1;
                }
            }
        }
    }
    let fanout_h = send
        .iter()
        .zip(&recv)
        .map(|(&s, &r)| s.max(r))
        .max()
        .unwrap_or(0);

    // Fan-in: every part holding nonzeros of row i (except the owner of u_i)
    // sends its partial sum to that owner.
    send.iter_mut().for_each(|s| *s = 0);
    recv.iter_mut().for_each(|r| *r = 0);
    stamp.iter_mut().for_each(|s| *s = Idx::MAX);
    for i in 0..a.rows() {
        let owner = dist.output_owner[i as usize];
        for k in index.row_nonzero_ids(i) {
            let q = partition.part_of(k);
            if stamp[q as usize] != i {
                stamp[q as usize] = i;
                if q != owner {
                    send[q as usize] += 1;
                    recv[owner as usize] += 1;
                }
            }
        }
    }
    let fanin_h = send
        .iter()
        .zip(&recv)
        .map(|(&s, &r)| s.max(r))
        .max()
        .unwrap_or(0);

    BspCost { fanout_h, fanin_h }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::communication_volume;

    fn dense(n: Idx) -> Coo {
        let entries: Vec<(Idx, Idx)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
        Coo::new(n, n, entries).unwrap()
    }

    #[test]
    fn single_part_has_zero_cost() {
        let a = dense(4);
        let p = NonzeroPartition::trivial(a.nnz());
        let cost = bsp_cost(&a, &p);
        assert_eq!(cost.total(), 0);
    }

    #[test]
    fn owners_are_actual_owners() {
        let a = dense(4);
        let parts: Vec<Idx> = a.iter().map(|(i, _)| if i < 2 { 0 } else { 1 }).collect();
        let p = NonzeroPartition::new(2, parts).unwrap();
        let d = distribute_vectors(&a, &p);
        // Row split: every column has both parts, rows have one.
        for i in 0..4u32 {
            let expect = if i < 2 { 0 } else { 1 };
            assert_eq!(d.output_owner[i as usize], expect);
        }
        for j in 0..4u32 {
            assert!(d.input_owner[j as usize] < 2);
        }
    }

    #[test]
    fn row_split_fanout_balances() {
        // Dense 4x4 split by rows: volume = 4 columns × 1 = 4. Each column's
        // v_j owner sends one word; greedy spreads owners 2/2, so each part
        // sends 2 and receives 2: fanout_h = 2, fanin_h = 0.
        let a = dense(4);
        let parts: Vec<Idx> = a.iter().map(|(i, _)| if i < 2 { 0 } else { 1 }).collect();
        let p = NonzeroPartition::new(2, parts).unwrap();
        assert_eq!(communication_volume(&a, &p), 4);
        let cost = bsp_cost(&a, &p);
        assert_eq!(cost.fanin_h, 0);
        assert_eq!(cost.fanout_h, 2);
        assert_eq!(cost.total(), 2);
    }

    #[test]
    fn h_relation_bounded_by_volume() {
        let a = dense(5);
        let parts: Vec<Idx> = a.iter().map(|(i, j)| (i + j) % 2).collect();
        let p = NonzeroPartition::new(2, parts).unwrap();
        let v = communication_volume(&a, &p);
        let cost = bsp_cost(&a, &p);
        assert!(cost.total() <= v);
        assert!(cost.total() > 0);
    }

    #[test]
    fn empty_lines_ignored() {
        let a = Coo::new(3, 3, vec![(0, 0), (0, 2)]).unwrap();
        let parts = vec![0, 1];
        let p = NonzeroPartition::new(2, parts).unwrap();
        let cost = bsp_cost(&a, &p);
        // Row 0 is cut (volume 1); columns are singletons.
        assert_eq!(cost.fanin_h, 1);
        assert_eq!(cost.fanout_h, 0);
    }
}
