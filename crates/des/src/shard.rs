//! Sharding support for splitting **one** replication across cores.
//!
//! A [`ShardPlan`] partitions a dense index space (node ids) into `K`
//! contiguous ranges. Contiguity is what makes the plan *spatial* for
//! the workloads this repo cares about: the massive grid numbers its
//! lattice row-major, so contiguous id ranges are horizontal tiles,
//! and the hidden star numbers its sources around the ring, so
//! contiguous ranges are hash-ring chunks. It is also what lets the
//! executor hand each shard a disjoint `&mut` slice of the world's
//! struct-of-arrays state (`split_at_mut` needs contiguity).
//!
//! The companion [`merge_by_pos`] fold is the subslot-boundary
//! barrier's exchange step: per-shard outboxes, each internally
//! ordered by the global bucket position, are folded back into one
//! globally ordered sequence — ascending `(shard, seq)` within a
//! shard, ascending global sequence across shards — so commit order
//! is independent of how many shards produced the entries.

/// A partition of `0..len` into `K` contiguous, near-equal ranges.
///
/// # Examples
///
/// ```
/// use qma_des::ShardPlan;
///
/// let plan = ShardPlan::contiguous(10, 4);
/// assert_eq!(plan.shards(), 4);
/// assert_eq!(plan.range(0), 0..3);
/// assert_eq!(plan.shard_of(9), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `shards + 1` ascending cut points; shard `s` owns
    /// `bounds[s]..bounds[s + 1]`.
    bounds: Vec<u32>,
}

impl ShardPlan {
    /// Splits `0..len` into `shards` contiguous ranges whose sizes
    /// differ by at most one (the first `len % shards` ranges get the
    /// extra element). `shards` is clamped to `1..=len.max(1)` — a
    /// shard count beyond the population would only produce empty
    /// shards.
    pub fn contiguous(len: usize, shards: usize) -> ShardPlan {
        let k = shards.clamp(1, len.max(1));
        let (base, extra) = (len / k, len % k);
        let mut bounds = Vec::with_capacity(k + 1);
        let mut at = 0usize;
        bounds.push(0);
        for s in 0..k {
            at += base + usize::from(s < extra);
            bounds.push(u32::try_from(at).expect("shard plan over u32 index space"));
        }
        debug_assert_eq!(at, len);
        ShardPlan { bounds }
    }

    /// Number of shards (≥ 1).
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of indices covered by the plan.
    pub fn len(&self) -> usize {
        *self.bounds.last().expect("bounds non-empty") as usize
    }

    /// `true` when the plan covers no indices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The contiguous index range owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s] as usize..self.bounds[s + 1] as usize
    }

    /// The shard owning index `i` — O(log K) over the cut points.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the plan.
    pub fn shard_of(&self, i: usize) -> usize {
        assert!(i < self.len(), "index {i} outside plan of {}", self.len());
        // partition_point returns the count of cut points ≤ i; the
        // leading 0 makes that `owning shard + 1`.
        self.bounds.partition_point(|&b| b as usize <= i) - 1
    }

    /// The cut points, `shards() + 1` ascending values starting at 0 —
    /// the raw form consumed by layers (e.g. the PHY's medium
    /// partition) that cannot depend on this crate's types.
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }
}

/// Folds per-shard outboxes into one globally ordered sequence.
///
/// Each outbox must already be sorted ascending by the `u32` position
/// key (shards process their slice of a boundary bucket in bucket
/// order, so this holds by construction); the fold is a K-way merge
/// that visits entries in ascending global position — i.e. in exactly
/// the order a single-shard run would have produced them. Outboxes
/// are drained but keep their allocations for the next barrier.
///
/// An outbox is anything that lends its `Vec` through [`AsMut`]: a
/// plain `Vec<(u32, T)>`, or a per-shard lane struct that keeps the
/// outbox next to the shard's other buffers.
pub fn merge_by_pos<L, T>(outboxes: &mut [L], mut apply: impl FnMut(u32, T))
where
    L: AsMut<Vec<(u32, T)>>,
{
    let mut lanes: Vec<_> = outboxes
        .iter_mut()
        .map(|outbox| outbox.as_mut().drain(..).peekable())
        .collect();
    loop {
        let mut best: Option<(u32, usize)> = None;
        for (s, lane) in lanes.iter_mut().enumerate() {
            if let Some(&(pos, _)) = lane.peek() {
                if best.is_none_or(|(bp, _)| pos < bp) {
                    best = Some((pos, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        let (pos, item) = lanes[s].next().expect("peeked lane is non-empty");
        apply(pos, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_plan_covers_exactly_once() {
        for (len, k) in [(10usize, 4usize), (7, 3), (5, 1), (3, 8), (0, 4), (64, 64)] {
            let plan = ShardPlan::contiguous(len, k);
            assert_eq!(plan.len(), len);
            assert!(plan.shards() >= 1);
            assert!(plan.shards() <= k.max(1));
            let mut seen = 0usize;
            for s in 0..plan.shards() {
                let range = plan.range(s);
                for i in range.clone() {
                    assert_eq!(plan.shard_of(i), s, "index {i} misattributed");
                }
                seen += range.len();
            }
            assert_eq!(seen, len, "partition must cover 0..{len} exactly once");
        }
    }

    #[test]
    fn contiguous_plan_is_balanced() {
        let plan = ShardPlan::contiguous(10, 4);
        let sizes: Vec<usize> = (0..4).map(|s| plan.range(s).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn shard_count_is_clamped_to_population() {
        let plan = ShardPlan::contiguous(3, 100);
        assert_eq!(plan.shards(), 3);
        assert_eq!(ShardPlan::contiguous(0, 4).shards(), 1);
    }

    #[test]
    fn bounds_expose_the_cut_points() {
        let plan = ShardPlan::contiguous(10, 2);
        assert_eq!(plan.bounds(), &[0, 5, 10]);
    }

    #[test]
    fn merge_by_pos_is_a_global_position_fold() {
        // Three outboxes, each sorted by position; the fold must visit
        // ascending global positions and drain every lane.
        let mut outboxes = vec![
            vec![(0u32, "a"), (4, "e"), (5, "f")],
            vec![(2, "c"), (6, "g")],
            vec![(1, "b"), (3, "d")],
        ];
        let mut seen = Vec::new();
        merge_by_pos(&mut outboxes, |pos, item| seen.push((pos, item)));
        assert_eq!(
            seen,
            (0u32..7)
                .zip(["a", "b", "c", "d", "e", "f", "g"])
                .collect::<Vec<_>>()
        );
        assert!(outboxes.iter().all(Vec::is_empty));
        // Allocations survive the drain for reuse at the next barrier.
        assert!(outboxes[0].capacity() >= 3);
    }

    #[test]
    fn merge_by_pos_handles_single_and_empty_lanes() {
        let mut outboxes: Vec<Vec<(u32, u8)>> = vec![vec![(7, 70)], vec![]];
        let mut seen = Vec::new();
        merge_by_pos(&mut outboxes, |pos, item| seen.push((pos, item)));
        assert_eq!(seen, vec![(7, 70)]);
        let mut none: Vec<Vec<(u32, u8)>> = Vec::new();
        merge_by_pos(&mut none, |_, _| panic!("nothing to merge"));
    }

    #[test]
    fn merge_by_pos_folds_lane_structs() {
        // A lane keeps its outbox next to other per-shard state; the
        // fold reaches the outbox through `AsMut` and leaves the rest.
        struct Lane {
            outbox: Vec<(u32, char)>,
            side: u8,
        }
        impl AsMut<Vec<(u32, char)>> for Lane {
            fn as_mut(&mut self) -> &mut Vec<(u32, char)> {
                &mut self.outbox
            }
        }
        let mut lanes = [
            Lane {
                outbox: vec![(1, 'b'), (2, 'c')],
                side: 7,
            },
            Lane {
                outbox: vec![(0, 'a')],
                side: 9,
            },
        ];
        let mut seen = String::new();
        merge_by_pos(&mut lanes, |_, c| seen.push(c));
        assert_eq!(seen, "abc");
        assert!(lanes.iter().all(|l| l.outbox.is_empty()));
        assert_eq!((lanes[0].side, lanes[1].side), (7, 9));
    }
}
