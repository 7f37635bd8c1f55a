//! Cone-of-influence computation.

use crate::{Aig, AigLit, Node, NodeId};

/// The cone of influence of a set of root edges.
///
/// Computed either combinationally (stopping at latches and inputs) or
/// sequentially (following latch next-state functions to a fixpoint).
/// Used by the benchmark generators and by structural statistics; also
/// the basis of the "similar cones" discussion in the related-work
/// section of the paper.
///
/// Membership is a bitset over node ids and the node count is cached
/// when the cone is built, so [`Cone::size`] is O(1) and
/// [`Cone::overlap`] a popcount over `num_nodes / 64` words — property
/// clustering scores every property pair with them.
#[derive(Clone, Debug)]
pub struct Cone {
    /// Bit `i % 64` of word `i / 64` is set iff node `i` is in the cone.
    bits: Vec<u64>,
    size: usize,
    num_latches: usize,
    num_inputs: usize,
}

impl Cone {
    /// Combinational cone: transitive fanin of `roots` up to inputs and
    /// latch outputs.
    pub fn combinational<I: IntoIterator<Item = AigLit>>(aig: &Aig, roots: I) -> Self {
        Self::compute(aig, roots, false)
    }

    /// Sequential cone: like combinational, but latches pull in their
    /// next-state cones until a fixpoint is reached.
    pub fn sequential<I: IntoIterator<Item = AigLit>>(aig: &Aig, roots: I) -> Self {
        Self::compute(aig, roots, true)
    }

    fn compute<I: IntoIterator<Item = AigLit>>(aig: &Aig, roots: I, through_latches: bool) -> Self {
        let mut bits = vec![0u64; aig.num_nodes().div_ceil(64)];
        let mut stack: Vec<NodeId> = roots.into_iter().map(AigLit::node).collect();
        let mut size = 0;
        let mut num_latches = 0;
        let mut num_inputs = 0;
        while let Some(id) = stack.pop() {
            let (word, mask) = (id.index() / 64, 1u64 << (id.index() % 64));
            if bits[word] & mask != 0 {
                continue;
            }
            bits[word] |= mask;
            size += 1;
            match aig.node(id) {
                Node::False => {}
                Node::Input(_) => num_inputs += 1,
                Node::Latch(k) => {
                    num_latches += 1;
                    if through_latches {
                        stack.push(aig.latches()[k as usize].next.node());
                    }
                }
                Node::And(a, b) => {
                    stack.push(a.node());
                    stack.push(b.node());
                }
            }
        }
        Cone {
            bits,
            size,
            num_latches,
            num_inputs,
        }
    }

    /// Whether `id` lies in the cone.
    pub fn contains(&self, id: NodeId) -> bool {
        self.bits
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// Number of latches in the cone.
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }

    /// Number of inputs in the cone.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Total number of nodes in the cone.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of nodes lying in both this cone and `other`.
    ///
    /// Both cones must be computed over the same graph (they then have
    /// the same node-id space); the count is the size of the structural
    /// intersection, the raw ingredient of the shared-logic affinity
    /// signal used by property clustering.
    ///
    /// # Examples
    ///
    /// ```
    /// use japrove_aig::{Aig, Cone};
    /// let mut g = Aig::new();
    /// let a = g.add_input();
    /// let b = g.add_input();
    /// let shared = g.and(a, b);
    /// let left = g.and(shared, a);
    /// let right = g.and(shared, b);
    /// let cl = Cone::combinational(&g, [left]);
    /// let cr = Cone::combinational(&g, [right]);
    /// // Both cones contain the shared AND plus both inputs.
    /// assert_eq!(cl.overlap(&cr), 3);
    /// assert_eq!(cl.overlap(&cl), cl.size());
    /// ```
    pub fn overlap(&self, other: &Cone) -> usize {
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinational_stops_at_latches() {
        let mut g = Aig::new();
        let l = g.add_latch(false);
        let i = g.add_input();
        let n = g.and(l, i);
        g.set_next(l, n);
        let unrelated = g.add_input();
        let cone = Cone::combinational(&g, [l]);
        assert!(cone.contains(l.node()));
        assert!(!cone.contains(n.node()));
        assert!(!cone.contains(unrelated.node()));
        assert_eq!(cone.num_latches(), 1);
        assert_eq!(cone.num_inputs(), 0);
    }

    #[test]
    fn sequential_follows_next_state() {
        let mut g = Aig::new();
        let l = g.add_latch(false);
        let i = g.add_input();
        let n = g.and(l, i);
        g.set_next(l, n);
        let cone = Cone::sequential(&g, [l]);
        assert!(cone.contains(n.node()));
        assert_eq!(cone.num_inputs(), 1);
        assert_eq!(cone.size(), 3);
    }

    #[test]
    fn overlap_counts_shared_nodes() {
        let mut g = Aig::new();
        let l1 = g.add_latch(false);
        let l2 = g.add_latch(false);
        let i = g.add_input();
        let n1 = g.and(l1, i);
        let n2 = g.and(l2, i);
        g.set_next(l1, n1);
        g.set_next(l2, n2);
        let c1 = Cone::sequential(&g, [l1]);
        let c2 = Cone::sequential(&g, [l2]);
        // Shared: the input node only.
        assert_eq!(c1.overlap(&c2), 1);
        assert_eq!(c2.overlap(&c1), 1);
        assert_eq!(c1.overlap(&c1), c1.size());
    }

    /// A reference cone: plain `Vec<bool>` membership, the pre-bitset
    /// representation.
    fn naive_cone(aig: &Aig, roots: &[AigLit], through_latches: bool) -> Vec<bool> {
        let mut in_cone = vec![false; aig.num_nodes()];
        let mut stack: Vec<NodeId> = roots.iter().map(|l| l.node()).collect();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut in_cone[id.index()], true) {
                continue;
            }
            match aig.node(id) {
                Node::False | Node::Input(_) => {}
                Node::Latch(k) => {
                    if through_latches {
                        stack.push(aig.latches()[k as usize].next.node());
                    }
                }
                Node::And(a, b) => stack.extend([a.node(), b.node()]),
            }
        }
        in_cone
    }

    #[test]
    fn bitset_size_and_overlap_match_naive_counts_on_random_aigs() {
        use japrove_rng::SplitMix64;
        for case in 0..64u64 {
            let mut rng = SplitMix64::seed_from_u64(0xc0e0_0000 + case);
            let mut g = Aig::new();
            let mut pool = vec![AigLit::FALSE];
            for _ in 0..rng.gen_index(1, 8) {
                pool.push(g.add_input());
            }
            let latches: Vec<AigLit> = (0..rng.gen_index(0, 12))
                .map(|_| g.add_latch(rng.gen_bool()))
                .collect();
            pool.extend(&latches);
            // Enough gates that node ids straddle several 64-bit words.
            for _ in 0..rng.gen_index(1, 200) {
                let a = pool[rng.gen_index(0, pool.len())];
                let b = pool[rng.gen_index(0, pool.len())];
                let gate = g.and(a, if rng.gen_bool() { !b } else { b });
                pool.push(gate);
            }
            for &l in &latches {
                g.set_next(l, pool[rng.gen_index(0, pool.len())]);
            }
            let roots: Vec<Vec<AigLit>> = (0..4)
                .map(|_| {
                    (0..rng.gen_index(1, 4))
                        .map(|_| pool[rng.gen_index(0, pool.len())])
                        .collect()
                })
                .collect();
            for through_latches in [false, true] {
                let cones: Vec<Cone> = roots
                    .iter()
                    .map(|r| Cone::compute(&g, r.iter().copied(), through_latches))
                    .collect();
                let naive: Vec<Vec<bool>> = roots
                    .iter()
                    .map(|r| naive_cone(&g, r, through_latches))
                    .collect();
                for (cone, reference) in cones.iter().zip(&naive) {
                    let size = reference.iter().filter(|&&b| b).count();
                    assert_eq!(cone.size(), size, "case {case}");
                    for id in g.node_ids() {
                        assert_eq!(cone.contains(id), reference[id.index()], "case {case}");
                    }
                }
                for (a, na) in cones.iter().zip(&naive) {
                    for (b, nb) in cones.iter().zip(&naive) {
                        let both = na.iter().zip(nb).filter(|&(&x, &y)| x && y).count();
                        assert_eq!(a.overlap(b), both, "case {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn disjoint_modules_have_disjoint_cones() {
        let mut g = Aig::new();
        let l1 = g.add_latch(false);
        let l2 = g.add_latch(false);
        g.set_next(l1, !l1);
        g.set_next(l2, !l2);
        let c1 = Cone::sequential(&g, [l1]);
        assert!(c1.contains(l1.node()));
        assert!(!c1.contains(l2.node()));
    }
}
