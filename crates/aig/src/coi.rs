//! Cone-of-influence computation.

use crate::{Aig, AigLit, Node, NodeId};

/// The sequential cone of influence of a set of root edges: their
/// transitive fanin, where latches pull in their next-state cones until
/// a fixpoint is reached.
///
/// The basis of cone-of-influence reduction, of each property's latch
/// support, and so of the "similar cones" grouping the related-work
/// section of the paper discusses.
///
/// Membership is a bitset over node ids and the node count is cached
/// when the cone is built, so [`Cone::contains`] and [`Cone::size`] are
/// O(1).
#[derive(Clone, Debug)]
pub struct Cone {
    /// Bit `i % 64` of word `i / 64` is set iff node `i` is in the cone.
    bits: Vec<u64>,
    size: usize,
}

impl Cone {
    /// Computes the sequential cone of `roots` in `aig`.
    pub fn sequential<I: IntoIterator<Item = AigLit>>(aig: &Aig, roots: I) -> Self {
        let mut bits = vec![0u64; aig.num_nodes().div_ceil(64)];
        let mut stack: Vec<NodeId> = roots.into_iter().map(AigLit::node).collect();
        let mut size = 0;
        while let Some(id) = stack.pop() {
            let (word, mask) = (id.index() / 64, 1u64 << (id.index() % 64));
            if bits[word] & mask != 0 {
                continue;
            }
            bits[word] |= mask;
            size += 1;
            match aig.node(id) {
                Node::False | Node::Input(_) => {}
                Node::Latch(k) => stack.push(aig.latches()[k as usize].next.node()),
                Node::And(a, b) => {
                    stack.push(a.node());
                    stack.push(b.node());
                }
            }
        }
        Cone { bits, size }
    }

    /// Whether `id` lies in the cone.
    pub fn contains(&self, id: NodeId) -> bool {
        self.bits
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// Total number of nodes in the cone.
    pub fn size(&self) -> usize {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_follows_next_state() {
        let mut g = Aig::new();
        let l = g.add_latch(false);
        let i = g.add_input();
        let n = g.and(l, i);
        g.set_next(l, n);
        let cone = Cone::sequential(&g, [l]);
        assert!(cone.contains(n.node()));
        assert!(cone.contains(i.node()));
        assert_eq!(cone.size(), 3);
    }

    /// A reference cone: plain `Vec<bool>` membership, the pre-bitset
    /// representation.
    fn naive_cone(aig: &Aig, roots: &[AigLit]) -> Vec<bool> {
        let mut in_cone = vec![false; aig.num_nodes()];
        let mut stack: Vec<NodeId> = roots.iter().map(|l| l.node()).collect();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut in_cone[id.index()], true) {
                continue;
            }
            match aig.node(id) {
                Node::False | Node::Input(_) => {}
                Node::Latch(k) => stack.push(aig.latches()[k as usize].next.node()),
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
            for _ in 0..4 {
                let roots: Vec<AigLit> = (0..rng.gen_index(1, 4))
                    .map(|_| pool[rng.gen_index(0, pool.len())])
                    .collect();
                let cone = Cone::sequential(&g, roots.iter().copied());
                let reference = naive_cone(&g, &roots);
                let size = reference.iter().filter(|&&b| b).count();
                assert_eq!(cone.size(), size, "case {case}");
                for id in g.node_ids() {
                    assert_eq!(cone.contains(id), reference[id.index()], "case {case}");
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
