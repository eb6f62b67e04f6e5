//! Seeded generator for attributed graphs with planted ground-truth
//! communities and correlated attributes.
//!
//! The generative model mirrors what the paper's evaluation relies on:
//!
//! * **Planted communities** — vertex memberships are planted; each
//!   community's induced subgraph is connected (random spanning tree) and
//!   densified to a target intra-degree; cross-community edges are added
//!   at a (lower) inter-degree. Overlapping memberships are supported for
//!   ego-net-style presets where `K × avg_size > n`.
//! * **Structure–attribute correlation** — every community owns a topic
//!   set (a subset of the attribute vocabulary); members draw most of
//!   their attributes from that topic set and the rest uniformly. Sibling
//!   communities share a fraction of their topics, which creates the
//!   attribute–attribute relations ("ML"/"DL"/"CV") that the bipartite
//!   Attribute Encoder is designed to exploit and the ACQ/ATC baselines
//!   ignore.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use qdgnn_graph::attributed::AttrId;
use qdgnn_graph::{AttributedGraph, Graph, GraphBuilder, VertexId};

/// Configuration of the synthetic attributed-graph generator.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Number of planted communities `K`.
    pub num_communities: usize,
    /// Mean community size; together with `K` this determines `n` (minus
    /// overlap).
    pub community_size_mean: f64,
    /// Relative jitter of community sizes (0.2 → ±20%).
    pub community_size_jitter: f64,
    /// Fraction of each community's members that are shared with another
    /// community (0 for partitions, > 0 for ego-net style overlap).
    pub membership_overlap: f64,
    /// Target average number of intra-community edge endpoints per member
    /// (beyond the connecting spanning tree).
    pub intra_degree: f64,
    /// Target average number of cross-community edges per vertex.
    pub inter_degree: f64,
    /// Attribute vocabulary size `|F̂|`.
    pub vocab_size: usize,
    /// Topics (candidate attributes) owned by each community.
    pub topics_per_community: usize,
    /// Fraction of a community's topics shared with its sibling community
    /// (creates correlated attributes across communities).
    pub topic_overlap: f64,
    /// Mean number of attributes per vertex.
    pub attrs_per_vertex_mean: f64,
    /// Probability that each vertex attribute is drawn from the community
    /// topics rather than uniformly from the vocabulary.
    pub topic_affinity: f64,
    /// Extra vertices belonging to no ground-truth community (several of
    /// the paper's ego-nets have `K × avg_size < n`).
    pub background_vertices: usize,
    /// RNG seed; identical configs generate identical datasets.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            num_communities: 5,
            community_size_mean: 40.0,
            community_size_jitter: 0.2,
            membership_overlap: 0.0,
            intra_degree: 3.0,
            inter_degree: 0.8,
            vocab_size: 200,
            topics_per_community: 30,
            topic_overlap: 0.3,
            attrs_per_vertex_mean: 8.0,
            topic_affinity: 0.85,
            background_vertices: 0,
            seed: 42,
        }
    }
}

/// A generated dataset: attributed graph plus ground-truth communities.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Display name (preset names reuse the paper's dataset names).
    pub name: String,
    /// The attributed graph.
    pub graph: AttributedGraph,
    /// Ground-truth communities (sorted vertex lists; may overlap).
    pub communities: Vec<Vec<VertexId>>,
}

impl Dataset {
    /// Average ground-truth community size.
    pub fn avg_community_size(&self) -> f64 {
        if self.communities.is_empty() {
            return 0.0;
        }
        self.communities.iter().map(Vec::len).sum::<usize>() as f64
            / self.communities.len() as f64
    }

    /// One-line statistics summary (mirrors the columns of Table 1).
    pub fn stats_line(&self) -> String {
        format!(
            "{}: |V|={} |E|={} |F|={} |E_B|={} K={} AS={:.1}",
            self.name,
            self.graph.num_vertices(),
            self.graph.graph().num_edges(),
            self.graph.num_attrs(),
            self.graph.bipartite_edge_count(),
            self.communities.len(),
            self.avg_community_size()
        )
    }
}

impl GeneratorConfig {
    /// Generates a dataset deterministically from this configuration.
    ///
    /// # Panics
    /// Panics on degenerate configurations (no communities, empty
    /// vocabulary, zero-sized communities).
    pub fn generate(&self, name: impl Into<String>) -> Dataset {
        assert!(self.num_communities > 0, "need at least one community");
        assert!(self.vocab_size > 0, "vocabulary must be non-empty");
        assert!(self.community_size_mean >= 2.0, "communities must have ≥ 2 members");
        let mut rng = StdRng::seed_from_u64(self.seed);

        // --- community sizes -------------------------------------------------
        let sizes: Vec<usize> = (0..self.num_communities)
            .map(|_| {
                let jitter = 1.0 + self.community_size_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
                ((self.community_size_mean * jitter).round() as usize).max(2)
            })
            .collect();

        // --- memberships ------------------------------------------------------
        // Fresh vertices per community, minus the overlapped ones which are
        // borrowed from the previous community.
        let mut communities: Vec<Vec<VertexId>> = Vec::with_capacity(self.num_communities);
        let mut next_vertex: VertexId = 0;
        for (c, &size) in sizes.iter().enumerate() {
            let mut members: Vec<VertexId> = Vec::with_capacity(size);
            let borrow = if c > 0 {
                ((size as f64 * self.membership_overlap).round() as usize)
                    .min(communities[c - 1].len())
            } else {
                0
            };
            if borrow > 0 {
                let prev = communities[c - 1].clone();
                members.extend(prev.choose_multiple(&mut rng, borrow).copied());
            }
            while members.len() < size {
                members.push(next_vertex);
                next_vertex += 1;
            }
            members.sort_unstable();
            members.dedup();
            communities.push(members);
        }
        let community_vertices = next_vertex as usize;
        let n = community_vertices + self.background_vertices;

        // --- edges ------------------------------------------------------------
        let mut builder = GraphBuilder::new(n);
        for members in &communities {
            // Spanning tree over a random permutation keeps the community
            // connected (the BFS-based identification relies on this being
            // *possible*, as in real ground-truth communities).
            let mut order = members.clone();
            order.shuffle(&mut rng);
            for w in order.windows(2) {
                builder.add_edge(w[0], w[1]);
            }
            // Densify to the target intra-degree.
            let extra = ((members.len() as f64 * self.intra_degree / 2.0) as usize)
                .saturating_sub(members.len().saturating_sub(1));
            for _ in 0..extra {
                let u = *members.choose(&mut rng).expect("non-empty community");
                let v = *members.choose(&mut rng).expect("non-empty community");
                builder.add_edge(u, v);
            }
        }
        // Background vertices: attach each to one random earlier vertex so
        // none is isolated; further connectivity comes from inter edges.
        for v in community_vertices..n {
            let u = rng.gen_range(0..v) as VertexId;
            builder.add_edge(u, v as VertexId);
        }
        // Cross-community edges.
        let inter_edges = (n as f64 * self.inter_degree / 2.0) as usize;
        for _ in 0..inter_edges {
            let u = rng.gen_range(0..n) as VertexId;
            let v = rng.gen_range(0..n) as VertexId;
            builder.add_edge(u, v);
        }
        let graph: Graph = builder.build();

        // --- topics -----------------------------------------------------------
        let mut topics: Vec<Vec<AttrId>> = Vec::with_capacity(self.num_communities);
        for c in 0..self.num_communities {
            let mut t: Vec<AttrId> = Vec::with_capacity(self.topics_per_community);
            let shared = if c > 0 {
                (self.topics_per_community as f64 * self.topic_overlap).round() as usize
            } else {
                0
            };
            if shared > 0 {
                let prev = topics[c - 1].clone();
                t.extend(prev.choose_multiple(&mut rng, shared.min(prev.len())).copied());
            }
            while t.len() < self.topics_per_community.min(self.vocab_size) {
                let a = rng.gen_range(0..self.vocab_size) as AttrId;
                if !t.contains(&a) {
                    t.push(a);
                }
            }
            topics.push(t);
        }

        // --- vertex attributes --------------------------------------------------
        // Primary community per vertex = the first community listing it.
        let mut primary = vec![usize::MAX; n];
        for (c, members) in communities.iter().enumerate() {
            for &v in members {
                if primary[v as usize] == usize::MAX {
                    primary[v as usize] = c;
                }
            }
        }
        let mut attrs: Vec<Vec<AttrId>> = Vec::with_capacity(n);
        for &c in primary.iter().take(n) {
            let count = sample_count(self.attrs_per_vertex_mean, &mut rng);
            let mut set = Vec::with_capacity(count);
            for _ in 0..count {
                let a = if c != usize::MAX && rng.gen::<f64>() < self.topic_affinity {
                    *topics[c].choose(&mut rng).expect("non-empty topics")
                } else {
                    rng.gen_range(0..self.vocab_size) as AttrId
                };
                set.push(a);
            }
            set.sort_unstable();
            set.dedup();
            if set.is_empty() {
                set.push(rng.gen_range(0..self.vocab_size) as AttrId);
            }
            attrs.push(set);
        }

        Dataset {
            name: name.into(),
            graph: AttributedGraph::new(graph, attrs, self.vocab_size),
            communities,
        }
    }
}

/// Samples an attribute count around `mean` (uniform in `[mean/2, 3·mean/2]`,
/// at least 1) — a dispersion similar to real keyword counts without the
/// heavy machinery of a Poisson sampler.
fn sample_count(mean: f64, rng: &mut impl Rng) -> usize {
    let lo = (mean * 0.5).max(1.0);
    let hi = (mean * 1.5).max(2.0);
    rng.gen_range(lo..hi).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdgnn_graph::traversal;

    fn small() -> Dataset {
        GeneratorConfig {
            num_communities: 4,
            community_size_mean: 20.0,
            vocab_size: 60,
            topics_per_community: 12,
            seed: 7,
            ..Default::default()
        }
        .generate("small")
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.graph.graph().num_edges(), b.graph.graph().num_edges());
        assert_eq!(a.communities, b.communities);
        assert_eq!(a.graph.attrs_of(3), b.graph.attrs_of(3));
    }

    #[test]
    fn different_seed_differs() {
        let a = small();
        let b = GeneratorConfig {
            num_communities: 4,
            community_size_mean: 20.0,
            vocab_size: 60,
            topics_per_community: 12,
            seed: 8,
            ..Default::default()
        }
        .generate("other");
        assert_ne!(a.communities, b.communities);
    }

    #[test]
    fn communities_are_connected_subgraphs() {
        let d = small();
        for members in &d.communities {
            assert!(
                traversal::is_connected_subset(d.graph.graph(), members),
                "planted community must induce a connected subgraph"
            );
        }
    }

    #[test]
    fn sizes_near_target() {
        let d = small();
        assert_eq!(d.communities.len(), 4);
        let avg = d.avg_community_size();
        assert!((12.0..28.0).contains(&avg), "avg size {avg} not near 20");
        assert!(d.graph.num_vertices() >= 40);
    }

    #[test]
    fn attributes_correlate_with_communities() {
        let d = small();
        // Members of the same community should share attributes far more
        // often than members of different communities.
        let c0 = &d.communities[0];
        let c1 = &d.communities[1];
        let overlap = |a: VertexId, b: VertexId| -> usize {
            d.graph
                .attrs_of(a)
                .iter()
                .filter(|&&x| d.graph.has_attr(b, x))
                .count()
        };
        let mut intra = 0usize;
        let mut inter = 0usize;
        let take = c0.len().min(c1.len()).min(10);
        for i in 0..take {
            for j in 0..take {
                if i < j {
                    intra += overlap(c0[i], c0[j]);
                }
                inter += overlap(c0[i], c1[j]);
            }
        }
        assert!(intra * 2 > inter, "intra {intra} should dominate inter {inter}");
    }

    #[test]
    fn overlap_creates_shared_members() {
        let d = GeneratorConfig {
            num_communities: 3,
            community_size_mean: 20.0,
            membership_overlap: 0.4,
            seed: 3,
            ..Default::default()
        }
        .generate("ov");
        let shared: usize = d.communities[1]
            .iter()
            .filter(|v| d.communities[0].contains(v))
            .count();
        assert!(shared > 0, "expected overlapping memberships");
    }

    #[test]
    fn every_vertex_has_an_attribute() {
        let d = small();
        for v in 0..d.graph.num_vertices() {
            assert!(!d.graph.attrs_of(v as VertexId).is_empty());
        }
    }
}
