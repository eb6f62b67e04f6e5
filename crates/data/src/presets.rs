//! Dataset presets matched to the statistics of the paper's Table 1.
//!
//! Every preset is a synthetic replica (see DESIGN.md §1): the name, the
//! vertex/edge/vocabulary counts, the number of ground-truth communities
//! `K` and the average community size `AS` follow the table; densities
//! and attribute counts are tuned so the derived quantities (average
//! degree, |E_B|/n) are close to the originals. `Reddit` is scaled down
//! by [`REDDIT_SCALE`] because the original (233k vertices, 114M edges)
//! does not fit a from-scratch CPU pipeline; the *relative* comparisons
//! of §7.4 are preserved at the reduced scale.

use crate::generator::{Dataset, GeneratorConfig};

/// Down-scaling factor applied to the Reddit replica (vertices and
/// community sizes divided by this factor).
pub const REDDIT_SCALE: usize = 8;

fn citation(
    name: &str,
    num_communities: usize,
    size_mean: f64,
    vocab: usize,
    attrs_mean: f64,
    seed: u64,
) -> Dataset {
    GeneratorConfig {
        num_communities,
        community_size_mean: size_mean,
        community_size_jitter: 0.25,
        membership_overlap: 0.0,
        intra_degree: 2.4,
        inter_degree: 0.7,
        vocab_size: vocab,
        topics_per_community: (vocab / 6).max(20),
        topic_overlap: 0.3,
        attrs_per_vertex_mean: attrs_mean,
        topic_affinity: 0.8,
        background_vertices: 0,
        seed,
    }
    .generate(name)
}

#[allow(
    clippy::too_many_arguments,
    reason = "one positional argument per column of the dataset statistics table"
)]
fn facebook(
    name: &str,
    num_communities: usize,
    size_mean: f64,
    overlap: f64,
    background: usize,
    vocab: usize,
    attrs_mean: f64,
    intra: f64,
    inter: f64,
    seed: u64,
) -> Dataset {
    GeneratorConfig {
        num_communities,
        community_size_mean: size_mean,
        community_size_jitter: 0.35,
        membership_overlap: overlap,
        intra_degree: intra,
        inter_degree: inter,
        vocab_size: vocab,
        topics_per_community: (vocab / 8).max(10),
        topic_overlap: 0.25,
        attrs_per_vertex_mean: attrs_mean,
        topic_affinity: 0.85,
        background_vertices: background,
        seed,
    }
    .generate(name)
}

/// Cornell (WebKB): 5 communities of ≈39 vertices, 1703-word vocabulary.
pub fn cornell() -> Dataset {
    citation("Cornell", 5, 39.0, 1703, 95.0, 0xC0E1)
}

/// Texas (WebKB): 5 communities of ≈37 vertices.
pub fn texas() -> Dataset {
    citation("Texas", 5, 37.4, 1703, 83.0, 0x7E8A)
}

/// Washington (WebKB): 5 communities of ≈46 vertices.
pub fn washington() -> Dataset {
    citation("Washt", 5, 46.0, 1703, 87.0, 0x3A51)
}

/// Wisconsin (WebKB): 5 communities of ≈53 vertices.
pub fn wisconsin() -> Dataset {
    citation("Wiscs", 5, 53.0, 1703, 96.0, 0x1157)
}

/// Cora: 7 communities of ≈387 vertices, 1433-word vocabulary.
pub fn cora() -> Dataset {
    citation("Cora", 7, 386.9, 1433, 18.0, 0xC04A)
}

/// Citeseer: 6 communities of ≈552 vertices, 3703-word vocabulary.
pub fn citeseer() -> Dataset {
    citation("Citeseer", 6, 552.0, 3703, 32.0, 0xC17E)
}

/// Facebook ego-net 0: 24 small (≈14) communities, dense structure.
pub fn fb_0() -> Dataset {
    facebook("FB-0", 24, 13.5, 0.05, 30, 224, 9.6, 10.0, 7.0, 0xFB00)
}

/// Facebook ego-net 107: 9 communities of ≈56 vertices plus background.
pub fn fb_107() -> Dataset {
    facebook("FB-107", 9, 55.7, 0.0, 545, 576, 11.3, 24.0, 30.0, 0xFB107)
}

/// Facebook ego-net 1684: 17 communities of ≈46 vertices.
pub fn fb_1684() -> Dataset {
    facebook("FB-1684", 17, 45.7, 0.03, 40, 319, 7.7, 18.0, 18.0, 0xFB1684)
}

/// Facebook ego-net 1912: 46 heavily-overlapping communities of ≈23.
pub fn fb_1912() -> Dataset {
    facebook("FB-1912", 46, 23.2, 0.30, 10, 480, 10.7, 30.0, 45.0, 0xFB1912)
}

/// Facebook ego-net 3437: 32 tiny (≈6) communities, large background.
pub fn fb_3437() -> Dataset {
    facebook("FB-3437", 32, 6.0, 0.0, 360, 262, 7.8, 6.0, 16.0, 0xFB3437)
}

/// Facebook ego-net 348: 14 strongly-overlapping communities of ≈40.
pub fn fb_348() -> Dataset {
    facebook("FB-348", 14, 40.5, 0.60, 0, 161, 10.5, 16.0, 14.0, 0xFB348)
}

/// Facebook ego-net 414: 7 communities of ≈25.
pub fn fb_414() -> Dataset {
    facebook("FB-414", 7, 25.4, 0.12, 0, 105, 9.8, 14.0, 9.0, 0xFB414)
}

/// Facebook ego-net 686: 14 strongly-overlapping communities of ≈35.
pub fn fb_686() -> Dataset {
    facebook("FB-686", 14, 34.6, 0.65, 0, 63, 5.8, 12.0, 9.0, 0xFB686)
}

/// Reddit, scaled down by [`REDDIT_SCALE`]: 50 communities of ≈582.
pub fn reddit() -> Dataset {
    GeneratorConfig {
        num_communities: 50,
        community_size_mean: 4659.3 / REDDIT_SCALE as f64,
        community_size_jitter: 0.4,
        membership_overlap: 0.0,
        intra_degree: 8.0,
        inter_degree: 4.0,
        vocab_size: 602,
        topics_per_community: 60,
        topic_overlap: 0.25,
        attrs_per_vertex_mean: 30.0,
        topic_affinity: 0.85,
        background_vertices: 0,
        seed: 0x4EDD17,
    }
    .generate("Reddit")
}

/// The four small WebKB citation replicas.
pub fn webkb_sets() -> Vec<Dataset> {
    vec![cornell(), texas(), washington(), wisconsin()]
}

/// All six citation-network replicas.
pub fn citation_sets() -> Vec<Dataset> {
    vec![cornell(), texas(), washington(), wisconsin(), cora(), citeseer()]
}

/// All eight Facebook ego-net replicas.
pub fn facebook_sets() -> Vec<Dataset> {
    vec![fb_414(), fb_686(), fb_348(), fb_0(), fb_3437(), fb_1912(), fb_1684(), fb_107()]
}

/// The 14 small/medium datasets of the paper's main experiments (all
/// except Reddit), in the column order of Table 2.
pub fn all_small() -> Vec<Dataset> {
    let mut v = facebook_sets();
    v.extend(citation_sets());
    v
}

/// A tiny fast dataset for unit tests and doc examples (not in the paper).
pub fn toy() -> Dataset {
    GeneratorConfig {
        num_communities: 3,
        community_size_mean: 14.0,
        community_size_jitter: 0.2,
        vocab_size: 40,
        topics_per_community: 8,
        attrs_per_vertex_mean: 5.0,
        intra_degree: 4.0,
        inter_degree: 1.0,
        seed: 0x707,
        ..Default::default()
    }
    .generate("Toy")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn webkb_sizes_match_table1() {
        let d = cornell();
        let n = d.graph.num_vertices();
        assert!((170..=220).contains(&n), "Cornell |V| ≈ 195, got {n}");
        assert_eq!(d.communities.len(), 5);
        assert_eq!(d.graph.num_attrs(), 1703);
        let avg_attrs = d.graph.bipartite_edge_count() as f64 / n as f64;
        assert!((70.0..120.0).contains(&avg_attrs), "≈95 attrs per vertex, got {avg_attrs}");
    }

    #[test]
    fn cora_scale() {
        let d = cora();
        let n = d.graph.num_vertices();
        assert!((2300..3100).contains(&n), "Cora |V| ≈ 2708, got {n}");
        assert_eq!(d.communities.len(), 7);
        assert!(d.avg_community_size() > 250.0);
    }

    #[test]
    fn overlapping_ego_net() {
        let d = fb_348();
        // K × AS far exceeds |V| in the paper: members are shared.
        let member_total: usize = d.communities.iter().map(Vec::len).sum();
        assert!(member_total > d.graph.num_vertices());
        assert_eq!(d.communities.len(), 14);
    }

    #[test]
    fn background_vertices_present() {
        let d = fb_3437();
        let covered: std::collections::HashSet<_> =
            d.communities.iter().flatten().copied().collect();
        assert!(covered.len() < d.graph.num_vertices(), "FB-3437 has background vertices");
    }

    #[test]
    fn all_small_has_fourteen() {
        let sets = all_small();
        assert_eq!(sets.len(), 14);
        let names: Vec<_> = sets.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"Cora") && names.contains(&"FB-1912"));
    }

    #[test]
    fn toy_is_small_and_fast() {
        let d = toy();
        assert!(d.graph.num_vertices() < 60);
        assert_eq!(d.communities.len(), 3);
    }
}
