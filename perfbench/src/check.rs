//! Output checkers. Each one is either an independent computation (a BFS
//! the benchmark runs itself over the graph's public edge list) or a
//! property the method must have (a summary partitions its input); none
//! compares against a saved copy of earlier output.

use prov_api::{PsgDto, SegmentDto};
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_store::ProvGraph;
use std::collections::{HashMap, HashSet, VecDeque};

/// Result of one check: `Err` names what is wrong.
pub type Check = Result<(), String>;

/// Which way an ancestry walk goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Towards inputs.
    Ancestors,
    /// Towards products.
    Descendants,
}

/// `Used` / `WasGeneratedBy` adjacency, both directions, read once from the
/// graph's edge list.
#[derive(Debug, Default)]
pub struct Ancestry {
    up: Vec<Vec<u32>>,
    down: Vec<Vec<u32>>,
}

impl Ancestry {
    /// Read the ancestry edges of `graph`.
    pub fn of(graph: &ProvGraph) -> Ancestry {
        let n = graph.vertex_count();
        let mut a = Ancestry { up: vec![Vec::new(); n], down: vec![Vec::new(); n] };
        for e in graph.edge_ids() {
            let rec = graph.edge(e);
            if matches!(rec.kind, EdgeKind::Used | EdgeKind::WasGeneratedBy) {
                a.up[rec.src.index()].push(rec.dst.raw());
                a.down[rec.dst.index()].push(rec.src.raw());
            }
        }
        a
    }

    /// Vertices within `max_hops` of `start` (`None` = unbounded), start
    /// excluded, ascending.
    pub fn bfs(&self, start: VertexId, walk: Walk, max_hops: Option<u32>) -> Vec<VertexId> {
        let adj = match walk {
            Walk::Ancestors => &self.up,
            Walk::Descendants => &self.down,
        };
        let mut depth: HashMap<u32, u32> = HashMap::from([(start.raw(), 0)]);
        let mut queue = VecDeque::from([start.raw()]);
        while let Some(v) = queue.pop_front() {
            let d = depth[&v];
            if max_hops.is_some_and(|h| d >= h) {
                continue;
            }
            for &w in &adj[v as usize] {
                if let std::collections::hash_map::Entry::Vacant(slot) = depth.entry(w) {
                    slot.insert(d + 1);
                    queue.push_back(w);
                }
            }
        }
        let mut out: Vec<VertexId> =
            depth.into_keys().filter(|&v| v != start.raw()).map(VertexId::new).collect();
        out.sort_unstable();
        out
    }
}

/// A lineage or impact answer equals the benchmark's own BFS. Only vertices
/// below `visible` count: a store that grew after the answer was served
/// holds younger vertices the answer could not have seen (ids grow along
/// every descendant path, so the restriction is exact).
pub fn lineage(
    ancestry: &Ancestry,
    start: VertexId,
    walk: Walk,
    max_hops: Option<u32>,
    visible: usize,
    answer: &[VertexId],
) -> Check {
    let mut expected = ancestry.bfs(start, walk, max_hops);
    expected.retain(|v| v.index() < visible);
    if expected == answer {
        Ok(())
    } else {
        Err(format!(
            "{walk:?} of {start} within {max_hops:?}: {} rows served, BFS finds {}",
            answer.len(),
            expected.len()
        ))
    }
}

/// A cursor walk's pages concatenate to the one-shot answer, ascending and
/// without duplicates.
pub fn walk(pages: &[Vec<VertexId>], one_shot: &[VertexId]) -> Check {
    let all: Vec<VertexId> = pages.concat();
    if !all.windows(2).all(|w| w[0] < w[1]) {
        return Err("cursor pages are not strictly ascending".into());
    }
    if all != one_shot {
        return Err(format!(
            "{} paged rows differ from {} one-shot rows",
            all.len(),
            one_shot.len()
        ));
    }
    Ok(())
}

/// Every segment edge has both endpoints among the segment's vertices.
pub fn segment_closed(seg: &SegmentDto) -> Check {
    let ids: HashSet<VertexId> = seg.vertices.iter().map(|v| v.id).collect();
    match seg.edges.iter().find(|e| !ids.contains(&e.src) || !ids.contains(&e.dst)) {
        Some(e) => Err(format!("segment edge {} leaves the segment", e.id)),
        None => Ok(()),
    }
}

/// The served segment has the vertex set a reference evaluator computed.
pub fn segment_matches(seg: &SegmentDto, reference: &[VertexId]) -> Check {
    let mut served = seg.vertex_ids();
    served.sort_unstable();
    if served == reference {
        Ok(())
    } else {
        Err(format!("segment has {} vertices, reference has {}", served.len(), reference.len()))
    }
}

/// PgSum properties: members partition the input `(segment, vertex)`
/// instances and their count is `input_vertex_count`; members of a summary
/// vertex share its kind and their `filename` (entities) or `command`
/// (activities); edges stay in range with frequency in `(0, 1]`.
pub fn summary(graph: &ProvGraph, inputs: &[Vec<VertexId>], psg: &PsgDto) -> Check {
    let mut expected: Vec<(u32, VertexId)> = Vec::new();
    for (i, seg) in inputs.iter().enumerate() {
        expected.extend(seg.iter().map(|&v| (i as u32, v)));
    }
    expected.sort_unstable();
    let mut members: Vec<(u32, VertexId)> =
        psg.vertices.iter().flat_map(|m| m.members.iter().copied()).collect();
    members.sort_unstable();
    if members != expected {
        return Err(format!(
            "summary members ({}) do not partition the {} input instances",
            members.len(),
            expected.len()
        ));
    }
    if psg.input_vertex_count != expected.len() || psg.segment_count != inputs.len() {
        return Err(format!(
            "summary reports {} instances in {} segments, input has {} in {}",
            psg.input_vertex_count,
            psg.segment_count,
            expected.len(),
            inputs.len()
        ));
    }
    for (m, vertex) in psg.vertices.iter().enumerate() {
        let key = match vertex.kind {
            VertexKind::Entity => Some("filename"),
            VertexKind::Activity => Some("command"),
            VertexKind::Agent => None,
        };
        let value = |v: VertexId| key.and_then(|k| graph.vprop(v, k).cloned());
        let first = value(vertex.members[0].1);
        for &(_, v) in &vertex.members {
            if graph.vertex_kind(v) != vertex.kind || value(v) != first {
                return Err(format!("summary vertex {m} merges unlike member {v}"));
            }
        }
    }
    let n = psg.vertices.len() as u32;
    match psg
        .edges
        .iter()
        .find(|e| e.src >= n || e.dst >= n || !(e.frequency > 0.0 && e.frequency <= 1.0))
    {
        Some(e) => Err(format!(
            "summary edge {}->{} out of range or frequency {}",
            e.src, e.dst, e.frequency
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_api::{PsgEdgeDto, PsgVertexDto, SegmentEdgeDto, SegmentVertexDto};
    use prov_model::EdgeId;

    /// `d1 <-U- a1 <-G- o1 <-U- a2 <-G- o2` as ids 0..5, plus an agent.
    fn chain() -> ProvGraph {
        let mut g = ProvGraph::new();
        let d1 = g.add_entity("d-v1");
        let a1 = g.add_activity("cmd0");
        let o1 = g.add_entity("o-v1");
        let a2 = g.add_activity("cmd0");
        let o2 = g.add_entity("o-v2");
        let who = g.add_agent("alice");
        for (kind, s, d) in [
            (EdgeKind::Used, a1, d1),
            (EdgeKind::WasGeneratedBy, o1, a1),
            (EdgeKind::Used, a2, o1),
            (EdgeKind::WasGeneratedBy, o2, a2),
            (EdgeKind::WasDerivedFrom, o2, o1),
            (EdgeKind::WasAssociatedWith, a2, who),
        ] {
            g.add_edge(kind, s, d).unwrap();
        }
        for (v, f) in [(d1, "d"), (o1, "o"), (o2, "o")] {
            g.set_vprop(v, "filename", f);
        }
        for a in [a1, a2] {
            g.set_vprop(a, "command", "cmd0");
        }
        g
    }

    fn ids(raw: &[u32]) -> Vec<VertexId> {
        raw.iter().map(|&r| VertexId::new(r)).collect()
    }

    #[test]
    fn bfs_follows_used_and_generated_only_and_respects_hops() {
        let a = Ancestry::of(&chain());
        let o2 = VertexId::new(4);
        assert_eq!(a.bfs(o2, Walk::Ancestors, None), ids(&[0, 1, 2, 3]));
        assert_eq!(a.bfs(o2, Walk::Ancestors, Some(2)), ids(&[2, 3]));
        assert_eq!(a.bfs(VertexId::new(0), Walk::Descendants, None), ids(&[1, 2, 3, 4]));
        assert!(lineage(&a, o2, Walk::Ancestors, Some(2), 6, &ids(&[2, 3])).is_ok());
        assert!(lineage(&a, o2, Walk::Ancestors, Some(2), 6, &ids(&[3])).is_err());
        // Younger vertices than the answer are invisible to it.
        let d1 = VertexId::new(0);
        assert!(lineage(&a, d1, Walk::Descendants, None, 3, &ids(&[1, 2])).is_ok());
    }

    #[test]
    fn walk_must_concatenate_ascending_to_the_one_shot_answer() {
        let one_shot = ids(&[1, 3, 5, 7]);
        assert!(walk(&[ids(&[1, 3]), ids(&[5, 7])], &one_shot).is_ok());
        assert!(walk(&[ids(&[1, 3]), ids(&[3, 5, 7])], &one_shot).is_err());
        assert!(walk(&[ids(&[1, 3]), ids(&[5])], &one_shot).is_err());
        assert!(walk(&[ids(&[5, 7]), ids(&[1, 3])], &one_shot).is_err());
    }

    fn seg(vertices: &[u32], edges: &[(u32, u32)]) -> SegmentDto {
        SegmentDto {
            vsrc: vec![],
            vdst: vec![],
            vertices: vertices
                .iter()
                .map(|&v| SegmentVertexDto {
                    id: VertexId::new(v),
                    name: None,
                    kind: VertexKind::Entity,
                    tags: String::new(),
                })
                .collect(),
            edges: edges
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| SegmentEdgeDto {
                    id: EdgeId::new(i as u32),
                    src: VertexId::new(s),
                    dst: VertexId::new(d),
                    kind: EdgeKind::Used,
                })
                .collect(),
        }
    }

    #[test]
    fn segments_must_be_closed_and_match_the_reference_set() {
        assert!(segment_closed(&seg(&[1, 2], &[(1, 2)])).is_ok());
        assert!(segment_closed(&seg(&[1, 2], &[(1, 3)])).is_err());
        assert!(segment_matches(&seg(&[2, 1], &[]), &ids(&[1, 2])).is_ok());
        assert!(segment_matches(&seg(&[1], &[]), &ids(&[1, 2])).is_err());
    }

    fn psg(vertices: Vec<(VertexKind, Vec<(u32, u32)>)>, edges: &[(u32, u32, f64)]) -> PsgDto {
        let input_vertex_count = vertices.iter().map(|v| v.1.len()).sum();
        PsgDto {
            vertices: vertices
                .into_iter()
                .map(|(kind, m)| PsgVertexDto {
                    label: String::new(),
                    kind,
                    members: m.into_iter().map(|(s, v)| (s, VertexId::new(v))).collect(),
                })
                .collect(),
            edges: edges
                .iter()
                .map(|&(src, dst, frequency)| PsgEdgeDto {
                    src,
                    dst,
                    kind: EdgeKind::Used,
                    frequency,
                })
                .collect(),
            segment_count: 2,
            input_vertex_count,
            compaction_ratio: 0.5,
        }
    }

    #[test]
    fn summary_must_partition_its_input_and_merge_only_like_vertices() {
        let g = chain();
        let inputs = [ids(&[1, 2]), ids(&[3, 4])];
        let (act, ent) = (VertexKind::Activity, VertexKind::Entity);
        let good =
            psg(vec![(act, vec![(0, 1), (1, 3)]), (ent, vec![(0, 2), (1, 4)])], &[(0, 1, 1.0)]);
        assert!(summary(&g, &inputs, &good).is_ok());
        // A lost instance, a duplicated one, a wrong kind, a bad frequency,
        // an out-of-range endpoint, a merge across filenames.
        let lost = psg(vec![(act, vec![(0, 1), (1, 3)]), (ent, vec![(0, 2)])], &[]);
        let twice =
            psg(vec![(act, vec![(0, 1), (1, 3), (0, 1)]), (ent, vec![(0, 2), (1, 4)])], &[]);
        let kind = psg(vec![(ent, vec![(0, 1), (1, 3)]), (ent, vec![(0, 2), (1, 4)])], &[]);
        let freq =
            psg(vec![(act, vec![(0, 1), (1, 3)]), (ent, vec![(0, 2), (1, 4)])], &[(0, 1, 0.0)]);
        let range =
            psg(vec![(act, vec![(0, 1), (1, 3)]), (ent, vec![(0, 2), (1, 4)])], &[(0, 2, 1.0)]);
        let mixed = [ids(&[1, 2]), ids(&[3, 0])];
        let mixed_psg = psg(vec![(act, vec![(0, 1), (1, 3)]), (ent, vec![(0, 2), (1, 0)])], &[]);
        for bad in [lost, twice, kind, freq, range] {
            assert!(summary(&g, &inputs, &bad).is_err());
        }
        assert!(summary(&g, &mixed, &mixed_psg).is_err(), "d and o have different filenames");
    }
}
