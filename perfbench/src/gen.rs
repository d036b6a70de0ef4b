//! Seeded inputs. A [`History`] streams the Pd-shaped activity history
//! (`prov_workload::ActivityStream`) and keeps the client-side model of what
//! it sent: entity names, which activity generated each entity, and the
//! vertex and edge counts the store must end up with. Analyst tasks are
//! drawn from that model, so no input is ever read back from the program
//! under test.

use prov_api::{
    AddAgentRequest, AddArtifactRequest, EntityRef, OutputSpecDto, RecordActivityRequest, Request,
};
use prov_workload::{ActivityStream, StreamParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Team members every activity is attributed to, round robin.
pub const AGENTS: [&str; 4] = ["alice", "bob", "carol", "dave"];
/// Root artifacts registered before the stream starts.
pub const ROOTS: usize = 8;
/// Most entity versions a task stage may span from its source to its
/// destination. Stages are segmented inside their birth window, so this
/// bounds every segment: unbounded PgSeg between two nearby entities can
/// take in the whole graph.
pub const STAGE_SPAN: usize = 160;
/// Distinct command templates. The stream's `--run i` suffix is dropped so
/// that activities of one template share their `command` value and PgSum has
/// similar activities to merge.
pub const TEMPLATES: usize = 8;

/// One streamed activity as the client sent it.
#[derive(Debug, Clone)]
pub struct Activity {
    /// Command template (`cmdK`).
    pub command: String,
    /// Index into [`AGENTS`].
    pub agent: usize,
    /// Input entities (indices into [`History::entities`]).
    pub inputs: Vec<usize>,
    /// Output entities (indices into [`History::entities`]).
    pub outputs: Vec<usize>,
}

/// One entity version as the client named it.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Versioned name (`artifact12-v3`), how requests address it.
    pub name: String,
    /// The activity that generated it; `None` for roots.
    pub generator: Option<usize>,
}

/// The stream plus its client-side model.
#[derive(Debug)]
pub struct History {
    stream: ActivityStream,
    versions: HashMap<String, u32>,
    /// Entities in creation order (the stream's recency pool).
    pub entities: Vec<Entity>,
    /// Activities in ingest order.
    pub activities: Vec<Activity>,
    /// `WasDerivedFrom` edges the store links between consecutive versions.
    pub derived_edges: usize,
}

/// The requests that register agents and root artifacts, sent once before
/// the first activity.
pub fn preamble() -> Vec<String> {
    let agents = AGENTS.iter().map(|a| Request::AddAgent(AddAgentRequest { name: a.to_string() }));
    let roots = (0..ROOTS).map(|r| {
        Request::AddArtifact(AddArtifactRequest {
            artifact: format!("root{r}"),
            attributed_to: None,
        })
    });
    agents.chain(roots).map(|r| wire(&r)).collect()
}

/// Serialize a request as a client would send it.
pub fn wire(request: &Request) -> String {
    serde_json::to_string(request).expect("requests always serialize")
}

impl History {
    /// An empty history over the seeded stream. `max_pool` sizes the
    /// stream's recency table (larger pools are served at clamped rank).
    pub fn new(seed: u64, max_pool: usize) -> History {
        let params = StreamParams { commands: TEMPLATES, seed, ..StreamParams::default() };
        History {
            stream: ActivityStream::new(params, max_pool),
            versions: HashMap::new(),
            entities: (0..ROOTS)
                .map(|r| Entity { name: format!("root{r}-v1"), generator: None })
                .collect(),
            activities: Vec::new(),
            derived_edges: 0,
        }
    }

    /// Draw the next activity and return its index.
    pub fn next(&mut self) -> usize {
        let record = self.stream.next_activity(self.entities.len());
        let command = match record.command.split_once(" --run") {
            Some((template, _)) => template.to_string(),
            None => record.command,
        };
        let inputs = record.input_ranks.iter().map(|&r| self.entities.len() - r).collect();
        let index = self.activities.len();
        let mut outputs = Vec::with_capacity(record.outputs.len());
        for artifact in record.outputs {
            let version = self.versions.entry(artifact.clone()).or_insert(0);
            *version += 1;
            if *version > 1 {
                self.derived_edges += 1;
            }
            outputs.push(self.entities.len());
            self.entities
                .push(Entity { name: format!("{artifact}-v{version}"), generator: Some(index) });
        }
        self.activities.push(Activity { command, agent: index % AGENTS.len(), inputs, outputs });
        index
    }

    /// The `RecordActivity` request for activity `i`.
    pub fn record_request(&self, i: usize) -> String {
        let a = &self.activities[i];
        let name = |e: &usize| EntityRef::from(self.entities[*e].name.as_str());
        let artifact = |e: &usize| {
            let versioned = &self.entities[*e].name;
            let base = versioned.rsplit_once("-v").expect("versioned name").0;
            OutputSpecDto { artifact: base.to_string(), props: vec![] }
        };
        wire(&Request::RecordActivity(RecordActivityRequest {
            command: a.command.clone(),
            agent: Some(EntityRef::from(AGENTS[a.agent])),
            inputs: a.inputs.iter().map(name).collect(),
            outputs: a.outputs.iter().map(artifact).collect(),
            props: vec![],
        }))
    }

    /// Vertices the store holds after the preamble and every activity so far.
    pub fn expected_vertices(&self) -> usize {
        AGENTS.len() + self.entities.len() + self.activities.len()
    }

    /// Edges the store holds after the preamble and every activity so far:
    /// one association per activity, its `Used` and `WasGeneratedBy` edges,
    /// and the version-to-version `WasDerivedFrom` links.
    pub fn expected_edges(&self) -> usize {
        let io: usize = self.activities.iter().map(|a| 1 + a.inputs.len() + a.outputs.len()).sum();
        io + self.derived_edges
    }

    /// The stage `src → dst` two activities deep ending at activity `i`:
    /// `dst` is an output of `i`, `src` an input of the activity that
    /// generated one of `i`'s inputs, at most [`STAGE_SPAN`] entities apart.
    fn stage(&self, i: usize) -> Option<(usize, usize)> {
        let a = &self.activities[i];
        let dst = a.outputs[0];
        a.inputs.iter().filter_map(|&e| self.entities[e].generator).find_map(|parent| {
            let src = self.activities[parent].inputs[0];
            (dst - src <= STAGE_SPAN).then_some((src, dst))
        })
    }

    /// Draw an analyst task whose stages end at activities in `lo..hi`: a
    /// first stage, and a second one at an activity of the same command
    /// template, so the two segments cover similar pipeline stages.
    pub fn task(&self, rng: &mut StdRng, lo: usize, hi: usize) -> TaskSpec {
        loop {
            let i = rng.gen_range(lo..hi);
            let Some(first) = self.stage(i) else { continue };
            let template = &self.activities[i].command;
            let second = (0..64).map(|_| rng.gen_range(lo..hi)).find_map(|j| {
                (j != i && &self.activities[j].command == template).then(|| self.stage(j)).flatten()
            });
            if let Some(second) = second {
                return TaskSpec { first, second };
            }
        }
    }
}

/// The two stages of one analyst task, as entity indices `(src, dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    /// Stage segmented, opened, expanded and restricted.
    pub first: (usize, usize),
    /// Similar stage opened beside it for the summary.
    pub second: (usize, usize),
}

/// The seeded generator for task draws, independent of the stream's.
pub fn task_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x7a5c_0de5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_history_and_requests() {
        let (mut a, mut b) = (History::new(7, 1000), History::new(7, 1000));
        for _ in 0..50 {
            let (i, j) = (a.next(), b.next());
            assert_eq!(a.record_request(i), b.record_request(j));
        }
        let mut c = History::new(8, 1000);
        (0..50).for_each(|_| {
            c.next();
        });
        assert_ne!(a.record_request(49), c.record_request(49));
    }

    #[test]
    fn commands_come_from_the_template_set() {
        let mut h = History::new(1, 1000);
        (0..200).for_each(|_| {
            h.next();
        });
        let mut seen: Vec<&str> = h.activities.iter().map(|a| a.command.as_str()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), TEMPLATES);
        assert!(seen.iter().all(|c| c.starts_with("cmd") && !c.contains(' ')));
    }

    #[test]
    fn task_stages_share_a_template_and_chain_two_activities() {
        let mut h = History::new(3, 2000);
        (0..500).for_each(|_| {
            h.next();
        });
        let mut rng = task_rng(3);
        for _ in 0..20 {
            let t = h.task(&mut rng, 100, 500);
            for (src, dst) in [t.first, t.second] {
                let end = h.entities[dst].generator.unwrap();
                let mut mids =
                    h.activities[end].inputs.iter().filter_map(|&e| h.entities[e].generator);
                assert!(mids.any(|mid| h.activities[mid].inputs.contains(&src)));
                assert!(dst - src <= STAGE_SPAN);
            }
            let cmd = |(_, dst): (usize, usize)| {
                &h.activities[h.entities[dst].generator.unwrap()].command
            };
            assert_eq!(cmd(t.first), cmd(t.second));
        }
    }
}
