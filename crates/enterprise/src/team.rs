//! Team-based matching workflows.
//!
//! §5: *"How can we divide very large matching workflows into modular task
//! queues appropriate to each team member … to support a team-based matching
//! effort?"* The planner takes the concept list of a summarized schema (the
//! unit of the paper's incremental workflow) and assigns one task per concept
//! to engineers, balancing estimated effort (LPT scheduling) while honouring
//! domain-expertise preferences.

use harmony_core::summarize::Summary;
use sm_schema::Schema;
use sm_text::tokenize_identifier;

/// One engineer on the integration team.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineerProfile {
    /// Display name.
    pub name: String,
    /// Lowercase domain keywords this engineer knows well ("vehicle",
    /// "medical"); tasks mentioning them are steered here when balance
    /// permits.
    pub expertise: Vec<String>,
    /// Relative throughput (1.0 = nominal; 2.0 finishes twice as fast).
    pub speed: f64,
}

impl EngineerProfile {
    /// An engineer with nominal speed and no special expertise.
    pub fn new(name: impl Into<String>) -> Self {
        EngineerProfile {
            name: name.into(),
            expertise: Vec::new(),
            speed: 1.0,
        }
    }

    /// Add expertise keywords.
    pub fn expert_in(mut self, keywords: &[&str]) -> Self {
        self.expertise
            .extend(keywords.iter().map(|k| k.to_lowercase()));
        self
    }

    /// Set relative speed.
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = speed.max(0.1);
        self
    }
}

/// One concept-matching task.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchTask {
    /// Concept label (from the schema summary).
    pub concept: String,
    /// Subtree size — proxy for the candidate pairs the increment scans.
    pub elements: usize,
    /// Whether the assignee's expertise matched the concept.
    pub expertise_hit: bool,
}

/// One engineer's queue.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskQueue {
    /// The engineer.
    pub engineer: String,
    /// Assigned tasks, in assignment order.
    pub tasks: Vec<MatchTask>,
    /// Total effort units (elements / speed).
    pub load: f64,
}

/// A complete team plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TeamPlan {
    /// One queue per engineer.
    pub queues: Vec<TaskQueue>,
}

impl TeamPlan {
    /// Max / mean load ratio — 1.0 is perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let loads: Vec<f64> = self.queues.iter().map(|q| q.load).collect();
        let max = loads.iter().copied().fold(0.0_f64, f64::max);
        let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Total tasks assigned.
    pub fn task_count(&self) -> usize {
        self.queues.iter().map(|q| q.tasks.len()).sum()
    }

    /// The queue of a named engineer.
    pub fn queue_of(&self, name: &str) -> Option<&TaskQueue> {
        self.queues.iter().find(|q| q.engineer == name)
    }
}

/// Plan a team-based matching effort: one task per concept of `summary`,
/// assigned to `team` by longest-processing-time-first with an expertise
/// bonus (an expert counts the task at 70% cost).
///
/// Returns an empty plan when the team is empty.
pub fn plan_team(schema: &Schema, summary: &Summary, team: &[EngineerProfile]) -> TeamPlan {
    if team.is_empty() {
        return TeamPlan { queues: vec![] };
    }
    let mut queues: Vec<TaskQueue> = team
        .iter()
        .map(|e| TaskQueue {
            engineer: e.name.clone(),
            tasks: Vec::new(),
            load: 0.0,
        })
        .collect();

    // Tasks sorted by descending size (LPT).
    let mut tasks: Vec<(String, usize)> = summary
        .concepts
        .iter()
        .map(|c| {
            let size = schema.get(c.anchor).map(|_| schema.subtree_size(c.anchor));
            (c.label.clone(), size.unwrap_or(c.size()))
        })
        .collect();
    tasks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    for (label, elements) in tasks {
        let tokens: Vec<String> = tokenize_identifier(&label);
        // Pick the engineer with the lowest *resulting* effective load.
        let mut best: Option<(usize, f64, bool)> = None;
        for (i, profile) in team.iter().enumerate() {
            let hit = profile
                .expertise
                .iter()
                .any(|kw| tokens.iter().any(|t| t == kw));
            let cost = elements as f64 * if hit { 0.7 } else { 1.0 } / profile.speed;
            let resulting = queues[i].load + cost;
            if best.is_none_or(|(_, bl, _)| resulting < bl) {
                best = Some((i, resulting, hit));
            }
        }
        let (i, resulting, hit) = best.expect("team is non-empty");
        queues[i].tasks.push(MatchTask {
            concept: label,
            elements,
            expertise_hit: hit,
        });
        queues[i].load = resulting;
    }
    TeamPlan { queues }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::summarize::Summary;
    use sm_schema::{DataType, ElementKind, SchemaFormat, SchemaId};

    fn schema_with_concepts(sizes: &[(&str, usize)]) -> (Schema, Summary) {
        let mut s = Schema::new(SchemaId(1), "S", SchemaFormat::Relational);
        let mut builder = Summary::builder();
        for (name, size) in sizes {
            let t = s.add_root(*name, ElementKind::Table, DataType::None);
            for i in 0..size - 1 {
                s.add_child(
                    t,
                    format!("{name}_{i}"),
                    ElementKind::Column,
                    DataType::text(),
                )
                .unwrap();
            }
            builder = builder.concept_subtree(&s, *name, t);
        }
        (s, builder.build())
    }

    #[test]
    fn every_concept_assigned_exactly_once() {
        let (s, summary) = schema_with_concepts(&[
            ("Vehicle", 20),
            ("Person", 15),
            ("Event", 10),
            ("Unit", 5),
            ("Weapon", 5),
        ]);
        let team = vec![EngineerProfile::new("alice"), EngineerProfile::new("bob")];
        let plan = plan_team(&s, &summary, &team);
        assert_eq!(plan.task_count(), 5);
        let mut all: Vec<&str> = plan
            .queues
            .iter()
            .flat_map(|q| q.tasks.iter().map(|t| t.concept.as_str()))
            .collect();
        all.sort();
        assert_eq!(all, vec!["Event", "Person", "Unit", "Vehicle", "Weapon"]);
    }

    #[test]
    fn loads_are_balanced() {
        let (s, summary) = schema_with_concepts(&[
            ("A", 20),
            ("B", 18),
            ("C", 12),
            ("D", 10),
            ("E", 8),
            ("F", 6),
        ]);
        let team = vec![EngineerProfile::new("alice"), EngineerProfile::new("bob")];
        let plan = plan_team(&s, &summary, &team);
        assert!(
            plan.imbalance() < 1.2,
            "imbalance {} too high: {:?}",
            plan.imbalance(),
            plan.queues.iter().map(|q| q.load).collect::<Vec<_>>()
        );
    }

    #[test]
    fn expertise_steers_assignment() {
        let (s, summary) =
            schema_with_concepts(&[("VehicleMaintenance", 10), ("PatientRecord", 10)]);
        let team = vec![
            EngineerProfile::new("mech").expert_in(&["vehicle"]),
            EngineerProfile::new("doc").expert_in(&["patient"]),
        ];
        let plan = plan_team(&s, &summary, &team);
        let mech = plan.queue_of("mech").unwrap();
        assert!(mech.tasks.iter().any(|t| t.concept == "VehicleMaintenance"));
        assert!(mech
            .tasks
            .iter()
            .all(|t| t.expertise_hit || t.concept != "VehicleMaintenance"));
        let doc = plan.queue_of("doc").unwrap();
        assert!(doc.tasks.iter().any(|t| t.concept == "PatientRecord"));
    }

    #[test]
    fn faster_engineer_gets_more_work() {
        let sizes: Vec<(String, usize)> = (0..12).map(|i| (format!("C{i}"), 10)).collect();
        let refs: Vec<(&str, usize)> = sizes.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let (s, summary) = schema_with_concepts(&refs);
        let team = vec![
            EngineerProfile::new("fast").with_speed(2.0),
            EngineerProfile::new("slow").with_speed(1.0),
        ];
        let plan = plan_team(&s, &summary, &team);
        let fast = plan.queue_of("fast").unwrap().tasks.len();
        let slow = plan.queue_of("slow").unwrap().tasks.len();
        assert!(fast > slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn empty_team_and_empty_summary() {
        let (s, summary) = schema_with_concepts(&[("A", 5)]);
        assert!(plan_team(&s, &summary, &[]).queues.is_empty());
        let empty_summary = Summary::builder().build();
        let plan = plan_team(&s, &empty_summary, &[EngineerProfile::new("x")]);
        assert_eq!(plan.task_count(), 0);
        assert_eq!(plan.imbalance(), 1.0);
    }

    #[test]
    fn plan_is_deterministic() {
        let (s, summary) = schema_with_concepts(&[("A", 7), ("B", 7), ("C", 7)]);
        let team = vec![EngineerProfile::new("x"), EngineerProfile::new("y")];
        let p1 = plan_team(&s, &summary, &team);
        let p2 = plan_team(&s, &summary, &team);
        assert_eq!(p1, p2);
    }
}
