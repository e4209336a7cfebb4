//! Serializable counterexample traces.
//!
//! When the explorer finds a schedule that violates an invariant it emits
//! an [`McTrace`]: the scenario name, the violation message, and the full
//! choice sequence. The trace round-trips through a plain text format
//! (one `key: value` header per line, then one line per choice point) so
//! it can be pasted into a bug report or committed as a failing-test
//! fixture and replayed bit-identically with [`ScriptHook::follow`].
//!
//! [`ScriptHook::follow`]: crate::ScriptHook::follow

use crate::script::ChoiceRecord;

/// A replayable schedule: everything needed to re-execute the exact
/// interleaving that produced a violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McTrace {
    /// Name of the scenario that was running.
    pub scenario: String,
    /// The invariant violation message.
    pub violation: String,
    /// The full choice sequence, one index per choice point.
    pub choices: Vec<usize>,
    /// `alternatives @ label` per choice point, for human consumption.
    pub points: Vec<(usize, String)>,
}

impl McTrace {
    /// Build a trace from an execution's records and its violation.
    pub fn from_records(scenario: &str, violation: &str, records: &[ChoiceRecord]) -> McTrace {
        McTrace {
            scenario: scenario.to_string(),
            violation: violation.replace('\n', " / "),
            choices: records.iter().map(|r| r.chosen).collect(),
            points: records
                .iter()
                .map(|r| (r.alternatives, r.label.replace('\n', " ")))
                .collect(),
        }
    }

    /// Render the trace in its text format.
    pub fn serialize(&self) -> String {
        let mut out = String::from("mc-trace v1\n");
        out.push_str(&format!("scenario: {}\n", self.scenario));
        out.push_str(&format!("violation: {}\n", self.violation));
        let choices: Vec<String> = self.choices.iter().map(|c| c.to_string()).collect();
        out.push_str(&format!("choices: {}\n", choices.join(",")));
        for (i, (n, label)) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "  point {i}: chose {}/{n} ({label})\n",
                self.choices.get(i).copied().unwrap_or(0)
            ));
        }
        out
    }

    /// Parse a trace rendered by [`McTrace::serialize`]. The per-point
    /// detail lines are optional — only the headers drive a replay.
    pub fn parse(text: &str) -> Option<McTrace> {
        let mut lines = text.lines();
        if lines.next()?.trim() != "mc-trace v1" {
            return None;
        }
        let mut scenario = None;
        let mut violation = None;
        let mut choices = None;
        let mut points = Vec::new();
        for line in lines {
            let line = line.trim();
            if let Some(v) = line.strip_prefix("scenario: ") {
                scenario = Some(v.to_string());
            } else if let Some(v) = line.strip_prefix("violation: ") {
                violation = Some(v.to_string());
            } else if let Some(v) = line.strip_prefix("choices: ") {
                let parsed: Result<Vec<usize>, _> = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::parse)
                    .collect();
                choices = Some(parsed.ok()?);
            } else if let Some(rest) = line.strip_prefix("point ") {
                // "N: chose C/A (label)"
                let (_, rest) = rest.split_once(": chose ")?;
                let (frac, label) = rest.split_once(" (")?;
                let (_, n) = frac.split_once('/')?;
                points.push((n.parse().ok()?, label.strip_suffix(')')?.to_string()));
            }
        }
        Some(McTrace {
            scenario: scenario?,
            violation: violation?,
            choices: choices?,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips() {
        let t = McTrace {
            scenario: "federation-crash".into(),
            violation: "checksum mismatch on /fed/data0".into(),
            choices: vec![0, 2, 1],
            points: vec![
                (2, "faults/injector/0/task sleep".into()),
                (3, "replicator/ship-block".into()),
                (2, "reconcile/resume-block".into()),
            ],
        };
        let text = t.serialize();
        assert_eq!(McTrace::parse(&text), Some(t));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(McTrace::parse("not a trace"), None);
        assert_eq!(McTrace::parse("mc-trace v1\nchoices: 1,2"), None);
    }
}
