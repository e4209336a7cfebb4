//! The scripted schedule strategy.
//!
//! A [`ScriptHook`] is the bridge between the explorer and the runtime: it
//! implements [`ScheduleHook`] by following a fixed prefix of choice
//! indices and defaulting to index 0 (the stock deterministic schedule)
//! once the prefix runs out. Every decision it makes — how many events
//! were eligible, which was taken, the state fingerprint at the point —
//! is recorded, so one execution both *replays* a schedule and *reveals*
//! the choice points available for expansion.

use std::sync::Arc;

use parking_lot::Mutex;
use semplar_runtime::{Choice, ScheduleHook, Time};

/// What happened at one choice point of one execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChoiceRecord {
    /// How many events were eligible at this point.
    pub alternatives: usize,
    /// The index that was taken (0 = the default schedule's event).
    pub chosen: usize,
    /// The runtime's state fingerprint at the instant of the choice.
    pub fingerprint: u64,
    /// Human-readable label of the chosen event (schedule-point tag, or
    /// `actor/reason` for plain timers).
    pub label: String,
    /// Labels of **every** eligible event at this point, in engine order
    /// (`eligible[chosen] == label`). The explorer's partial-order
    /// reduction consults these to decide whether an unexplored
    /// alternative commutes with the event the default schedule took.
    pub eligible: Vec<String>,
}

/// A [`ScheduleHook`] that follows a scripted prefix of choice indices,
/// then takes the default (index 0) for every later point, recording each
/// decision as a [`ChoiceRecord`].
pub struct ScriptHook {
    script: Vec<usize>,
    records: Mutex<Vec<ChoiceRecord>>,
}

impl ScriptHook {
    /// A hook that follows `script` and then defaults. The engine is
    /// deterministic, so a scripted index out of range for its point means
    /// the scenario is not a function of its schedule: the run fails with
    /// `schedule diverged at point k (wanted i of n)` instead of carrying
    /// on along a schedule nobody asked for.
    pub fn follow(script: Vec<usize>) -> Arc<ScriptHook> {
        Arc::new(ScriptHook {
            script,
            records: Mutex::new(Vec::new()),
        })
    }

    /// The empty script: index 0 at every point — the stock schedule.
    pub fn default_schedule() -> Arc<ScriptHook> {
        ScriptHook::follow(Vec::new())
    }

    /// The decisions made so far, in choice-point order.
    pub fn records(&self) -> Vec<ChoiceRecord> {
        self.records.lock().clone()
    }
}

impl ScheduleHook for ScriptHook {
    fn choose(&self, _now: Time, fingerprint: u64, eligible: &[Choice]) -> usize {
        let mut recs = self.records.lock();
        let chosen = self.script.get(recs.len()).copied().unwrap_or(0);
        assert!(
            chosen < eligible.len(),
            "schedule diverged at point {} (wanted {chosen} of {})",
            recs.len(),
            eligible.len()
        );
        recs.push(ChoiceRecord {
            alternatives: eligible.len(),
            chosen,
            fingerprint,
            label: eligible[chosen].label(),
            eligible: eligible.iter().map(Choice::label).collect(),
        });
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_runtime::Dur;

    fn choice(name: &str) -> Choice {
        Choice {
            actor: name.to_string(),
            blocked_on: "sleep",
            at: Time::ZERO + Dur::from_millis(1),
            tag: None,
        }
    }

    #[test]
    fn follows_script_then_defaults_and_records() {
        let hook = ScriptHook::follow(vec![1, 2]);
        let elig = vec![choice("a"), choice("b"), choice("c")];
        assert_eq!(hook.choose(Time::ZERO, 11, &elig), 1);
        assert_eq!(hook.choose(Time::ZERO, 22, &elig), 2);
        assert_eq!(
            hook.choose(Time::ZERO, 33, &elig),
            0,
            "past script: default"
        );
        let recs = hook.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].chosen, 1);
        assert_eq!(recs[0].alternatives, 3);
        assert_eq!(recs[0].fingerprint, 11);
        assert_eq!(recs[0].label, "b/sleep");
        assert_eq!(recs[0].eligible, ["a/sleep", "b/sleep", "c/sleep"]);
        assert_eq!(recs[1].chosen, 2);
        assert_eq!(recs[2].chosen, 0);
    }

    #[test]
    #[should_panic(expected = "schedule diverged at point 1 (wanted 9 of 3)")]
    fn an_out_of_range_scripted_index_fails_the_run() {
        let hook = ScriptHook::follow(vec![1, 9]);
        let elig = vec![choice("a"), choice("b"), choice("c")];
        assert_eq!(hook.choose(Time::ZERO, 11, &elig), 1);
        hook.choose(Time::ZERO, 22, &elig);
    }
}
