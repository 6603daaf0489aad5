//! Bridge from recorded `zipper-policy` decision traces into the span
//! log, so policy decisions can be inspected alongside the substrate's
//! timing lanes (and exported through the same Chrome-trace/JSONL path).
//!
//! A decision trace is ordinal, not temporal: the kernel records the
//! *order* of decisions, never when they happened. Each event therefore
//! becomes a zero-duration [`SpanKind::Policy`] marker whose timestamp is
//! its sequence number in nanoseconds — rendering tools show the decision
//! sequence, and no marker ever inflates a time-per-kind breakdown.

use crate::{Span, SpanKind, TraceLog};
use zipper_policy::{DecisionTrace, PolicyEvent};
use zipper_types::SimTime;

/// Lane label carrying one entity's policy decisions (entities are
/// typically `"p3"` / `"q0"` style rank names).
pub fn lane_label(entity: &str) -> String {
    format!("policy/{entity}")
}

/// Inject every event of `trace` as a zero-duration [`SpanKind::Policy`]
/// marker on the `policy/<entity>` lane, timestamped by decision sequence
/// number. Block-bearing events (routes, steals, store decisions) carry
/// their simulation step as the span's step marker. A trace with no
/// events creates no lane.
pub fn inject(log: &mut TraceLog, entity: &str, trace: &DecisionTrace) {
    if trace.events().is_empty() {
        return;
    }
    let lane = log.lane(lane_label(entity));
    for (seq, ev) in trace.events().iter().enumerate() {
        let t = SimTime::from_nanos(seq as u64);
        let mut span = Span::new(lane, SpanKind::Policy, t, t);
        if let PolicyEvent::Route { block, .. }
        | PolicyEvent::Steal { block }
        | PolicyEvent::StoreDecision { block, .. } = ev
        {
            span = span.with_step(block.step.0);
        }
        log.record(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipper_policy::{ProducerPolicy, RankScript};
    use zipper_types::{BlockId, Rank, RoutingPolicy, StepId};

    #[test]
    fn empty_trace_creates_no_lane() {
        let mut log = TraceLog::new();
        let policy = ProducerPolicy::new(Rank(0), 2, RoutingPolicy::RoundRobin, 4, true);
        inject(&mut log, "p0", policy.trace());
        assert_eq!(log.lane_count(), 0);
    }

    #[test]
    fn decisions_become_ordinal_policy_markers() {
        let policy = ProducerPolicy::new(Rank(1), 2, RoutingPolicy::RoundRobin, 4, true);
        let mut script = RankScript::new(policy.recorded(), Vec::new());
        script.take_net(BlockId::new(Rank(1), StepId(7), 0));
        script.take_disk(BlockId::new(Rank(1), StepId(7), 1));
        let mut log = TraceLog::new();
        inject(&mut log, "p1", script.policy().trace());

        let lane = log.lane_by_label("policy/p1").expect("lane exists");
        let spans = log.lane_spans(lane);
        // route + (steal + route) = 3 markers.
        assert_eq!(spans.len(), 3);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.kind, SpanKind::Policy);
            assert_eq!(s.duration(), SimTime::ZERO);
            assert_eq!(s.t0, SimTime::from_nanos(i as u64));
            assert_eq!(s.step, 7);
        }
    }
}
