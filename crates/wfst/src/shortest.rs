//! Single-source shortest path.
//!
//! The tropical-semiring shortest path through a WFST is exactly the
//! Viterbi best hypothesis when acoustic scores are folded into arc
//! weights — which makes this module an *independent oracle* for the
//! beam decoders: on small graphs, an untimed exact search must agree
//! with the pruned decoders' output (the integration tests rely on
//! this).
//!
//! The algorithm is a label-correcting relaxation (Bellman-Ford-style
//! with a deque), correct for graphs with negative arcs as long as no
//! negative cycle exists — back-off weights can be negative, so
//! Dijkstra would be unsound here.

use std::collections::VecDeque;

use crate::arc::{Label, StateId, EPSILON};
use crate::fst::Wfst;

/// A shortest path through a WFST.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPath {
    /// Total path cost including the final weight.
    pub cost: f32,
    /// States visited, starting at the start state.
    pub states: Vec<StateId>,
    /// Output labels emitted along the path (epsilons skipped).
    pub olabels: Vec<Label>,
    /// Input labels consumed along the path (epsilons skipped).
    pub ilabels: Vec<Label>,
}

/// Computes the best path from the start state to any final state.
///
/// Returns `None` for empty machines or when no final state is
/// reachable.
///
/// # Panics
/// Panics on negative-cost cycles (relaxation budget exceeded).
pub fn shortest_path(fst: &Wfst) -> Option<ShortestPath> {
    let n = fst.num_states();
    if n == 0 {
        return None;
    }
    let mut dist = vec![f32::INFINITY; n];
    let mut pred: Vec<Option<(StateId, usize)>> = vec![None; n];
    let start = fst.start();
    dist[start as usize] = 0.0;
    let mut queue: VecDeque<StateId> = VecDeque::new();
    let mut in_queue = vec![false; n];
    queue.push_back(start);
    in_queue[start as usize] = true;

    let budget = (n as u64 + 1) * (fst.num_arcs() as u64 + 1) + 1;
    let mut relaxations = 0u64;
    while let Some(s) = queue.pop_front() {
        in_queue[s as usize] = false;
        let ds = dist[s as usize];
        for (i, arc) in fst.arcs(s).iter().enumerate() {
            relaxations += 1;
            assert!(
                relaxations <= budget,
                "shortest_path: negative cycle suspected"
            );
            let nd = ds + arc.weight;
            if nd < dist[arc.nextstate as usize] {
                dist[arc.nextstate as usize] = nd;
                pred[arc.nextstate as usize] = Some((s, i));
                if !in_queue[arc.nextstate as usize] {
                    queue.push_back(arc.nextstate);
                    in_queue[arc.nextstate as usize] = true;
                }
            }
        }
    }

    // Best final state.
    let mut best: Option<(StateId, f32)> = None;
    for s in fst.states() {
        if let Some(fw) = fst.final_weight(s) {
            let total = dist[s as usize] + fw;
            if total.is_finite() && best.is_none_or(|(_, c)| total < c) {
                best = Some((s, total));
            }
        }
    }
    let (final_state, cost) = best?;

    // Backtrace.
    let mut states = vec![final_state];
    let mut arcs_taken: Vec<(StateId, usize)> = Vec::new();
    let mut cur = final_state;
    while let Some((prev, arc_idx)) = pred[cur as usize] {
        arcs_taken.push((prev, arc_idx));
        states.push(prev);
        cur = prev;
        if cur == start && dist[start as usize] == 0.0 && pred[start as usize].is_none() {
            break;
        }
    }
    states.reverse();
    arcs_taken.reverse();
    let mut olabels = Vec::new();
    let mut ilabels = Vec::new();
    for &(s, i) in &arcs_taken {
        let arc = &fst.arcs(s)[i];
        if arc.olabel != EPSILON {
            olabels.push(arc.olabel);
        }
        if arc.ilabel != EPSILON {
            ilabels.push(arc.ilabel);
        }
    }
    Some(ShortestPath {
        cost,
        states,
        olabels,
        ilabels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arc::Arc;
    use crate::fst::WfstBuilder;

    #[test]
    fn picks_the_cheaper_branch() {
        let mut b = WfstBuilder::with_states(4);
        b.set_start(0);
        b.set_final(3, 0.0);
        b.add_arc(0, Arc::new(1, 10, 5.0, 1));
        b.add_arc(0, Arc::new(2, 20, 1.0, 2));
        b.add_arc(1, Arc::new(3, 0, 0.0, 3));
        b.add_arc(2, Arc::new(4, 0, 1.0, 3));
        let p = shortest_path(&b.build()).unwrap();
        assert_eq!(p.cost, 2.0);
        assert_eq!(p.olabels, vec![20]);
        assert_eq!(p.states, vec![0, 2, 3]);
    }

    #[test]
    fn includes_final_weight() {
        let mut b = WfstBuilder::with_states(3);
        b.set_start(0);
        b.set_final(1, 10.0);
        b.set_final(2, 0.5);
        b.add_arc(0, Arc::new(1, 0, 1.0, 1));
        b.add_arc(0, Arc::new(2, 0, 2.0, 2));
        // 1.0 + 10.0 = 11 via state 1; 2.0 + 0.5 = 2.5 via state 2.
        let p = shortest_path(&b.build()).unwrap();
        assert_eq!(p.cost, 2.5);
        assert_eq!(*p.states.last().unwrap(), 2);
    }

    #[test]
    fn handles_negative_arcs() {
        // Back-off weights can be negative; Dijkstra would get this wrong.
        let mut b = WfstBuilder::with_states(4);
        b.set_start(0);
        b.set_final(3, 0.0);
        b.add_arc(0, Arc::new(1, 0, 1.0, 1)); // looks cheap first
        b.add_arc(1, Arc::new(2, 0, 3.0, 3));
        b.add_arc(0, Arc::new(3, 0, 5.0, 2)); // looks expensive first
        b.add_arc(2, Arc::new(4, 0, -3.0, 3)); // but has a negative arc
        let p = shortest_path(&b.build()).unwrap();
        assert_eq!(p.cost, 2.0);
        assert_eq!(p.states, vec![0, 2, 3]);
    }

    #[test]
    fn unreachable_final_returns_none() {
        let mut b = WfstBuilder::with_states(2);
        b.set_start(0);
        b.set_final(1, 0.0);
        // no arcs
        assert!(shortest_path(&b.build()).is_none());
    }

    #[test]
    fn empty_machine_returns_none() {
        assert!(shortest_path(&WfstBuilder::new().build()).is_none());
    }

    #[test]
    #[should_panic(expected = "negative cycle")]
    fn negative_cycle_panics() {
        let mut b = WfstBuilder::with_states(2);
        b.set_start(0);
        b.set_final(1, 0.0);
        b.add_arc(0, Arc::new(1, 0, 1.0, 1));
        b.add_arc(1, Arc::new(2, 0, -2.0, 0));
        let _ = shortest_path(&b.build());
    }

    #[test]
    fn start_state_can_be_final() {
        let mut b = WfstBuilder::with_states(2);
        b.set_start(0);
        b.set_final(0, 0.25);
        b.add_arc(0, Arc::new(1, 0, 9.0, 1));
        let p = shortest_path(&b.build()).unwrap();
        assert_eq!(p.cost, 0.25);
        assert!(p.olabels.is_empty());
    }
}
