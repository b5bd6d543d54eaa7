//! Validation that *observed* wire traffic agrees with the cost model.
//!
//! A run's wire metrics (each rank's [`crate::wire::Wire`], merged over
//! ranks) hold one [`crate::metrics::OpMetrics`] entry per placed
//! communication operation;
//! [`crate::costsim::estimate`] predicts each operation's direct-wire
//! message count. This module compares the two:
//!
//! * **Per operation**, the prediction is an upper bound: the model counts
//!   every sender→receiver pair the operation's symbolic owner shape can
//!   produce, while an actual run may skip pairs (a DGEFA elimination step
//!   near the end of the matrix has fewer readers than processors; a shift
//!   whose distance is smaller than a block never leaves some blocks).
//!   Observed > predicted means the model undercounts — an error.
//! * **In aggregate over hoisted operations**, the observed total must
//!   reach a fixed fraction of the prediction (on more than one processor,
//!   when traffic is predicted at all) so the upper bound cannot hide a
//!   schedule that never communicates. Non-hoisted (inner-loop) operations
//!   are excluded from this lower bound: the model deliberately prices
//!   them per iteration — the pessimism that drives the paper's alignment
//!   choices — while an actual run communicates only on iterations whose
//!   producer and consumer differ (a block-boundary crossing).
//! * **Untracked fetches** — cross-processor traffic not attributable to
//!   any placed operation — are always an error: they mean the lowering's
//!   communication schedule misses real traffic.
//!
//! Reduction combines are excluded: they are [`crate::lower::ReduceOp`]s,
//! not placed `CommOp`s, and their traffic is tallied separately under the
//! `reduce` pattern key. Likewise data read during global control
//! evaluation (IF predicates, DO bounds) is tallied under `control`: the
//! schedule places no operation for it, because in the paper's model a
//! privatized predicate reads processor-local data.

use crate::costsim::CostReport;
use crate::lower::SpmdProgram;
use crate::metrics::CommMetrics;

/// Slack added to per-operation upper bounds (prediction and observation
/// are both integral; this only absorbs float formatting).
const PER_OP_SLACK: f64 = 0.5;

/// Minimum observed/predicted ratio for the aggregate lower bound.
const AGG_MIN_RATIO: f64 = 0.3;

/// One operation's prediction vs. observation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCheck {
    pub op_index: usize,
    pub pattern: &'static str,
    /// Placed below its statement's nesting level (vectorized)?
    pub hoisted: bool,
    pub predicted_messages: f64,
    pub observed_messages: u64,
}

/// Result of a successful cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossCheck {
    pub ops: Vec<OpCheck>,
    pub predicted_total: f64,
    pub observed_total: u64,
    pub untracked_messages: u64,
}

impl CrossCheck {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"predicted_total\":{},\"observed_total\":{},\"untracked_messages\":{},\"ops\":[",
            self.predicted_total, self.observed_total, self.untracked_messages
        );
        for (i, o) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"op\":{},\"pattern\":\"{}\",\"hoisted\":{},\"predicted\":{},\"observed\":{}}}",
                o.op_index, o.pattern, o.hoisted, o.predicted_messages, o.observed_messages
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Compare a cost report's per-operation message predictions against the
/// wire messages a run actually produced.
pub fn cross_check(
    sp: &SpmdProgram,
    cost: &CostReport,
    metrics: &CommMetrics,
) -> Result<CrossCheck, String> {
    if cost.comms.len() != sp.comms.len() {
        return Err(format!(
            "cost report has {} comm ops, program has {}",
            cost.comms.len(),
            sp.comms.len()
        ));
    }
    if metrics.per_op.len() != sp.comms.len() {
        return Err(format!(
            "metrics track {} comm ops, program has {}",
            metrics.per_op.len(),
            sp.comms.len()
        ));
    }
    if metrics.untracked_messages > 0 {
        return Err(format!(
            "{} cross-processor messages could not be attributed to any placed \
             communication operation",
            metrics.untracked_messages
        ));
    }
    let mut ops = Vec::with_capacity(sp.comms.len());
    let mut predicted_total = 0.0;
    let mut observed_total = 0u64;
    let mut predicted_hoisted = 0.0;
    let mut observed_hoisted = 0u64;
    for (i, (c, m)) in cost.comms.iter().zip(&metrics.per_op).enumerate() {
        let op = &sp.comms[i];
        let check = OpCheck {
            op_index: i,
            pattern: op.pattern.name(),
            hoisted: op.hoisted(),
            predicted_messages: c.messages,
            observed_messages: m.messages,
        };
        if check.observed_messages as f64 > check.predicted_messages + PER_OP_SLACK {
            return Err(format!(
                "op {} ({}, level {} of {}): observed {} wire messages exceeds \
                 predicted {}",
                i,
                check.pattern,
                op.level,
                op.stmt_level,
                check.observed_messages,
                check.predicted_messages
            ));
        }
        predicted_total += check.predicted_messages;
        observed_total += check.observed_messages;
        if check.hoisted {
            predicted_hoisted += check.predicted_messages;
            observed_hoisted += check.observed_messages;
        }
        ops.push(check);
    }
    if sp.maps.grid.total() > 1
        && predicted_hoisted > 0.0
        && (observed_hoisted as f64) < AGG_MIN_RATIO * predicted_hoisted
    {
        return Err(format!(
            "observed {} wire messages over the hoisted operations is under \
             {:.0}% of the predicted {} — the model grossly overcounts or \
             the run never communicated",
            observed_hoisted,
            AGG_MIN_RATIO * 100.0,
            predicted_hoisted
        ));
    }
    Ok(CrossCheck {
        ops,
        predicted_total,
        observed_total,
        untracked_messages: metrics.untracked_messages,
    })
}
