//! The communication / computation cost model.
//!
//! Calibrated to published IBM SP2 numbers of the paper's era (thin nodes,
//! MPL user-space communication): per-message latency ≈ 40 µs, point-to-
//! point bandwidth ≈ 35 MB/s, POWER2 nodes sustaining tens of Mflop/s on
//! stencil codes. Absolute times are *not* claimed to match the paper's
//! tables — the model exists so that the relative effects (inner-loop
//! vs. vectorized communication, replication vs. privatization, 1-D vs.
//! 2-D distributions) reproduce.

/// Machine timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineParams {
    pub name: String,
    /// Per-message startup (seconds).
    pub alpha: f64,
    /// Per-byte transfer time (seconds).
    pub beta: f64,
    /// Time per floating-point operation (seconds).
    pub flop: f64,
    /// Fixed per-collective software overhead (seconds), added once per
    /// collective operation on top of the log-tree message costs.
    pub collective_overhead: f64,
}

impl MachineParams {
    /// IBM SP2 thin nodes with MPL (the paper's platform).
    pub fn sp2() -> MachineParams {
        MachineParams {
            name: "IBM SP2 (thin nodes, MPL)".into(),
            alpha: 40e-6,
            beta: 1.0 / 35e6,
            flop: 25e-9, // ~40 sustained Mflop/s
            collective_overhead: 10e-6,
        }
    }

    /// A contemporary commodity cluster (for sensitivity studies): ~1 µs
    /// MPI latency, ~10 GB/s links, ~10 Gflop/s sustained per core. The
    /// paper's effects shrink but do not vanish on such a machine —
    /// per-iteration messages still cost thousands of flops each.
    pub fn modern_cluster() -> MachineParams {
        MachineParams {
            name: "modern commodity cluster".into(),
            alpha: 1e-6,
            beta: 1.0 / 10e9,
            flop: 0.1e-9,
            collective_overhead: 0.5e-6,
        }
    }

    /// A deliberately communication-free machine (useful to isolate
    /// computation effects in ablation benches).
    pub fn zero_comm(name: &str, flop: f64) -> MachineParams {
        MachineParams {
            name: name.into(),
            alpha: 0.0,
            beta: 0.0,
            flop,
            collective_overhead: 0.0,
        }
    }

    /// Point-to-point message of `bytes`.
    pub fn msg(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }

    /// Broadcast of `bytes` to `p` processors (binomial tree).
    pub fn broadcast(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.collective_overhead + log2_ceil(p) as f64 * self.msg(bytes)
    }

    /// Reduction combine of `bytes` across `p` processors.
    pub fn reduce(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.collective_overhead + log2_ceil(p) as f64 * self.msg(bytes)
    }

    /// Collective shift (each processor sends one message of `bytes` to a
    /// neighbour; they proceed in parallel).
    pub fn shift(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.msg(bytes)
    }

    /// All-to-all transpose of `total_bytes` of data: each processor
    /// holds `total/p`, exchanging `total/p²` with each of the other
    /// `p-1` processors (pairwise phases proceed in parallel).
    pub fn transpose(&self, total_bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let per_pair = total_bytes / (p * p).max(1);
        self.collective_overhead + (p - 1) as f64 * self.msg(per_pair)
    }

    /// Computation time for `flops` floating-point operations.
    pub fn compute(&self, flops: u64) -> f64 {
        flops as f64 * self.flop
    }
}

pub fn log2_ceil(p: usize) -> u32 {
    debug_assert!(p > 0);
    usize::BITS - (p - 1).leading_zeros()
}

/// Aggregate cost/telemetry of a simulated run (per processor maxima are
/// taken by the simulator; these are the totals it reports).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    pub compute_s: f64,
    pub comm_s: f64,
    pub messages: u64,
    pub bytes: u64,
    pub collectives: u64,
}

impl CostBreakdown {
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s
    }

    pub fn add(&mut self, other: &CostBreakdown) {
        self.compute_s += other.compute_s;
        self.comm_s += other.comm_s;
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.collectives += other.collectives;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(16), 4);
        assert_eq!(log2_ceil(17), 5);
    }

    #[test]
    fn sp2_message_costs() {
        let m = MachineParams::sp2();
        // An 8-byte message is latency-dominated.
        let small = m.msg(8);
        assert!(small > 40e-6 && small < 41e-6);
        // A 1 MB message is bandwidth-dominated (~28.6 ms + latency).
        let big = m.msg(1 << 20);
        assert!(big > 0.029 && big < 0.031, "{}", big);
    }

    #[test]
    fn collectives_scale_logarithmically() {
        let m = MachineParams::sp2();
        let b4 = m.broadcast(8, 4);
        let b16 = m.broadcast(8, 16);
        assert!(b16 > b4);
        assert!(b16 < 3.0 * b4);
        assert_eq!(m.broadcast(8, 1), 0.0);
        assert_eq!(m.reduce(8, 1), 0.0);
    }

    #[test]
    fn vectorization_payoff() {
        // The core premise of the paper's cost reasoning: one message of
        // n elements is far cheaper than n messages of 1 element.
        let m = MachineParams::sp2();
        let n = 512usize;
        let vectorized = m.msg(8 * n);
        let scalarized = n as f64 * m.msg(8);
        assert!(scalarized / vectorized > 10.0);
    }

    #[test]
    fn modern_cluster_still_penalizes_latency() {
        // One message still costs ~10^4 flops on the modern preset: the
        // paper's placement logic stays relevant.
        let m = MachineParams::modern_cluster();
        assert!(m.msg(8) / m.flop > 1_000.0);
        assert!(m.msg(8) < MachineParams::sp2().msg(8));
    }

    #[test]
    fn breakdown_accumulates() {
        let mut a = CostBreakdown::default();
        a.add(&CostBreakdown {
            compute_s: 1.0,
            comm_s: 2.0,
            messages: 3,
            bytes: 4,
            collectives: 5,
        });
        assert_eq!(a.total_s(), 3.0);
        assert_eq!(a.messages, 3);
    }
}
