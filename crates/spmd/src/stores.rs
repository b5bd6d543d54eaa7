//! The node programs' rank stores: which elements each rank allocates,
//! the bytes they take, and the memory budget a run must fit in.
//!
//! A node-program rank stores each array as its `hpf_dist::layout::
//! held_dims` box: its owned section along distributed dimensions, every
//! index along replicated, privatized and undistributed ones, nothing at
//! a `Fixed` coordinate it is not at. Values it receives stay in its
//! receive caches (`node`), so no overlap region is needed. The compile
//! report prints [`rank_stores`], and [`check_budget`] sizes a run from the
//! same derivation before anything is allocated.

use crate::lower::SpmdProgram;
use hpf_dist::layout::held_dims;
use hpf_ir::store::stored_bytes;
use hpf_ir::{HeldDim, Memory, VarId};

/// A node-program rank's memory: every array as its box.
pub fn rank_memory(sp: &SpmdProgram, pid: usize) -> Memory {
    let grid = &sp.maps.grid;
    let coords = grid.coords_of(pid);
    Memory::boxed(&sp.program, |v, shape| {
        Some(held_dims(sp.maps.of(v), grid, shape, &coords))
    })
}

/// One array's store on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankStore {
    pub array: VarId,
    pub pid: usize,
    /// The held indices, per array dimension.
    pub dims: Vec<HeldDim>,
    pub bytes: u64,
}

/// The store of every array on every rank, by array, then rank.
pub fn rank_stores(sp: &SpmdProgram) -> Vec<RankStore> {
    let grid = &sp.maps.grid;
    let mut out = Vec::new();
    for (v, info) in sp.program.vars.arrays() {
        let Some(shape) = info.shape() else { continue };
        for pid in grid.pids() {
            let dims = held_dims(sp.maps.of(v), grid, shape, &grid.coords_of(pid));
            let len = dims
                .iter()
                .fold(1u64, |n, d| n.saturating_mul(d.count() as u64));
            out.push(RankStore {
                array: v,
                pid,
                dims,
                bytes: len.saturating_mul(stored_bytes(info.ty) as u64),
            });
        }
    }
    out
}

/// The most bytes of array storage one thread-backend run may allocate,
/// over the sequential interpreter and every rank together.
pub const MEMORY_BUDGET: u64 = 1 << 30;

/// Check, before anything is allocated, that a thread-backend run of `sp`
/// fits [`MEMORY_BUDGET`]: the sequential interpreter's whole arrays plus
/// every rank's stores. With `boxed` the ranks run node programs and store
/// boxes; otherwise the reference executor keeps a whole memory per rank
/// and so does each replaying rank. The error names the array that takes
/// the most, its declaration line and the grid.
pub fn check_budget(sp: &SpmdProgram, boxed: bool) -> Result<(), String> {
    let grid = &sp.maps.grid;
    let p = &sp.program;
    let nproc = grid.total() as u64;
    let stores = if boxed { rank_stores(sp) } else { Vec::new() };
    // By array: (bytes over the whole run, bytes of the whole array).
    let mut per_array: Vec<(VarId, u64, u64)> = Vec::new();
    for (v, info) in p.vars.arrays() {
        let Some(shape) = info.shape() else { continue };
        let whole = (shape.len().max(0) as u64).saturating_mul(stored_bytes(info.ty) as u64);
        let ranks = if boxed {
            let mine = stores.iter().filter(|st| st.array == v);
            mine.fold(0u64, |sum, st| sum.saturating_add(st.bytes))
        } else {
            whole.saturating_mul(2 * nproc)
        };
        per_array.push((v, whole.saturating_add(ranks), whole));
    }
    let total = per_array
        .iter()
        .fold(0u64, |s, &(_, b, _)| s.saturating_add(b));
    if total <= MEMORY_BUDGET {
        return Ok(());
    }
    let Some(&(v, bytes, whole)) = per_array.iter().max_by_key(|&&(_, b, _)| b) else {
        return Ok(());
    };
    let line = p
        .vars
        .line(v)
        .map_or_else(String::new, |l| format!(" (declared on line {})", l));
    Err(format!(
        "memory budget exceeded: a run needs {} of array storage, over the {} budget; \
         array `{}`{} takes {} of it ({} whole) on the {}-processor grid {:?}",
        mib(total),
        mib(MEMORY_BUDGET),
        p.vars.name(v),
        line,
        mib(bytes),
        mib(whole),
        nproc,
        grid.dims()
    ))
}

fn mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_analysis::Analysis;
    use hpf_dist::MappingTable;
    use phpf_core::CoreConfig;

    fn lowered(src: &str) -> SpmdProgram {
        let p = hpf_ir::parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let d = phpf_core::map_program(&p, &a, &maps, CoreConfig::full());
        crate::lower::lower(&p, &a, &maps, d)
    }

    /// A program over the budget is refused before anything is
    /// allocated, naming the array, its line and the grid; the same
    /// array distributed instead of replicated fits.
    #[test]
    fn a_run_over_the_budget_is_refused_up_front() {
        let big = "!HPF$ PROCESSORS P(8)\n!HPF$ DISTRIBUTE (BLOCK) :: B\n\
                   REAL B(64)\nREAL A(4000, 8000)\nA(1, 1) = 1.0\n";
        let sp = lowered(big);
        let err = check_budget(&sp, true).unwrap_err();
        assert!(err.contains("array `a` (declared on line 4)"), "{err}");
        assert!(err.contains("8-processor grid [8]"), "{err}");
        let run = crate::node::run(&sp, &|_: &mut Memory| {}, true, false).unwrap_err();
        assert_eq!(run, err);
        let err = crate::validate_replay(&sp, |_| {}).unwrap_err();
        assert!(err.starts_with("memory budget exceeded"), "{err}");
        let fits = big.replace("REAL B(64)", "!HPF$ DISTRIBUTE (*, BLOCK) :: A\nREAL B(64)");
        assert_eq!(check_budget(&lowered(&fits), true), Ok(()));
        assert!(
            check_budget(&lowered(&fits), false).is_err(),
            "exec+replay keeps whole copies"
        );
    }

    #[test]
    fn rank_stores_sum_to_the_distributed_array() {
        let sp = lowered(
            "!HPF$ PROCESSORS P(3)\n!HPF$ DISTRIBUTE (CYCLIC(2)) :: A\nREAL A(11)\nINTEGER K(5)\n",
        );
        let stores = rank_stores(&sp);
        let a = sp.program.vars.lookup("a").unwrap();
        let a_bytes: u64 = stores
            .iter()
            .filter(|s| s.array == a)
            .map(|s| s.bytes)
            .sum();
        assert_eq!(a_bytes, 11 * 8);
        // The replicated K is whole on every rank.
        assert!(stores
            .iter()
            .filter(|s| s.array != a)
            .all(|s| s.bytes == 5 * 8));
        for pid in 0..3 {
            let mem = rank_memory(&sp, pid);
            for s in stores.iter().filter(|s| s.pid == pid) {
                assert_eq!(mem.array(s.array).bytes() as u64, s.bytes);
            }
        }
    }
}
