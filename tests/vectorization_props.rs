//! Property tests for message vectorization: over random kernel
//! configurations, the coalesced and per-element schedules must deliver
//! identical values through the threaded runtime, and coalescing must
//! never increase the number of messages sent over channels.

use phpf::compile::{compile_source, Options, Version};
use phpf::ir::Memory;
use phpf::kernels::{dgefa, tomcatv};
use phpf::spmd::runtime::validate_replay_opts;
use proptest::prelude::*;

/// Run both replay modes and compare: every authoritative (owner) slot is
/// already checked against the reference executor inside
/// `validate_replay_opts`; here we additionally compare the two replays'
/// memories slot-for-slot and their payload volumes.
fn both_modes(src: &str, init: impl Fn(&mut Memory) + Sync) -> Result<(), TestCaseError> {
    let c = compile_source(src, Options::new(Version::SelectedAlignment))
        .map_err(|e| TestCaseError::fail(format!("compile: {}", e)))?;
    let vec = validate_replay_opts(&c.spmd, &init, true)
        .map_err(|e| TestCaseError::fail(format!("vectorized replay: {}", e)))?;
    let elem = validate_replay_opts(&c.spmd, &init, false)
        .map_err(|e| TestCaseError::fail(format!("per-element replay: {}", e)))?;
    // Identical values delivered: owner copies of every array agree
    // between the two replays.
    let grid = &c.spmd.maps.grid;
    for (v, info) in c.spmd.program.vars.arrays() {
        let shape = info.shape().unwrap();
        let mapping = c.spmd.maps.of(v);
        for off in 0..shape.len() as usize {
            let idx = shape.delinearize(off);
            for pid in mapping.owner_on(grid, &idx).pids(grid) {
                prop_assert_eq!(
                    vec.mems[pid].array(v).get(off),
                    elem.mems[pid].array(v).get(off),
                    "array {} diverged between modes at {:?} on proc {}",
                    &info.name,
                    &idx,
                    pid
                );
            }
        }
    }
    prop_assert!(
        vec.metrics.messages() <= elem.metrics.messages(),
        "coalescing sent more messages: {} > {}",
        vec.metrics.messages(),
        elem.metrics.messages()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TOMCATV at random sizes and processor counts.
    #[test]
    fn tomcatv_modes_agree(n in 6i64..14, p in prop_oneof![Just(1usize), Just(2usize), Just(4usize)]) {
        let src = tomcatv::source(n, p, 2);
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let prog = &c.spmd.program;
        let (x0, y0) = tomcatv::init_mesh(n);
        let x = prog.vars.lookup("x").unwrap();
        let y = prog.vars.lookup("y").unwrap();
        both_modes(&src, move |m| {
            m.fill_real(x, &x0);
            m.fill_real(y, &y0);
        })?;
    }

    /// DGEFA on random well-conditioned matrices: data-dependent pivoting
    /// exercises the group-closing paths (GOTO-free but branch-heavy).
    #[test]
    fn dgefa_modes_agree(
        n in 6i64..14,
        p in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        seed in 0u64..1000,
    ) {
        let src = dgefa::source(n, p);
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let prog = &c.spmd.program;
        let a0 = dgefa::random_matrix(n, seed);
        let a = prog.vars.lookup("a").unwrap();
        both_modes(&src, move |m| {
            m.fill_real(a, &a0);
        })?;
    }
}
