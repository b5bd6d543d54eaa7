//! Property-based tests over the public API: ownership invariants,
//! iteration-partitioning correctness, affine algebra, parser round-trips,
//! and the big one — randomly generated stencil programs whose SPMD
//! execution must match the sequential interpreter under every compiler
//! version.

use phpf::compile::{compile_source, Options, Version};
use phpf::dist::{dist_owner, ProcGrid};
use phpf::ir::{parse_program, Affine, DistFormat, HeldDim, VarId};
use phpf::spmd::{node, validate_against_sequential};
use proptest::prelude::*;

// ---------------------------------------------------------------- dist --

proptest! {
    /// Every template position is owned by exactly one coordinate, and
    /// the owners are monotone for BLOCK.
    #[test]
    fn ownership_partitions_positions(
        extent in 1i64..200,
        nprocs in 1usize..17,
        fmt in prop_oneof![
            Just(DistFormat::Block),
            Just(DistFormat::Cyclic),
            (1usize..5).prop_map(DistFormat::BlockCyclic),
        ],
    ) {
        let mut last = 0usize;
        for pos in 0..extent {
            let o = dist_owner(fmt, pos, extent, nprocs);
            prop_assert!(o < nprocs, "owner in range");
            if fmt == DistFormat::Block {
                prop_assert!(o >= last, "block owners monotone");
                last = o;
            }
        }
    }

    /// The node programs bound a loop `DO i = lo, hi` over `A(a*i + b)`
    /// with the derivation the stores use: every iteration whose element
    /// lies in A is visited by exactly one grid coordinate, the one that
    /// owns it, and every iteration whose element lies outside A by all of
    /// them (each faults there). BLOCK at strides ±1 and ±2, CYCLIC and
    /// CYCLIC(1..4) at ±1, with loop ranges that cross either end of A.
    #[test]
    fn loop_sets_partition_owned_iterations(
        extent in 4i64..40,
        nprocs in 1usize..6,
        shape in prop_oneof![
            (prop_oneof![Just(1i64), Just(-1i64), Just(2i64), Just(-2i64)])
                .prop_map(|a| (DistFormat::Block, a)),
            (prop_oneof![Just(1i64), Just(-1i64)]).prop_map(|a| (DistFormat::Cyclic, a)),
            (1usize..5, prop_oneof![Just(1i64), Just(-1i64)])
                .prop_map(|(k, a)| (DistFormat::BlockCyclic(k), a)),
        ],
        b in -3i64..4,
        ends in (-3i64..3, -3i64..3),
    ) {
        let (fmt, a): (DistFormat, i64) = shape;
        // The iterations that reach A's ends, widened by `ends`.
        let (first, last) = ((1 - b) as f64 / a as f64, (extent - b) as f64 / a as f64);
        let (lo, hi) = (first.min(last).floor() as i64, first.max(last).ceil() as i64);
        let (lo, hi) = (lo + ends.0, hi + ends.1);
        if lo > hi {
            return Ok(());
        }
        let dist = match fmt {
            DistFormat::Block => "BLOCK".to_string(),
            DistFormat::Cyclic => "CYCLIC".to_string(),
            DistFormat::BlockCyclic(k) => format!("CYCLIC({k})"),
            DistFormat::Collapsed => unreachable!(),
        };
        let src = format!(
            "!HPF$ PROCESSORS P({nprocs})\n!HPF$ DISTRIBUTE ({dist}) :: A\nREAL A({extent})\n\
             INTEGER i\nDO i = {lo}, {hi}\n  A({a}*i + ({b})) = 1.0\nEND DO\n"
        );
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let loops = node::loop_visits(&c.spmd).unwrap();
        prop_assert_eq!(loops.len(), 1);
        // No grid dim line: every coordinate visits every iteration.
        let dims = &loops[0].dims;
        prop_assert!(dims.len() <= 1, "{:?}", dims);
        let sets = match dims.first() {
            Some(d) => d.sets.clone(),
            None => vec![vec![HeldDim::Range { lo, hi }]; nprocs],
        };
        for i in lo..=hi {
            let visits: Vec<usize> =
                (0..nprocs).filter(|&c| sets[c].iter().any(|s| s.local(i).is_some())).collect();
            let pos0 = a * i + b - 1;
            if (0..extent).contains(&pos0) {
                let owner = dist_owner(fmt, pos0, extent, nprocs);
                prop_assert_eq!(visits, vec![owner], "i = {} in\n{}", i, src);
            } else {
                prop_assert_eq!(visits.len(), nprocs, "i = {} in\n{}", i, src);
            }
        }
    }
}

// -------------------------------------------------------------- affine --

proptest! {
    /// Affine algebra: to_expr/from_expr round trip, addition and scaling
    /// agree with evaluation.
    #[test]
    fn affine_roundtrip_and_eval(
        c0 in -100i64..100,
        coeffs in proptest::collection::vec((0u32..6, -5i64..6), 0..4),
        vals in proptest::collection::vec(-10i64..10, 6),
    ) {
        let mut a = Affine::constant(c0);
        for &(v, c) in &coeffs {
            a = a.add(&Affine::var(VarId(v)).scale(c));
        }
        let back = Affine::from_expr(&a.to_expr()).unwrap();
        prop_assert_eq!(&back, &a);

        let env = |v: VarId| vals.get(v.index()).copied();
        let direct = a.eval(&env).unwrap();
        let doubled = a.scale(2).eval(&env).unwrap();
        prop_assert_eq!(doubled, 2 * direct);
        let sum = a.add(&a).eval(&env).unwrap();
        prop_assert_eq!(sum, 2 * direct);
    }
}

// -------------------------------------------------- grid round-tripping --

proptest! {
    #[test]
    fn grid_pid_coord_roundtrip(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let g = ProcGrid::new(dims);
        for pid in g.pids() {
            prop_assert_eq!(g.pid_of(&g.coords_of(pid)), pid);
        }
    }
}

// ------------------------------------------------ generated programs --

/// Build a random-but-valid 1-D stencil program with privatizable scalars.
fn gen_program(
    n: i64,
    nprocs: usize,
    dist: &str,
    off1: i64,
    off2: i64,
    use_temp: bool,
    two_stmts: bool,
) -> String {
    let lo = 1 + off1.abs().max(off2.abs());
    let hi = n - off1.abs().max(off2.abs());
    let body = if use_temp {
        format!(
            "  t = B(i{o1}) + C(i{o2})\n  A(i) = t * 0.5\n{}",
            if two_stmts { "  D(i) = t + 1.0\n" } else { "" },
            o1 = fmt_off(off1),
            o2 = fmt_off(off2),
        )
    } else {
        format!(
            "  A(i) = B(i{o1}) + C(i{o2})\n",
            o1 = fmt_off(off1),
            o2 = fmt_off(off2),
        )
    };
    format!(
        "!HPF$ PROCESSORS P({nprocs})\n\
         !HPF$ DISTRIBUTE ({dist}) :: A\n\
         !HPF$ ALIGN (i) WITH A(i) :: B, C, D\n\
         REAL A({n}), B({n}), C({n}), D({n})\n\
         INTEGER i\nREAL t\n\
         DO i = {lo}, {hi}\n{body}END DO\n"
    )
}

fn fmt_off(o: i64) -> String {
    if o == 0 {
        String::new()
    } else if o > 0 {
        format!("+{}", o)
    } else {
        format!("{}", o)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The big invariant: for random stencil programs, distributions and
    /// processor counts, every compiler version's SPMD execution equals
    /// sequential execution.
    #[test]
    fn random_stencils_preserve_semantics(
        n in 8i64..24,
        nprocs in 1usize..6,
        dist in prop_oneof![Just("BLOCK"), Just("CYCLIC")],
        off1 in -2i64..3,
        off2 in -2i64..3,
        use_temp in any::<bool>(),
        two_stmts in any::<bool>(),
        version in prop_oneof![
            Just(Version::Replication),
            Just(Version::ProducerAlignment),
            Just(Version::SelectedAlignment),
        ],
    ) {
        let src = gen_program(n, nprocs, dist, off1, off2, use_temp, two_stmts);
        let c = compile_source(&src, Options::new(version))
            .map_err(|e| TestCaseError::fail(format!("compile: {e}\n{src}")))?;
        let p = &c.spmd.program;
        let arrays: Vec<VarId> = ["a", "b", "c", "d"]
            .iter()
            .map(|x| p.vars.lookup(x).unwrap())
            .collect();
        let nn = n;
        validate_against_sequential(&c.spmd, move |m| {
            for (k, &v) in arrays.iter().enumerate() {
                let data: Vec<f64> =
                    (0..nn).map(|i| 0.25 + (i as f64) * 0.1 + k as f64).collect();
                m.fill_real(v, &data);
            }
        })
        .map_err(|e| TestCaseError::fail(format!("{e}\nversion={:?}\n{src}", version)))?;
    }

    /// The parser and pretty-printer round trip on generated programs.
    #[test]
    fn parse_pretty_roundtrip(
        n in 8i64..24,
        nprocs in 1usize..6,
        off1 in -2i64..3,
        off2 in -2i64..3,
    ) {
        let src = gen_program(n, nprocs, "BLOCK", off1, off2, true, true);
        let p1 = parse_program(&src).unwrap();
        let text = phpf::ir::pretty::print_program(&p1);
        let p2 = parse_program(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse: {e}\n{text}")))?;
        prop_assert_eq!(p1.num_stmts(), p2.num_stmts());
        prop_assert_eq!(p1.vars.len(), p2.vars.len());
    }

    /// Cost-model monotonicity: more data never costs less to move.
    #[test]
    fn cost_model_monotone(bytes in 1usize..100_000, p in 2usize..32) {
        let m = phpf::comm::MachineParams::sp2();
        prop_assert!(m.msg(bytes) <= m.msg(bytes + 1));
        prop_assert!(m.broadcast(bytes, p) <= m.broadcast(bytes + 8, p));
        prop_assert!(m.broadcast(bytes, p) <= m.broadcast(bytes, p * 2));
        prop_assert!(m.reduce(bytes, p) > 0.0);
    }

    /// Mapping-consistency invariant (paper Sec. 2.2): all reaching
    /// definitions of any use of a scalar carry the same mapping.
    #[test]
    fn mapping_consistency_across_reaching_defs(
        n in 8i64..24,
        nprocs in 2usize..6,
        off1 in -2i64..3,
    ) {
        let src = format!(
            "!HPF$ PROCESSORS P({nprocs})\n\
             !HPF$ DISTRIBUTE (BLOCK) :: A\n\
             !HPF$ ALIGN (i) WITH A(i) :: B, D\n\
             REAL A({n}), B({n}), D({n})\n\
             INTEGER i\nREAL t\n\
             DO i = 3, {hi}\n\
             \x20 IF (B(i) > 0.0) THEN\n\
             \x20   t = B(i{o})\n\
             \x20 ELSE\n\
             \x20   t = B(i) * 2.0\n\
             \x20 END IF\n\
             \x20 D(i) = t\n\
             END DO\n",
            hi = n - 3,
            o = fmt_off(off1),
        );
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let p = &c.spmd.program;
        let t = p.vars.lookup("t").unwrap();
        let defs = phpf::ir::visit::defs_of(p, t);
        let mappings: Vec<_> = defs.iter().map(|&d| c.spmd.decisions.scalar(d)).collect();
        for w in mappings.windows(2) {
            prop_assert_eq!(
                std::mem::discriminant(w[0]),
                std::mem::discriminant(w[1]),
                "all reaching defs share one mapping kind: {:?}",
                mappings
            );
        }
        // And semantics hold despite the branchy defs.
        let arrays: Vec<VarId> = ["a", "b", "d"].iter().map(|x| p.vars.lookup(x).unwrap()).collect();
        let nn = n;
        validate_against_sequential(&c.spmd, move |m| {
            for (k, &v) in arrays.iter().enumerate() {
                let data: Vec<f64> = (0..nn)
                    .map(|i| ((i * (k as i64 + 3)) % 7) as f64 - 3.0)
                    .collect();
                m.fill_real(v, &data);
            }
        })
        .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;
    }
}
