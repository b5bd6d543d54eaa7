//! Owner-sized rank stores. On TOMCATV, APPSP (1-D and 2-D grids) and
//! stencil2d, at P = 1, 2 and 4, two sizes each, under BLOCK and CYCLIC
//! and all six versions, every node-program rank allocates exactly the
//! elements it owns (`hpf_dist::layout::owned_count`), and its owner
//! slots end bit for bit equal to the sequential interpreter's. The
//! compile report's `== rank stores ==` section is what a run allocates.

use phpf::compile::{compile_source, Compiled, Options, Version};
use phpf::dist::layout::{held_dims, owned_count};
use phpf::ir::{HeldBox, Memory, Value};
use phpf::kernels::{appsp, tomcatv};
use phpf::spmd::{validate_replay, Engine, Replayed};

const VERSIONS: [Version; 6] = [
    Version::Replication,
    Version::ProducerAlignment,
    Version::SelectedAlignment,
    Version::NoReductionAlignment,
    Version::NoArrayPrivatization,
    Version::NoPartialPrivatization,
];

/// Deterministic contents for every REAL array.
fn fill(c: &Compiled) -> impl Fn(&mut Memory) + Sync {
    let arrays: Vec<_> = c
        .spmd
        .program
        .vars
        .arrays()
        .filter(|(_, info)| info.ty == phpf::ir::ScalarTy::Real)
        .map(|(v, info)| (v, info.shape().unwrap().len() as usize))
        .collect();
    move |m: &mut Memory| {
        for (k, &(v, n)) in arrays.iter().enumerate() {
            let data: Vec<f64> = (0..n)
                .map(|i| 1.0 + ((i * 5 + k * 3) % 19) as f64 * 0.125)
                .collect();
            m.fill_real(v, &data);
        }
    }
}

/// stencil2d on a `p1`×`p2` grid with `n`×`n` arrays.
fn stencil(n: i64, p1: usize, p2: usize) -> String {
    include_str!("../examples/hpf/stencil2d.hpf")
        .replace("PROCESSORS P(2,2)", &format!("PROCESSORS P({},{})", p1, p2))
        .replace("32", &n.to_string())
        .replace("31", &(n - 1).to_string())
}

/// The kernels at `p` processors and size `n`, BLOCK.
fn kernels(p: usize, n: i64) -> Vec<(String, String)> {
    let (p1, p2) = if p == 4 { (2, 2) } else { (1, p) };
    vec![
        (format!("TOMCATV n={n} P={p}"), tomcatv::source(n, p, 1)),
        (format!("APPSP 1-D n={n} P={p}"), appsp::source_1d(n, p, 1)),
        (
            format!("APPSP 2-D n={n} P={p1}x{p2}"),
            appsp::source_2d(n, p1, p2, 1),
        ),
        (
            format!("stencil2d n={n} P={p2}x{p1}"),
            stencil(2 * n, p2, p1),
        ),
    ]
}

fn same_bits(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Every rank's stores hold `owned_count` elements, and, outside arrays
/// with privatized dimensions, its owned elements equal the
/// interpreter's bit for bit.
fn check_stores(what: &str, c: &Compiled, run: &Replayed, seq: &Memory) {
    let sp = &c.spmd;
    let grid = &sp.maps.grid;
    for (v, info) in sp.program.vars.arrays() {
        let shape = info.shape().unwrap();
        let mapping = sp.maps.of(v);
        for pid in grid.pids() {
            let store = run.mems[pid].array(v);
            let owned = owned_count(mapping, grid, shape, pid);
            assert_eq!(
                store.len() as i64,
                owned,
                "{what}: rank {pid} holds {}",
                info.name
            );
            if !mapping.private_dims().is_empty() {
                continue;
            }
            let dims = held_dims(mapping, grid, shape, &grid.coords_of(pid));
            HeldBox::new(shape, dims).for_each(|_, off| {
                let got = store.try_get(off).expect("an owned element is held");
                let want = seq.array(v).get(off);
                assert!(
                    same_bits(got, want),
                    "{what}: rank {pid} {}{:?}: {got:?} vs {want:?}",
                    info.name,
                    shape.delinearize(off)
                );
            });
        }
    }
}

#[test]
fn ranks_hold_their_owned_elements_and_match_the_interpreter() {
    let mut checked = 0;
    for p in [1, 2, 4] {
        for n in [6, 9] {
            for (name, block) in kernels(p, n) {
                for (dist, src) in [
                    ("BLOCK", block.clone()),
                    ("CYCLIC", block.replace("BLOCK", "CYCLIC")),
                ] {
                    for v in VERSIONS {
                        let what = format!("{name} {dist} {}", v.name());
                        let c = compile_source(&src, Options::new(v))
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                        let init = fill(&c);
                        let run = validate_replay(&c.spmd, &init)
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_eq!(run.engine, Some(Engine::Node), "{what}");
                        let (seq, _) = phpf::ir::interp::run_program(&c.spmd.program, &init)
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                        check_stores(&what, &c, &run, &seq);
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 3 * 2 * 4 * 2 * VERSIONS.len());
}

/// The report's `== rank stores ==` lines give, per array and rank, the
/// bytes the run's store of it takes, and their sums per rank.
#[test]
fn the_report_gives_what_a_run_allocates() {
    for src in [
        tomcatv::source(9, 4, 1),
        stencil(12, 2, 2).replace("BLOCK", "CYCLIC"),
    ] {
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let run = validate_replay(&c.spmd, fill(&c)).unwrap();
        let report = c.report();
        let section = report
            .split("== rank stores ==\n")
            .nth(1)
            .and_then(|s| s.split("== reductions ==").next())
            .unwrap_or_else(|| panic!("no rank stores section:\n{report}"));
        let p = &c.spmd.program;
        let mut array = None;
        let mut pid = 0;
        let mut lines = 0;
        let mut per_rank = vec![0usize; run.mems.len()];
        for line in section.lines() {
            let bytes = |l: &str| -> usize {
                let l = l.strip_suffix(" bytes").unwrap_or_else(|| panic!("{l}"));
                l.rsplit(' ').next().unwrap().parse().unwrap()
            };
            if let Some(rest) = line.strip_prefix("bytes per rank: ") {
                let want: Vec<String> = per_rank
                    .iter()
                    .enumerate()
                    .map(|(q, b)| format!("[{q}] {b}"))
                    .collect();
                assert_eq!(rest, want.join(" "));
            } else if !line.starts_with(' ') {
                let (name, whole) = line.split_once(": ").unwrap();
                let v = p.vars.lookup(name).unwrap_or_else(|| panic!("{line}"));
                let len = p.vars.info(v).shape().unwrap().len() as usize;
                assert_eq!(
                    bytes(whole.strip_suffix(" whole").unwrap()),
                    len * 8,
                    "{line}"
                );
                array = Some(v);
                pid = 0;
            } else {
                let store = run.mems[pid].array(array.unwrap());
                assert_eq!(bytes(line), store.bytes(), "rank {pid}: {line}");
                assert_eq!(line.contains(" whole "), store.held().is_none(), "{line}");
                per_rank[pid] += store.bytes();
                pid += 1;
                lines += 1;
            }
        }
        assert_eq!(lines, p.vars.arrays().count() * run.mems.len(), "{section}");
    }
}
