#!/usr/bin/env sh
# CI gate: build, full test suite, lints, and the paper-table binaries'
# machine-readable output. Run from the repository root.
set -eu

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo clippy -p hpf-verify -D warnings (verifier must stay lint-clean)"
cargo clippy -p hpf-verify --all-targets -q -- -D warnings

echo "==> static verification (phpfc --verify on the three paper kernels)"
for example in tomcatv_small dgefa_small appsp_small; do
    set +e
    out=$(./target/release/phpfc "examples/hpf/$example.hpf" --verify 2>&1)
    status=$?
    set -e
    if [ "$status" -ne 0 ]; then
        echo "FAIL: phpfc --verify rejected $example" >&2
        echo "$out" >&2
        exit "$status"
    fi
    echo "$out" | grep -q 'verify: privatization ok, schedule ok, races ok' || {
        echo "FAIL: $example --verify printed no clean verdict line" >&2
        echo "$out" >&2
        exit 1
    }
done

echo "==> trace cross-validation (golden trace through --verify-trace)"
goldtrace=$(mktemp -t phpfc-golden.XXXXXX)
trap 'rm -f "$goldtrace"' EXIT
./target/release/phpfc examples/hpf/tomcatv_small.hpf --trace "$goldtrace" >/dev/null
set +e
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --verify-trace "$goldtrace" 2>&1)
status=$?
set -e
if [ "$status" -ne 0 ]; then
    echo "FAIL: --verify-trace rejected the golden trace it just recorded" >&2
    echo "$out" >&2
    exit "$status"
fi
echo "$out" | grep -q 'linearization of the static happens-before relation' || {
    echo "FAIL: --verify-trace printed no linearization verdict" >&2
    echo "$out" >&2
    exit 1
}

echo "==> a reordered trace is rejected (--verify-trace reports T301)"
# Swap two adjacent, distinct comm events of one rank in the golden trace
# (the timestamps stay where they were): a reordering across a
# program-order happens-before edge, which --verify-trace must reject.
if command -v python3 >/dev/null 2>&1; then
    tampered=$(mktemp -t phpfc-tampered.XXXXXX)
    trap 'rm -f "$goldtrace" "$tampered"' EXIT
    python3 - "$goldtrace" "$tampered" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
per_rank = {}
for i, e in enumerate(events):
    if e.get("cat") == "comm":
        per_rank.setdefault(e["pid"], []).append(i)
def swap():
    for idx in per_rank.values():
        for a, b in zip(idx, idx[1:]):
            ea, eb = dict(events[a], ts=0), dict(events[b], ts=0)
            if ea != eb:
                events[a] = dict(eb, ts=events[a]["ts"])
                events[b] = dict(ea, ts=events[b]["ts"])
                return
    sys.exit("no rank has two distinct adjacent comm events to swap")
swap()
json.dump(events, open(sys.argv[2], "w"))
EOF
    set +e
    out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --verify-trace "$tampered" 2>&1)
    status=$?
    set -e
    rm -f "$tampered"
    if [ "$status" -eq 0 ] || ! echo "$out" | grep -q 'T301'; then
        echo "FAIL: --verify-trace accepted a reordered trace or printed no T301 (exit $status)" >&2
        echo "$out" >&2
        exit 1
    fi
else
    echo "python3 not found: skipping the reordered-trace stage"
fi

echo "==> every example traced on both backends, then cross-validated (--trace, --verify-trace)"
# Each backend's per-rank comm timelines, per-element messages included
# (their class and loop levels travel with the events), must be a
# linearization of the schedule --verify-trace derives.
extrace=$(mktemp -t phpfc-example.XXXXXX)
for hpf in examples/hpf/*.hpf; do
    for backend in thread socket; do
        set +e
        out=$(./target/release/phpfc "$hpf" --backend "$backend" --trace "$extrace" 2>&1) &&
            out=$(./target/release/phpfc "$hpf" --verify-trace "$extrace" 2>&1)
        status=$?
        set -e
        if [ "$status" -ne 0 ] || ! echo "$out" | grep -q 'linearization of the static happens-before relation'; then
            echo "FAIL: $hpf --backend $backend: --trace then --verify-trace did not pass" >&2
            echo "$out" >&2
            rm -f "$extrace"
            exit 1
        fi
    done
done
rm -f "$extrace"

echo "==> phpfc --verify names the schedule it checked"
# TOMCATV is verified on its node programs' own schedule; DGEFA falls
# back to the reference executor's trace, with the engine's reason.
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --verify 2>&1)
echo "$out" | grep -qx 'verify: node programs' || {
    echo "FAIL: TOMCATV --verify did not check the node programs' schedule" >&2
    echo "$out" >&2
    exit 1
}
out=$(./target/release/phpfc examples/hpf/dgefa_small.hpf --verify 2>&1)
echo "$out" | grep -q '^verify: exec+replay (IF .* reads an array element or a non-replicated scalar)$' || {
    echo "FAIL: DGEFA --verify did not name the executor's schedule and its reason" >&2
    echo "$out" >&2
    exit 1
}

echo "==> bench binaries emit BENCH_JSON (with a backend name and verification verdict)"
for bin in table1 table2 table3; do
    out=$(cargo run -q --release -p phpf-bench --bin "$bin")
    echo "$out" | grep -q '^BENCH_JSON {' || {
        echo "FAIL: $bin printed no BENCH_JSON line" >&2
        exit 1
    }
    echo "$out" | grep -q '"backend":' || {
        echo "FAIL: $bin BENCH_JSON line names no backend" >&2
        exit 1
    }
    echo "$out" | grep -q '"verified":{"privatization":true,"schedule":true,"races":true}' || {
        echo "FAIL: $bin BENCH_JSON carries no clean verification verdict" >&2
        exit 1
    }
done

echo "==> perfbench selftest (executor, trace and wire counts repeat per seed)"
# Builds the benchmark offline into $CARGO_TARGET_DIR (default .bench_build)
# and exits nonzero if a count metric differs between two runs of one seed
# or the interpreter disagrees with the kernels' reference implementations.
python3 perfbench/run.py --selftest

echo "==> socket backend smoke (TOMCATV small, 4 worker processes)"
# Capture stderr too: the networker children inherit the driver's stderr,
# and the driver folds their exit statuses into its own ("worker N exited
# with ..."), so a failing child must fail this stage with its diagnostics
# visible — not just whatever the driver printed on stdout.
set +e
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --backend socket 2>&1)
status=$?
set -e
if [ "$status" -ne 0 ]; then
    echo "FAIL: socket smoke exited $status (driver or networker worker failure)" >&2
    echo "$out" >&2
    exit "$status"
fi
echo "$out" | grep -q 'backend socket: replay on 4 worker processes matched' || {
    echo "FAIL: socket backend replay did not validate" >&2
    echo "$out" >&2
    exit 1
}
echo "$out" | grep -q 'cross-check: observed' || {
    echo "FAIL: socket backend run produced no cost-model cross-check" >&2
    echo "$out" >&2
    exit 1
}

echo "==> socket backend smoke (DGEFA small, 11 epochs streamed while the executor runs)"
# TOMCATV has only 3 epoch cuts; DGEFA's pivot loop cuts an epoch per
# column, so its workers replay epoch k while the executor produces k+1.
set +e
out=$(./target/release/phpfc examples/hpf/dgefa_small.hpf --backend socket 2>&1)
status=$?
set -e
if [ "$status" -ne 0 ]; then
    echo "FAIL: DGEFA socket smoke exited $status" >&2
    echo "$out" >&2
    exit "$status"
fi
echo "$out" | grep -q 'backend socket: replay on 4 worker processes matched' || {
    echo "FAIL: DGEFA socket replay did not validate" >&2
    echo "$out" >&2
    exit 1
}

echo "==> DO variable read after its loop (both backends match the reference)"
# examples/hpf/do_exit_value.hpf reads the loop index after the loop; the
# ranks that own B(1) never see the loop exit, so replay must take the
# value from the reading statement's recorded bindings.
for backend in thread socket; do
    set +e
    out=$(./target/release/phpfc examples/hpf/do_exit_value.hpf --backend "$backend" 2>&1)
    status=$?
    set -e
    if [ "$status" -ne 0 ]; then
        echo "FAIL: do_exit_value --backend $backend exited $status" >&2
        echo "$out" >&2
        exit "$status"
    fi
    echo "$out" | grep -q "backend $backend: .* on 4 worker .* matched" || {
        echo "FAIL: do_exit_value --backend $backend replay did not match the reference" >&2
        echo "$out" >&2
        exit 1
    }
done

echo "==> a reduction Sum whose partials round matches on the socket backend"
# examples/hpf/row_sum.hpf sums A(i,j) / 3.0 across four ranks. Every
# engine folds the partials in ascending pid order, so the workers'
# replay matches the reference executor bit for bit.
set +e
out=$(./target/release/phpfc examples/hpf/row_sum.hpf --backend socket 2>&1)
status=$?
set -e
if [ "$status" -ne 0 ] || ! echo "$out" | grep -q 'backend socket: replay on 4 worker processes matched'; then
    echo "FAIL: row_sum --backend socket exited $status or did not match the reference" >&2
    echo "$out" | tail -5 >&2
    exit 1
fi

echo "==> thread backend engine choice (node programs, or exec+replay with its reason)"
# TOMCATV's ranks run their own node programs; DGEFA's pivot search reads
# the matrix in an IF predicate, so it stays on the reference executor and
# replay, and phpfc names that reason.
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --backend thread 2>&1)
echo "$out" | grep -qx 'engine: node programs' || {
    echo "FAIL: TOMCATV on the thread backend did not run as node programs" >&2
    echo "$out" >&2
    exit 1
}
out=$(./target/release/phpfc examples/hpf/dgefa_small.hpf --backend thread 2>&1)
echo "$out" | grep -q '^engine: exec+replay (IF .* reads an array element or a non-replicated scalar)$' || {
    echo "FAIL: DGEFA on the thread backend did not name its exec+replay reason" >&2
    echo "$out" >&2
    exit 1
}

echo "==> compile report prints the node programs' iteration sets"
# The report's local iteration sets are the plan the ranks run. TOMCATV:
# each DO j is bounded by the owners of its columns (the first nest's
# with the halo columns j+1 and j-1) and each DO i by the owner of column
# j, j+1 or j-1; no loop is left to a runtime-guard placeholder.
# stencil2d: along grid dim 0, each coordinate also visits the halo row
# it serves its neighbour (17 for coordinate 0, 16 for coordinate 1).
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf 2>&1)
for pattern in '^engine: node programs$' \
    '^s[0-9]* *DO j = 2, 11: owner of ' \
    '^ *grid dim 0: \[0:2\.\.4\] \[1:3\.\.7\] \[2:6\.\.10\] \[3:9\.\.11\]$' \
    '^s[0-9]* *DO i = 2, 11: owner of .*,j + 1).*,j - 1)$'; do
    echo "$out" | grep -q "$pattern" || {
        echo "FAIL: TOMCATV report lacks a line matching $pattern" >&2
        echo "$out" >&2
        exit 1
    }
done
if echo "$out" | grep -q '(runtime ownership guards)'; then
    echo "FAIL: TOMCATV report still prints (runtime ownership guards)" >&2
    exit 1
fi
out=$(./target/release/phpfc examples/hpf/stencil2d.hpf 2>&1)
echo "$out" | grep -qx ' *grid dim 0: \[0:2\.\.17\] \[1:16\.\.31\]' || {
    echo "FAIL: stencil2d report lacks the halo rows 17 and 16 of its first nest" >&2
    echo "$out" >&2
    exit 1
}

echo "==> a CYCLIC(2) loop is bounded like its stores"
# Each rank visits only its blocks of two, the indices its store holds.
cyc2hpf=$(mktemp -t phpfc-cyclic2.XXXXXX)
printf '!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE (CYCLIC(2)) :: A\nREAL A(16)\nINTEGER i\nDO i = 1, 16\n  A(i) = A(i) * 2.0\nEND DO\n' > "$cyc2hpf"
out=$(./target/release/phpfc "$cyc2hpf" 2>&1)
rm -f "$cyc2hpf"
echo "$out" | grep -qx ' *grid dim 0: \[0:1\.\.10:8x2\] \[1:3\.\.12:8x2\] \[2:5\.\.14:8x2\] \[3:7\.\.16:8x2\]' || {
    echo "FAIL: the CYCLIC(2) loop's report has no grid dim 0 line with each rank's blocks" >&2
    echo "$out" >&2
    exit 1
}

echo "==> a BLOCK loop past its array fails --verify naming the rank and statement"
# DO i = 1, 9 over A(8): the rank that visits i = 9 faults, as the
# executor does, and the verifier reports an S100 at the assignment.
oobhpf=$(mktemp -t phpfc-oob.XXXXXX)
printf '!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE (BLOCK) :: A\nREAL A(8)\nINTEGER i\nDO i = 1, 9\n  A(i) = 1.0\nEND DO\n' > "$oobhpf"
set +e
out=$(./target/release/phpfc "$oobhpf" --verify 2>&1)
status=$?
set -e
rm -f "$oobhpf"
if [ "$status" -ne 1 ] || ! echo "$out" | grep -q '^error\[S100\]: rank [0-9]' ||
    ! echo "$out" | grep -q '^  --> stmt 0: `a(i) = 1.0`'; then
    echo "FAIL: --verify on a loop past its array exited $status without a located S100" >&2
    echo "$out" >&2
    exit 1
fi

echo "==> socket-only flags without --backend socket are a usage error"
set +e
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --fault-plan 'kill:1@5' 2>&1)
status=$?
set -e
if [ "$status" -ne 2 ]; then
    echo "FAIL: --fault-plan on the thread backend exited $status, not 2" >&2
    echo "$out" >&2
    exit 1
fi
echo "$out" | grep -q -- '--fault-plan needs --backend socket' || {
    echo "FAIL: the --fault-plan usage error does not name --backend socket" >&2
    echo "$out" >&2
    exit 1
}

echo "==> a run over the memory budget is refused with a located error"
# 16 ranks each holding a replicated 4000x4000 REAL array need about 2 GiB:
# phpfc sizes the run from the layouts before allocating anything and
# exits 1 naming the array, its declaration line and the grid (no OOM
# kill, no panic).
bighpf=$(mktemp -t phpfc-budget.XXXXXX)
printf '!HPF$ PROCESSORS P(16)\nREAL A(4000,4000)\nA(1,1) = 1.0\n' > "$bighpf"
set +e
out=$(./target/release/phpfc "$bighpf" --observe 2>&1)
status=$?
set -e
rm -f "$bighpf"
if [ "$status" -ne 1 ] || echo "$out" | grep -q 'panicked'; then
    echo "FAIL: an oversized run exited $status, not 1 with an error" >&2
    echo "$out" >&2
    exit 1
fi
echo "$out" | grep -q 'memory budget exceeded: .*array `a` (declared on line 2) .*16-processor grid \[16\]' || {
    echo "FAIL: the budget error does not name the array, its line and the grid" >&2
    echo "$out" >&2
    exit 1
}

echo "==> a socket run over the memory budget is refused before any data is built"
# The same 320 GB array on the socket backend: its default data and the
# workers' whole memories are sized first, so phpfc exits 1 with the
# budget's located error under a 2 GiB address-space limit (this process
# only) instead of failing an allocation or panicking.
hugehpf=$(mktemp -t phpfc-huge.XXXXXX)
printf 'REAL A(200000,200000)\nA(1,1) = 1.0\n' > "$hugehpf"
set +e
out=$( (ulimit -v 2097152; ./target/release/phpfc "$hugehpf" --backend socket --observe) 2>&1)
status=$?
set -e
rm -f "$hugehpf"
if [ "$status" -ne 1 ] || ! echo "$out" | grep -q 'memory budget exceeded' ||
    echo "$out" | grep -q 'memory allocation of\|panicked'; then
    echo "FAIL: a socket run over the budget exited $status, not 1 with the budget error" >&2
    echo "$out" | tail -5 >&2
    exit 1
fi

echo "==> a compile report allocates none of a program's arrays"
# A 320 GB REAL array: the report prints its rank stores without building
# its data. The address-space limit (2 GiB, this process only) makes an
# eager allocation abort here instead of exhausting the machine.
hugehpf=$(mktemp -t phpfc-huge.XXXXXX)
printf 'REAL A(200000,200000)\nA(1,1) = 1.0\n' > "$hugehpf"
set +e
out=$( (ulimit -v 2097152; ./target/release/phpfc "$hugehpf") 2>&1)
status=$?
set -e
rm -f "$hugehpf"
if [ "$status" -ne 0 ] || ! echo "$out" | grep -q 'a: 320000000000 bytes whole'; then
    echo "FAIL: the compile report of a 320 GB array exited $status" >&2
    echo "$out" | tail -5 >&2
    exit 1
fi

echo "==> a variable declared twice is a located parse error"
# The parser refuses the second declaration with its line and the
# variable's name: exit 1, no panic.
duphpf=$(mktemp -t phpfc-dup.XXXXXX)
printf 'REAL A(4), A(5)\nA(1) = 1.0\n' > "$duphpf"
set +e
out=$(./target/release/phpfc "$duphpf" 2>&1)
status=$?
set -e
rm -f "$duphpf"
if [ "$status" -ne 1 ] || echo "$out" | grep -q 'panicked'; then
    echo "FAIL: a duplicate declaration exited $status, not 1 with an error" >&2
    echo "$out" >&2
    exit 1
fi
echo "$out" | grep -q 'line 1: variable a is declared twice' || {
    echo "FAIL: the duplicate-declaration error does not name the line and the variable" >&2
    echo "$out" >&2
    exit 1
}

echo "==> chaos smoke (DGEFA small, worker killed mid-stream, rerun by a fresh cohort)"
# Rank 1 dies at its 100th event, in the second of 11 epochs: the failed
# cohort is reaped, a fresh cohort reruns the whole run from the start
# (reference executor included) and must still match, at one respawn.
dgefachaos=$(mktemp -t phpfc-dgefa-chaos.XXXXXX)
trap 'rm -f "$goldtrace" "$dgefachaos"' EXIT
set +e
out=$(./target/release/phpfc examples/hpf/dgefa_small.hpf --backend socket \
    --fault-plan 'kill:1@100' --trace "$dgefachaos" 2>&1)
status=$?
set -e
if [ "$status" -ne 0 ]; then
    echo "FAIL: DGEFA chaos run exited $status (respawn did not heal the kill)" >&2
    echo "$out" >&2
    exit "$status"
fi
echo "$out" | grep -q 'backend socket: replay on 4 worker processes matched' || {
    echo "FAIL: respawned DGEFA replay did not validate against the reference" >&2
    echo "$out" >&2
    exit 1
}
grep -q '"name":"fault:respawn"' "$dgefachaos" || {
    echo "FAIL: DGEFA chaos trace lacks \"name\":\"fault:respawn\"" >&2
    exit 1
}
echo "$out" | grep '^BENCH_JSON {' | grep -q '"respawns":1,' || {
    echo "FAIL: DGEFA chaos run did not report exactly one respawn" >&2
    echo "$out" | grep '^BENCH_JSON {' >&2
    exit 1
}

echo "==> trace smoke (TOMCATV small, socket backend, --trace)"
tracefile=$(mktemp -t phpfc-trace.XXXXXX)
trap 'rm -f "$goldtrace" "$dgefachaos" "$tracefile"' EXIT
set +e
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --backend socket --trace "$tracefile" 2>&1)
status=$?
set -e
if [ "$status" -ne 0 ]; then
    echo "FAIL: traced socket run exited $status" >&2
    echo "$out" >&2
    exit "$status"
fi
echo "$out" | grep -q 'comm counts match wire metrics' || {
    echo "FAIL: traced run did not self-check its comm counts against the metrics" >&2
    echo "$out" >&2
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tracefile" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace must be a non-empty JSON array"
begins = ends = comms = 0
span_names = []
comm_pids = set()
for e in events:
    ph = e["ph"]
    assert ph in ("M", "B", "E", "i"), f"unknown phase type {ph!r}"
    assert isinstance(e["pid"], int), "every event carries a pid"
    if ph == "M":
        assert e["name"] == "process_name", e
        continue
    assert isinstance(e["ts"], int), "timed events carry integer microseconds"
    if ph == "B":
        begins += 1
        span_names.append(e["name"])
        assert e["cat"] == "phase", e
    elif ph == "E":
        ends += 1
    else:
        assert e["cat"] in ("comm", "fault"), e
        if e["cat"] == "comm":
            comms += 1
            comm_pids.add(e["pid"])
            args = e["args"]
            for key in ("pattern", "place", "elems"):
                assert key in args, f"comm event missing {key}: {e}"
assert begins == ends, f"unbalanced spans: {begins} begins, {ends} ends"
for phase in ("parse", "ssa", "mapping", "privatization", "lower", "replay"):
    assert phase in span_names, f"missing pipeline span {phase!r}: {span_names}"
assert comms > 0, "trace carries no communication events"
# Rank r is pid r + 1. Each worker's timeline reaches the parent through
# its result blob, so every rank row must carry comm events.
for pid in range(1, 5):
    assert pid in comm_pids, f"rank {pid - 1} (pid {pid}) has no comm events: {sorted(comm_pids)}"
print(f"trace schema OK: {begins} spans, {comms} comm events")
EOF
else
    # Minimal structural checks without python3.
    head -c 1 "$tracefile" | grep -q '\[' || { echo "FAIL: trace is not a JSON array" >&2; exit 1; }
    for needle in '"name":"parse"' '"name":"replay"' '"cat":"comm"'; do
        grep -q "$needle" "$tracefile" || {
            echo "FAIL: trace JSON lacks $needle" >&2
            exit 1
        }
    done
fi

echo "==> chaos smoke (TOMCATV small, socket backend, injected faults)"
# A corrupted frame plus a worker kill must self-heal: the receiver detects
# the frame (bad-checksum) and each fault fails one cohort, which a fresh
# cohort reruns from the start. The run must still validate against the
# reference and report its recovery work in both the trace and the
# BENCH_JSON counters.
chaostrace=$(mktemp -t phpfc-chaos.XXXXXX)
trap 'rm -f "$goldtrace" "$dgefachaos" "$tracefile" "$chaostrace"' EXIT
set +e
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --backend socket \
    --fault-plan 'corrupt:0>1@2,kill:1@600' --trace "$chaostrace" 2>&1)
status=$?
set -e
if [ "$status" -ne 0 ]; then
    echo "FAIL: chaos run exited $status (recovery did not heal the faults)" >&2
    echo "$out" >&2
    exit "$status"
fi
echo "$out" | grep -q 'backend socket: replay on 4 worker processes matched' || {
    echo "FAIL: faulted socket replay did not validate against the reference" >&2
    echo "$out" >&2
    exit 1
}
for needle in '"name":"fault:bad-checksum"' '"name":"fault:respawn"'; do
    grep -q "$needle" "$chaostrace" || {
        echo "FAIL: chaos trace lacks $needle" >&2
        exit 1
    }
done
bench=$(echo "$out" | grep '^BENCH_JSON {') || {
    echo "FAIL: chaos run printed no BENCH_JSON line" >&2
    exit 1
}
echo "$bench" | grep -q '"recovery":{"retransmits":0,"heartbeat_misses":0,"respawns":0,"fallbacks":0}' && {
    echo "FAIL: chaos run reported all-zero recovery counters" >&2
    echo "$bench" >&2
    exit 1
}
# The empty plan stays free of recovery side effects: zero counters.
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --backend socket 2>&1)
echo "$out" | grep '^BENCH_JSON {' | grep -q '"recovery":{"retransmits":0,"heartbeat_misses":0,"respawns":0,"fallbacks":0}' || {
    echo "FAIL: fault-free run reported nonzero recovery counters" >&2
    echo "$out" | grep '^BENCH_JSON {' >&2
    exit 1
}

echo "==> non-test lines and panic sites per crate (information only)"
sh scripts/loc.sh

echo "OK: build, tests, lints, verification, bench output, socket smoke, trace smoke and chaos smoke all clean"
