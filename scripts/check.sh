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
