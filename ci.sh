#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# The build environment is fully offline; every cargo invocation says so.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== one result identity (no local fingerprint helpers)"
# Which result fields define bit-identity is decided once, by
# `TopKResult::fingerprint` in crates/core/src/result.rs; a local copy
# drifts from it, as the old per-suite tuples did.
if grep -rn --include='*.rs' 'fn fingerprint(' crates tests | grep -v '^crates/core/src/result.rs:'; then
  echo "local fingerprint helper found: compare TopKResult::fingerprint() instead"; exit 1
fi

echo "== one worker pool (no second thread pool, no deques, no schedule knob)"
# `sched::execute` (and `sched::map` on top of it) is the crate's only
# compute pool; any other scoped pool or per-worker deque would bring
# back a second scheduler to keep deterministic.
if grep -rn --include='*.rs' 'thread::scope' crates/core/src | grep -v '^crates/core/src/sched.rs:'; then
  echo "thread::scope outside sched.rs: run the work through sched::execute or sched::map"; exit 1
fi
if grep -rn --include='*.rs' -e 'VecDeque' -e 'DNA_SCHED_SHUFFLE' -e 'fn par_map' crates tests; then
  echo "second worker pool or schedule knob found: use sched::execute or sched::map"; exit 1
fi

echo "== one audit reference (no second audit of what-if damping)"
# `Oracle` (crates/core/src/oracle.rs) diffs every victim of a damped
# session against a from-scratch run; a certificate trail or a bound
# domain re-derived beside it would be a second reference to keep in step.
if grep -rn --include='*.rs' -e 'derive_clean_witness' -e 'CleanCertificate' -e 'CleanWitness' \
  -e 'lint_dirty_closure_certified' -e 'struct Corridor' crates src tests; then
  echo "second audit reference found: audit damped sessions with Oracle::check_session"; exit 1
fi

echo "== one benchmark (no second timing harness)"
# perfbench (declared in BENCHMARK.json) is the repository's one
# benchmark; the paper's tables and figures are the dna-bench binaries.
# A JSON bench report, its checker or a cargo-bench shim beside them
# would be a second harness to keep honest.
if grep -rn -e 'topk_bench' -e 'bench_topk' -e 'BENCH_topk' -e 'criterion_group' -e 'dna-criterion' \
  crates src tests; then
  echo "second timing harness found: measure with perfbench, reproduce the paper with dna-bench binaries"; exit 1
fi
if grep -n '^\[\[bench\]\]' crates/*/Cargo.toml; then
  echo "[[bench]] target found: measure with perfbench, reproduce the paper with dna-bench binaries"; exit 1
fi

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test"
cargo test --workspace --offline -q

echo "== perfbench self-test (every workload's correctness replay, tiny inputs)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== whatif smoke (incremental session identity + dirty-closure audit)"
smoke_ckt="$(mktemp -t whatif_smoke.XXXXXX.ckt)"
trap 'rm -f "$smoke_ckt"' EXIT
cargo run -q -p dna-cli --offline -- generate --gates 40 --couplings 30 --seed 9 --o "$smoke_ckt"
cargo run -q -p dna-cli --offline -- whatif "$smoke_ckt" --k 3 --audit >/dev/null
cargo run -q -p dna-cli --offline -- whatif "$smoke_ckt" --mode add --k 3 --audit >/dev/null

echo "== damping identity smoke (semantic == structural, proven-clean victims audited by the oracle)"
# Both dampings must pass the same from-scratch audit on the same circuit;
# on the semantic run the oracle diffs every proven-clean victim's cached
# state, and L035 checks that dirty ∪ proven-clean is a closed closure.
cargo run -q -p dna-cli --offline -- whatif "$smoke_ckt" --k 3 --damping structural --audit >/dev/null
cargo run -q -p dna-cli --offline -- whatif "$smoke_ckt" --k 3 --damping semantic --audit >/dev/null

echo "== deep lint oracle check (i1)"
smoke_i1="$(mktemp -t lint_i1.XXXXXX.ckt)"
trap 'rm -f "$smoke_ckt" "$smoke_i1"' EXIT
cargo run -q -p dna-cli --offline -- generate --bench i1 --seed 42 --o "$smoke_i1" >/dev/null
cargo run -q -p dna-cli --offline -- lint "$smoke_i1" --deep >/dev/null

echo "== golden fingerprints (i1 and i3 seed 42, k 10: no numeric kernel drifted by a bit)"
# Pinned what-if identity fingerprints of both modes. Every optimization
# must leave them unchanged; a change here means an output bit moved.
smoke_i3="$(mktemp -t golden_i3.XXXXXX.ckt)"
trap 'rm -f "$smoke_ckt" "$smoke_i1" "$smoke_i3"' EXIT
cargo run -q -p dna-cli --offline -- generate --bench i3 --seed 42 --o "$smoke_i3" >/dev/null
golden_cli=(cargo run -q -p dna-cli --offline --)
check_golden() { # $1 = circuit, $2 = pinned fingerprint, rest = extra whatif flags
  local ckt="$1" want="$2" got
  shift 2
  got="$("${golden_cli[@]}" whatif "$ckt" --k 10 --fingerprint "$@" \
    | sed -n 's/^ *fingerprint: \([0-9a-f]*\)$/\1/p')"
  [[ "$got" == "$want" ]] || {
    echo "golden fingerprint drifted: whatif $(basename "$ckt") $* printed '${got}', pinned '${want}'"
    exit 1
  }
}
check_golden "$smoke_i1" 681fd11e1aa2f099 --mode add
check_golden "$smoke_i1" 699ec29ae02c4819
check_golden "$smoke_i3" 9a427b95f2698671 --mode add
check_golden "$smoke_i3" 7395765d4909fca6

echo "== golden fingerprints (i4 and i5 seed 42, k 10, release build: where the tail cut and the bound-ordered scoring fire most)"
# A debug build of i4/i5 elimination is too slow for the gate. On i4
# (1181 couplings) most elimination rounds admit more records than the
# rank keeps, so only the ones that can make the cut are scored.
smoke_i4="$(mktemp -t golden_i4.XXXXXX.ckt)"
smoke_i5="$(mktemp -t golden_i5.XXXXXX.ckt)"
trap 'rm -f "$smoke_ckt" "$smoke_i1" "$smoke_i3" "$smoke_i4" "$smoke_i5"' EXIT
cargo run -q -p dna-cli --offline -- generate --bench i4 --seed 42 --o "$smoke_i4" >/dev/null
cargo run -q -p dna-cli --offline -- generate --bench i5 --seed 42 --o "$smoke_i5" >/dev/null
golden_cli=(cargo run --release -q -p dna-cli --offline --)
check_golden "$smoke_i4" f588209196022904 --mode add
check_golden "$smoke_i4" 0d47eb6288f9fc8f
check_golden "$smoke_i5" 398a0e0ca2d9fd8c --mode add
check_golden "$smoke_i5" 6c06a3a85eaa90d7

echo "== scheduler smoke (i1, both modes: threads 2 and 4 bit-identical to threads 1)"
# Strip the run-local diagnostics (wall-clock runtime, scheduler
# counters) and compare everything else — the couplings, the delays.
# Elimination validation abandons options whose fixpoint bound has lost
# to the best finished one, so its work depends on the schedule; its
# answer must not.
strip_run_local() { grep -v '^scheduler:' | sed 's/ in [0-9.]*[a-zµ]*s$//'; }
sched_fingerprint() { # $1 = threads, $2 = mode
  cargo run -q -p dna-cli --offline -- topk "$smoke_i1" --k 3 --threads "$1" --mode "$2" \
    | strip_run_local
}
for mode in add del; do
  t1="$(sched_fingerprint 1 "$mode")"
  for threads in 2 4; do
    tn="$(sched_fingerprint "$threads" "$mode")"
    [[ "$t1" == "$tn" ]] || {
      echo "scheduler smoke: --mode $mode threads=$threads diverged from the serial reference"
      diff <(echo "$t1") <(echo "$tn") || true
      exit 1
    }
  done
done

echo "== batch whatif smoke (shared sweep identity + order independence)"
smoke_batch="$(mktemp -t whatif_smoke.XXXXXX.batch)"
trap 'rm -f "$smoke_ckt" "$smoke_i1" "$smoke_i3" "$smoke_i4" "$smoke_i5" "$smoke_batch"' EXIT
printf -- '-0\n-1\n-0 -2\n' > "$smoke_batch"
out="$(cargo run -q -p dna-cli --offline -- whatif "$smoke_ckt" --k 3 --batch "$smoke_batch" --audit)"
echo "$out" | grep -q "audit: all 3 scenario(s) == from-scratch" \
  || { echo "batch smoke failed its audit"; exit 1; }
cargo run -q -p dna-cli --offline -- topk "$smoke_ckt" --mode elim --k 4 --peel >/dev/null
# Pinned peel digest (i3 seed 42, k 10, run-local lines stripped): every
# peel round validates its options through the same bound-and-abandon
# helper as one-pass elimination, and the chosen couplings and delays
# must not move.
peel_digest="$(cargo run -q -p dna-cli --offline -- topk "$smoke_i3" --mode del --k 10 --peel \
  | strip_run_local | sha256sum | cut -c1-16)"
[[ "$peel_digest" == f6043f95b60b93d5 ]] || {
  echo "peel digest drifted: topk i3 --mode del --k 10 --peel hashed to '$peel_digest'"; exit 1
}

echo "== fault-injection smoke (typed errors / quarantine / degradation, no panics)"
cargo test --offline -q --test fault_injection >/dev/null

echo "== session artifact round trip (save -> load -> audit, then corrupt -> fallback)"
smoke_art="$(mktemp -t whatif_smoke.XXXXXX.dna)"
trap 'rm -f "$smoke_ckt" "$smoke_i1" "$smoke_i3" "$smoke_i4" "$smoke_i5" "$smoke_batch" "$smoke_art"' EXIT
cargo run -q -p dna-cli --offline -- whatif "$smoke_ckt" --k 3 --save "$smoke_art" >/dev/null
# A clean artifact must resume AND still pass the bit-identity audit.
out="$(cargo run -q -p dna-cli --offline -- whatif "$smoke_ckt" --k 3 --load "$smoke_art" --audit)"
echo "$out" | grep -q "resumed session" || { echo "artifact did not resume"; exit 1; }
# A truncated artifact must be detected and fall back to a full sweep —
# the command still succeeds and still passes the audit.
head -c 64 "$smoke_art" > "$smoke_art.trunc" && mv "$smoke_art.trunc" "$smoke_art"
out="$(cargo run -q -p dna-cli --offline -- whatif "$smoke_ckt" --k 3 --load "$smoke_art" --audit 2>&1)"
echo "$out" | grep -q "cannot resume" || { echo "corruption went undetected"; exit 1; }
echo "$out" | grep -q "audit: incremental == from-scratch" \
  || { echo "fallback run failed its audit"; exit 1; }

echo "== serve smoke (daemon scenario over loopback == local whatif, clean shutdown)"
serve_log="$(mktemp -t serve_smoke.XXXXXX.log)"
trap 'rm -f "$smoke_ckt" "$smoke_i1" "$smoke_i3" "$smoke_i4" "$smoke_i5" "$smoke_batch" "$smoke_art" "$serve_log"' EXIT
cargo build -q -p dna-cli --offline
cargo run -q -p dna-cli --offline -- serve --port 0 > "$serve_log" &
serve_pid=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$serve_log" && break
  sleep 0.1
done
grep -q "listening on" "$serve_log" || {
  echo "daemon never announced its port"; kill "$serve_pid" 2>/dev/null; exit 1
}
port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$serve_log")"
out="$(cargo run -q -p dna-cli --offline -- client --port "$port" \
  "{\"op\":\"open\",\"tenant\":\"smoke\",\"circuit\":\"$smoke_ckt\",\"mode\":\"elim\",\"k\":3}" \
  '{"op":"scenario","tenant":"smoke","remove":[0]}' \
  '{"op":"stats"}' \
  '{"op":"shutdown"}')"
echo "$out" | grep -q '"kind":"opened"' || { echo "serve smoke: open failed: $out"; exit 1; }
echo "$out" | grep -q '"kind":"bye"' || { echo "serve smoke: no shutdown ack: $out"; exit 1; }
wait "$serve_pid" || { echo "serve smoke: daemon exited non-zero"; exit 1; }
# The daemon's answer must be bit-identical to a local what-if session
# evaluating the same scenario — compare identity fingerprints.
served_fp="$(echo "$out" | sed -n 's/.*"kind":"scenario".*"fingerprint":"\([0-9a-f]*\)".*/\1/p' | head -1)"
printf -- '-0\n' > "$smoke_batch"
local_fp="$(cargo run -q -p dna-cli --offline -- whatif "$smoke_ckt" --k 3 --batch "$smoke_batch" --fingerprint \
  | sed -n 's/.*fingerprint #0: \([0-9a-f]*\).*/\1/p')"
[[ -n "$served_fp" && "$served_fp" == "$local_fp" ]] || {
  echo "serve smoke: daemon fingerprint ($served_fp) != local whatif ($local_fp)"; exit 1
}

echo "== crash recovery smoke (abort mid-save via DNA_CRASH_POINT, recover, bit-compare)"
crash_dir="$(mktemp -d -t crash_smoke.XXXXXX)"
trap 'rm -f "$smoke_ckt" "$smoke_i1" "$smoke_i3" "$smoke_i4" "$smoke_i5" "$smoke_batch" "$smoke_art" "$serve_log"; rm -rf "$crash_dir"' EXIT

start_crash_daemon() { # $1 = state dir, $2 (optional) = --recover
  : > "$serve_log"
  cargo run -q -p dna-cli --offline -- serve --port 0 --dir "$1" ${2:-} > "$serve_log" 2>/dev/null &
  serve_pid=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$serve_log" && break
    sleep 0.1
  done
  grep -q "listening on" "$serve_log" || { echo "crash smoke: daemon never listened"; exit 1; }
  port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$serve_log")"
}
open_req="{\"op\":\"open\",\"tenant\":\"crash\",\"circuit\":\"$smoke_ckt\",\"mode\":\"elim\",\"k\":3}"
commit_req='{"op":"commit","tenant":"crash","remove":[0]}'

# Oracle: the fingerprints a clean open (generation 0) and first commit
# (generation 1) produce. The engine is deterministic, so any recovered
# generation must reproduce one of these exact fingerprints.
mkdir -p "$crash_dir/oracle"
start_crash_daemon "$crash_dir/oracle"
oracle="$(cargo run -q -p dna-cli --offline -- client --port "$port" \
  "$open_req" "$commit_req" '{"op":"shutdown"}')"
wait "$serve_pid" || { echo "crash smoke: oracle daemon exited non-zero"; exit 1; }
open_fp="$(echo "$oracle" | sed -n 's/.*"kind":"opened".*"fingerprint":"\([0-9a-f]*\)".*/\1/p' | head -1)"
commit_fp="$(echo "$oracle" | sed -n 's/.*"kind":"committed".*"fingerprint":"\([0-9a-f]*\)".*/\1/p' | head -1)"
[[ -n "$open_fp" && -n "$commit_fp" ]] || { echo "crash smoke: oracle fingerprints missing: $oracle"; exit 1; }

# One tracked crash point in the default gate: abort with half a delta
# record on disk (kill -9 semantics), then restart with --recover and
# require the tenant back at its last committed generation, bit-exactly.
run_crash_point() { # $1 = crash point
  local state="$crash_dir/state-$1"
  mkdir -p "$state"
  DNA_CRASH_POINT="$1" start_crash_daemon "$state"
  cargo run -q -p dna-cli --offline -- client --port "$port" \
    "$open_req" "$commit_req" >/dev/null 2>&1 || true
  if wait "$serve_pid" 2>/dev/null; then
    echo "crash smoke: daemon survived armed crash point $1"; exit 1
  fi
  start_crash_daemon "$state" --recover
  grep -q "recovery complete" "$serve_log" || { echo "crash smoke: $1 recovery incomplete"; exit 1; }
  case "$1" in
    pre-append|mid-append)
      # The delta never committed: back to the open checkpoint.
      grep -qF "recovered tenant \`crash\` at generation 0 (fingerprint $open_fp)" "$serve_log" \
        || { echo "crash smoke: $1 did not recover generation 0"; cat "$serve_log"; exit 1; } ;;
    pre-sync)
      # The whole record reached the file before the abort; a
      # same-machine crash cannot roll back written bytes.
      grep -qF "recovered tenant \`crash\` at generation 1 (fingerprint $commit_fp)" "$serve_log" \
        || { echo "crash smoke: $1 did not recover generation 1"; cat "$serve_log"; exit 1; } ;;
    *)
      # Checkpoint/manifest-path points abort inside the open itself:
      # the open was never acknowledged, so nothing may be resumed.
      grep -q "recovery complete (0 resumed, 0 quarantined)" "$serve_log" \
        || { echo "crash smoke: $1 resumed an unacked tenant"; cat "$serve_log"; exit 1; } ;;
  esac
  cargo run -q -p dna-cli --offline -- client --port "$port" '{"op":"shutdown"}' >/dev/null
  wait "$serve_pid" || { echo "crash smoke: recovered daemon exited non-zero after $1"; exit 1; }
}
run_crash_point mid-append

# CI_FULL=1 additionally runs the #[ignore]d suites (full i1-i10
# determinism + incremental + damping identity + the daemon soak) in
# release mode — minutes, not seconds, so opt-in.
if [[ "${CI_FULL:-0}" == "1" ]]; then
  echo "== full ignored suites (release)"
  cargo test --workspace --offline --release -q -- --ignored

  # Kill the daemon at every commit-protocol step, not just the tracked
  # one: recovery must land on a committed generation (or, for steps
  # inside the open itself, acknowledge nothing) after each of them.
  echo "== crash recovery sweep (every DNA_CRASH_POINT)"
  for point in pre-append mid-append pre-sync pre-temp mid-temp pre-rename pre-manifest; do
    run_crash_point "$point"
  done

  # Isolation stress: fault hooks are engine-scoped, so suites that arm
  # faults share one process with the identity properties without a
  # lock. Repeat them; any single failure is a cross-test leak.
  echo "== fault isolation stress (10 runs)"
  for run in $(seq 1 10); do
    cargo test --release --offline -q --test sched_determinism --test fault_injection \
      --test serve_soak >/dev/null || { echo "isolation stress: run $run failed"; exit 1; }
  done

  # Pedantic clippy is triage only: surface new findings without gating
  # the build on them. The accepted baseline lives in-tree as
  # crate-level `#![allow(clippy::...)]` attributes; anything printed
  # here is a candidate for fixing or allowlisting, not a CI failure.
  echo "== clippy pedantic triage (non-gating)"
  cargo clippy --workspace --all-targets --offline -- -W clippy::pedantic || true
fi

echo "CI OK"
