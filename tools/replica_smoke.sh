#!/usr/bin/env bash
# End-to-end smoke test for the replicated read tier (ctest: tools.replica_smoke).
#
# Exercises the replication path across real process boundaries:
#   1. generate a base CSV + JSONL event stream split
#   2. primary: `ingest --listen --replisten` fits a bundle, serves reads,
#      and streams the event feed through its WAL to subscribers
#   3. two followers bootstrap over the wire and tail the stream
#   4. follower 2 is kill -9'd mid-run and restarted on the same WAL dir:
#      it must recover locally (bundle + WAL on disk), then catch up
#   5. once the feed completes, all three must agree: applied == head and
#      bit-identical state digests via `netctl replstatus`
#   6. a primary hot swap must propagate: follower swap epochs bump, and
#      the tier reconverges to digest parity
#   7. cluster-sharded scoring (`netctl score --cluster`) must return
#      bit-identical predictions to asking the primary directly
#   8. graceful shutdown over the wire; every daemon must exit 0
#
# usage: replica_smoke.sh <forumcast-cli> <forumcast-netctl> <work-dir>
set -euo pipefail

CLI=${1:?usage: replica_smoke.sh <forumcast-cli> <forumcast-netctl> <work-dir>}
NETCTL=${2:?missing netctl path}
WORK=${3:?missing work dir}

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do
    if kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
}
trap cleanup EXIT

fail() { echo "replica_smoke: FAIL: $*" >&2; exit 1; }

wait_file() {  # wait_file <path> <pid> <log> — port file appears or daemon died
  local path=$1 pid=$2 log=$3
  for _ in $(seq 1 600); do
    [[ -s "$path" ]] && return 0
    kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; fail "daemon behind $path died"; }
    sleep 0.1
  done
  cat "$log" >&2
  fail "daemon never published $path"
}

replstatus() { "$NETCTL" replstatus --port "$1"; }
applied_of() { sed -n 's/.*applied_seq: \([0-9]*\).*/\1/p' <<<"$1"; }
digest_of() { sed -n 's/.*digest: \([0-9a-f]*\).*/\1/p' <<<"$1"; }
epoch_of() { sed -n 's/.*swap_epoch: \([0-9]*\).*/\1/p' <<<"$1"; }

wait_caught_up() {  # wait_caught_up <port> <target-seq>
  local port=$1 target=$2 status applied
  for _ in $(seq 1 600); do
    status=$(replstatus "$port") || { sleep 0.1; continue; }
    applied=$(applied_of "$status")
    [[ "$applied" == "$target" ]] && return 0
    sleep 0.1
  done
  fail "port $port never reached seq $target (last: ${status:-none})"
}

echo "=== generate base + event stream ==="
"$CLI" generate --questions 150 --users 150 --seed 7 --out base.csv \
  --events-out events.jsonl --events-after-day 22 | tee generate.log
grep -q "events" generate.log || fail "generate printed no event count"

echo "=== start the primary (serving + replication listeners) ==="
mkdir -p pdir
"$CLI" ingest --data base.csv --ingest events.jsonl --wal-dir pdir \
  --listen 0 --port-file pport.txt --replisten 0 --repl-port-file rport.txt \
  --chunk 16 --feed-delay-ms 100 --lda-iterations 5 --seed 7 \
  > primary.log 2>&1 &
PRIMARY_PID=$!
PIDS+=("$PRIMARY_PID")
wait_file pport.txt "$PRIMARY_PID" primary.log
wait_file rport.txt "$PRIMARY_PID" primary.log
PPORT=$(cat pport.txt)
RPORT=$(cat rport.txt)
echo "primary serving on $PPORT, replicating on $RPORT (pid $PRIMARY_PID)"

echo "=== start two followers (wire bootstrap) ==="
"$CLI" replica --data base.csv --primary-port "$RPORT" --wal-dir f1dir \
  --listen 0 --port-file f1port.txt --heartbeat-ms 50 \
  > follower1.log 2>&1 &
F1_PID=$!
PIDS+=("$F1_PID")
"$CLI" replica --data base.csv --primary-port "$RPORT" --wal-dir f2dir \
  --listen 0 --port-file f2port.txt --heartbeat-ms 50 \
  > follower2.log 2>&1 &
F2_PID=$!
PIDS+=("$F2_PID")
wait_file f1port.txt "$F1_PID" follower1.log
wait_file f2port.txt "$F2_PID" follower2.log
F1PORT=$(cat f1port.txt)
F2PORT=$(cat f2port.txt)
echo "followers on $F1PORT (pid $F1_PID) and $F2PORT (pid $F2_PID)"

echo "=== kill -9 follower 2 mid-stream, restart on the same WAL dir ==="
kill -9 "$F2_PID"
wait "$F2_PID" 2>/dev/null || true
rm -f f2port.txt
"$CLI" replica --data base.csv --primary-port "$RPORT" --wal-dir f2dir \
  --listen 0 --port-file f2port.txt --heartbeat-ms 50 \
  > follower2b.log 2>&1 &
F2_PID=$!
PIDS+=("$F2_PID")
wait_file f2port.txt "$F2_PID" follower2b.log
F2PORT=$(cat f2port.txt)
echo "follower 2 restarted on $F2PORT (pid $F2_PID)"
grep -q "recovered" follower2b.log || true  # informational only

echo "=== wait for the feed to finish, then for digest parity ==="
for _ in $(seq 1 600); do
  grep -q "feed complete" primary.log && break
  kill -0 "$PRIMARY_PID" 2>/dev/null || { cat primary.log >&2; fail "primary died mid-feed"; }
  sleep 0.1
done
grep -q "feed complete" primary.log || fail "feed never completed"

PSTATUS=$(replstatus "$PPORT")
HEAD=$(applied_of "$PSTATUS")
[[ -n "$HEAD" && "$HEAD" -gt 0 ]] || fail "primary applied no events ($PSTATUS)"
wait_caught_up "$F1PORT" "$HEAD"
wait_caught_up "$F2PORT" "$HEAD"

PDIGEST=$(digest_of "$PSTATUS")
F1DIGEST=$(digest_of "$(replstatus "$F1PORT")")
F2DIGEST=$(digest_of "$(replstatus "$F2PORT")")
echo "digests @seq $HEAD: primary=$PDIGEST f1=$F1DIGEST f2=$F2DIGEST"
[[ "$F1DIGEST" == "$PDIGEST" ]] || fail "follower 1 diverged: $F1DIGEST != $PDIGEST"
[[ "$F2DIGEST" == "$PDIGEST" ]] || fail "follower 2 diverged after kill/restart: $F2DIGEST != $PDIGEST"

echo "=== hot swap the primary; the tier must follow ==="
F1_EPOCH=$(epoch_of "$("$NETCTL" health --port "$F1PORT")")
F2_EPOCH=$(epoch_of "$("$NETCTL" health --port "$F2PORT")")
cp pdir/model.fcm swap.fcm
"$NETCTL" swap --port "$PPORT" --model swap.fcm | tee swap.log
grep -q "swapped: " swap.log || fail "primary swap failed"

for _ in $(seq 1 600); do
  NEW1=$(epoch_of "$("$NETCTL" health --port "$F1PORT")")
  NEW2=$(epoch_of "$("$NETCTL" health --port "$F2PORT")")
  [[ "$NEW1" -gt "$F1_EPOCH" && "$NEW2" -gt "$F2_EPOCH" ]] && break
  sleep 0.1
done
[[ "$NEW1" -gt "$F1_EPOCH" ]] || fail "follower 1 never applied the swap (epoch $NEW1)"
[[ "$NEW2" -gt "$F2_EPOCH" ]] || fail "follower 2 never applied the swap (epoch $NEW2)"

# The swapped bundle is the same content, so after reconverging the tier
# must land on the same digest again.
wait_caught_up "$F1PORT" "$HEAD"
wait_caught_up "$F2PORT" "$HEAD"
POST1=$(digest_of "$(replstatus "$F1PORT")")
POST2=$(digest_of "$(replstatus "$F2PORT")")
[[ "$POST1" == "$PDIGEST" ]] || fail "follower 1 post-swap digest $POST1 != $PDIGEST"
[[ "$POST2" == "$PDIGEST" ]] || fail "follower 2 post-swap digest $POST2 != $PDIGEST"

echo "=== cluster-sharded scoring vs the primary directly ==="
USERS=$(seq -s, 0 95)
CLUSTER="primary=127.0.0.1:$PPORT,f1=127.0.0.1:$F1PORT,f2=127.0.0.1:$F2PORT"
"$NETCTL" owners --cluster "$CLUSTER" --users "0,1,2,3" | tee owners.log
[[ $(grep -c ' -> ' owners.log) -eq 4 ]] || fail "owners printed wrong line count"
"$NETCTL" score --port "$PPORT" --question 0 --users "$USERS" > direct.log
"$NETCTL" score --cluster "$CLUSTER" --question 0 --users "$USERS" > sharded.log
diff direct.log sharded.log || fail "sharded scores differ from the primary's"
[[ $(grep -c '^user ' sharded.log) -eq 96 ]] || fail "sharded score lost rows"

echo "=== graceful shutdown over the wire ==="
for port in "$F1PORT" "$F2PORT" "$PPORT"; do
  "$NETCTL" shutdown --port "$port"
done
for pid in "$F1_PID" "$F2_PID" "$PRIMARY_PID"; do
  rc=0
  wait "$pid" || rc=$?
  [[ "$rc" -eq 0 ]] || fail "pid $pid exited rc=$rc"
done
PIDS=()
grep -q "served " primary.log || fail "primary did not report its request count"

echo "replica_smoke: PASS (digest $PDIGEST bit-stable across primary, 2 followers, kill -9 restart, and a propagated hot swap)"
