#!/usr/bin/env bash
# End-to-end smoke test for the serving daemon (ctest: tools.net_smoke).
#
# Exercises the wire path across real process boundaries:
#   1. generate a small forum, `fit --model-out` → reference digest
#   2. `serve --listen 0 --port-file` in the background (ephemeral port)
#   3. health/score/route through forumcast-netctl
#   4. `netctl digest` — the CLI's prediction digest recomputed entirely
#      over the wire — must equal the fit digest bit-for-bit
#   5. `netctl hammer` with hot swaps mid-traffic: zero errors (the swap
#      drops no in-flight request), then digest parity again (the swapped
#      bundle is the same content, so scores stay bit-identical)
#   6. graceful shutdown over the wire; the daemon must exit 0
#
# usage: net_smoke.sh <forumcast-cli> <forumcast-netctl> <work-dir>
set -euo pipefail

CLI=${1:?usage: net_smoke.sh <forumcast-cli> <forumcast-netctl> <work-dir>}
NETCTL=${2:?missing netctl path}
WORK=${3:?missing work dir}

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

SERVE_PID=""
cleanup() {
  if [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

fail() { echo "net_smoke: FAIL: $*" >&2; exit 1; }

extract_digest() {
  sed -n 's/.*prediction digest: \([0-9a-f][0-9a-f]*\).*/\1/p' "$1" | head -1
}

echo "=== generate + fit ==="
"$CLI" generate --questions 150 --users 150 --seed 7 --out posts.csv
"$CLI" fit --data posts.csv --model-out model.fcm \
  --history-days 25 --lda-iterations 5 --seed 7 | tee fit.log
FIT_DIGEST=$(extract_digest fit.log)
[[ -n "$FIT_DIGEST" ]] || fail "fit printed no prediction digest"

echo "=== start the daemon (ephemeral port) ==="
"$CLI" serve --data posts.csv --model-in model.fcm \
  --listen 0 --port-file port.txt > serve.log 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 600); do
  [[ -s port.txt ]] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat serve.log >&2; fail "daemon died before listening"; }
  sleep 0.1
done
[[ -s port.txt ]] || fail "daemon never published its port"
PORT=$(cat port.txt)
echo "daemon on port $PORT (pid $SERVE_PID)"

echo "=== health / score / route over the wire ==="
"$NETCTL" health --port "$PORT" | tee health.log
grep -q "questions: " health.log || fail "health response malformed"

"$NETCTL" score --port "$PORT" --question 0 --users "0,1,2,3" | tee score.log
[[ $(grep -c '^user ' score.log) -eq 4 ]] || fail "score did not return 4 predictions"

"$NETCTL" route --port "$PORT" --question 0 --users "0,1,2,3,4,5,6,7" --top 3 | tee route.log
grep -q "feasible: " route.log || fail "route response malformed"

echo "=== digest parity: wire vs fit process ==="
"$NETCTL" digest --port "$PORT" | tee digest1.log
WIRE_DIGEST=$(extract_digest digest1.log)
[[ "$WIRE_DIGEST" == "$FIT_DIGEST" ]] || \
  fail "wire digest $WIRE_DIGEST != fit digest $FIT_DIGEST"

# The daemon printed its own (in-process) digest at startup too.
SERVE_DIGEST=$(extract_digest serve.log)
[[ "$SERVE_DIGEST" == "$FIT_DIGEST" ]] || \
  fail "serve digest $SERVE_DIGEST != fit digest $FIT_DIGEST"

echo "=== hammer with hot swaps mid-traffic ==="
"$NETCTL" hammer --port "$PORT" --requests 400 --concurrency 4 \
  --swap-model model.fcm --swaps 2 | tee hammer.log
grep -q "errors: 0" hammer.log || fail "hammer saw errors (a swap dropped a request?)"
grep -q "swap 2:" hammer.log || fail "second hot swap did not run"

echo "=== digest parity after the swaps ==="
"$NETCTL" digest --port "$PORT" | tee digest2.log
POST_SWAP_DIGEST=$(extract_digest digest2.log)
[[ "$POST_SWAP_DIGEST" == "$FIT_DIGEST" ]] || \
  fail "post-swap digest $POST_SWAP_DIGEST != fit digest $FIT_DIGEST"

echo "=== graceful shutdown over the wire ==="
"$NETCTL" shutdown --port "$PORT"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
SERVE_PID=""
[[ "$SERVE_RC" -eq 0 ]] || { cat serve.log >&2; fail "daemon exited rc=$SERVE_RC"; }
grep -q "served " serve.log || fail "daemon did not report its request count"

echo "net_smoke: PASS (digest $FIT_DIGEST bit-stable across fit, wire, and 2 hot swaps)"
