#!/usr/bin/env bash
# End-to-end smoke of the federated deployment: five mpq-server
# processes (one per subject of the running example) on loopback TCP,
# driven by mpq-client with SQL text — twice, against the same fleet:
# first without --shutdown, then with it. Passes when the first client
# prints the paper's answer (the tPA group), the second prints exactly
# what the first did (a long-lived fleet serves every client alike),
# and every process exits cleanly.
#
# Usage: scripts/server_smoke.sh [profile] [--faults SPEC]
#   profile: release|debug (default release)
#   --faults SPEC: chaos variant — inject the seeded fault schedule into
#   every process (servers and client) and additionally require the
#   client to report at least one recovered delivery, proving the query
#   succeeded *through* the retry/reconnect machinery rather than by
#   never being hit.
set -euo pipefail

PROFILE=${1:-release}
FAULTS=""
if [[ "${2:-}" == "--faults" ]]; then
  FAULTS="${3:?--faults needs a SPEC like seed=7,drop=200,max=2}"
fi
BIN="target/$PROFILE"
BASE=${MPQ_SMOKE_BASE_PORT:-7100}
SEED=42
LOGDIR=$(mktemp -d)
SQL="select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by T having avg(P)>100"

if [[ ! -x "$BIN/mpq-server" || ! -x "$BIN/mpq-client" ]]; then
  echo "server_smoke: building mpq-server/mpq-client ($PROFILE)" >&2
  flags=()
  [[ $PROFILE == release ]] && flags+=(--release)
  cargo build -p mpq-server --bins "${flags[@]}"
fi

SUBJECTS=(H I X Y Z)
CLIENT_ADDR="127.0.0.1:$BASE"
PEERS="U=$CLIENT_ADDR"
SERVERS=""
port=$BASE
for name in "${SUBJECTS[@]}"; do
  port=$((port + 1))
  PEERS="$PEERS,$name=127.0.0.1:$port"
  SERVERS="$SERVERS${SERVERS:+,}$name=127.0.0.1:$port"
done

pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$LOGDIR"
}
trap cleanup EXIT

fault_flags=()
[[ -n "$FAULTS" ]] && fault_flags=(--faults "$FAULTS")

port=$BASE
for name in "${SUBJECTS[@]}"; do
  port=$((port + 1))
  "$BIN/mpq-server" --subject "$name" --listen "127.0.0.1:$port" \
    --peers "$PEERS" --seed "$SEED" "${fault_flags[@]}" > "$LOGDIR/$name.log" 2>&1 &
  pids+=($!)
done

# Wait for every server's readiness line (each binds before printing).
for name in "${SUBJECTS[@]}"; do
  for _ in $(seq 1 100); do
    grep -q "listening on" "$LOGDIR/$name.log" 2>/dev/null && break
    sleep 0.1
  done
  if ! grep -q "listening on" "$LOGDIR/$name.log"; then
    echo "server_smoke: server $name never became ready:" >&2
    cat "$LOGDIR/$name.log" >&2
    exit 1
  fi
done

client() {
  "$BIN/mpq-client" --listen "$CLIENT_ADDR" --servers "$SERVERS" \
    --seed "$SEED" "${fault_flags[@]}" "$@" "$SQL"
}
out=$(client)
echo "$out"
again=$(client --shutdown)
if [[ "$again" != "$out" ]]; then
  echo "server_smoke: a second client against the same fleet printed something else:" >&2
  diff <(echo "$out") <(echo "$again") >&2 || true
  exit 1
fi

# The paper's running example: exactly the tPA group survives HAVING.
if ! grep -q "tPA" <<< "$out"; then
  echo "server_smoke: expected the tPA group in the result" >&2
  exit 1
fi
if ! grep -q "result (1 rows)" <<< "$out"; then
  echo "server_smoke: expected exactly one result row" >&2
  exit 1
fi

# Chaos variant: the run must have *recovered* — at least one delivery
# succeeded only after a retry or a control-plane redial. Zero means the
# schedule never touched a used edge and the smoke proved nothing.
if [[ -n "$FAULTS" ]]; then
  if ! grep -qE "recovery: [1-9][0-9]* recovered deliveries" <<< "$out"; then
    echo "server_smoke: chaos run reported no recovered deliveries" >&2
    exit 1
  fi
fi

# --shutdown must actually take every server down.
for pid in "${pids[@]}"; do
  if ! wait "$pid"; then
    echo "server_smoke: a server exited non-zero after shutdown" >&2
    exit 1
  fi
done
pids=()
echo "server_smoke: OK"
