#!/usr/bin/env bash
# Real-wire smoke test for the transport layer: run signald serve+send
# end to end over loopback kernel sockets, once per -transport backend
# (udp, i.e. sendmmsg/recvmmsg with SO_REUSEPORT sharding, and tcp, the
# framed stream fallback). For each backend the script parses the
# kernel-assigned receiver address out of signald's startup line, drives
# real SS+RTR state through it, scrapes /metrics, and asserts:
#   - the receiver actually holds the installed key
#     (softstate_paper_live_keys),
#   - the paper gauges are present and non-negative,
#   - the transport counters moved and carry the right transport label.
# Run from the repo root; CI runs this as the realwire-smoke job.
set -euo pipefail

workdir="$(mktemp -d)"
bin="$workdir/signald"

go build -o "$bin" ./cmd/signald

run_backend() {
	local transport="$1"
	shift
	local serve_log="$workdir/serve.$transport.log"
	local send_log="$workdir/send.$transport.log"
	local scrape="$workdir/scrape.$transport.txt"

	fail() {
		echo "FAIL($transport): $*" >&2
		echo "--- signald serve log ---" >&2
		cat "$serve_log" >&2 || true
		echo "--- signald send log ---" >&2
		cat "$send_log" >&2 || true
		exit 1
	}

	"$bin" -mode serve -addr 127.0.0.1:0 -proto ss+rtr \
		-transport "$transport" "$@" \
		-metrics-addr 127.0.0.1:0 >"$serve_log" 2>&1 &
	local serve_pid=$!

	local serve_addr="" metrics_addr=""
	for _ in $(seq 1 100); do
		serve_addr=$(sed -n 's/^signald: .* receiver on \([0-9.:]*\) .*/\1/p' "$serve_log" | head -1)
		metrics_addr=$(sed -n 's|^signald: metrics on http://\([0-9.:]*\)/metrics.*|\1|p' "$serve_log" | head -1)
		if [ -n "$serve_addr" ] && [ -n "$metrics_addr" ]; then
			break
		fi
		sleep 0.1
	done
	if [ -z "$serve_addr" ] || [ -z "$metrics_addr" ]; then
		fail "signald never reported its bound addresses"
	fi
	echo "signald[$transport]: receiver $serve_addr, metrics $metrics_addr"

	local up=0
	for _ in $(seq 1 50); do
		if curl -fsS "http://$metrics_addr/metrics" >/dev/null 2>&1; then
			up=1
			break
		fi
		sleep 0.2
	done
	if [ "$up" != 1 ]; then
		fail "metrics endpoint never answered at $metrics_addr"
	fi

	"$bin" -mode send -peer "$serve_addr" -proto ss+rtr \
		-transport "$transport" \
		-key "smoke/$transport" -value ok -hold 4s -refresh 300ms \
		>"$send_log" 2>&1 &
	local send_pid=$!

	# Wait until the receiver holds the key (paper_live_keys >= 1), then
	# keep that scrape for the remaining assertions.
	local held=""
	for _ in $(seq 1 50); do
		curl -fsS "http://$metrics_addr/metrics" >"$scrape" 2>/dev/null || true
		held=$(awk '/^softstate_paper_live_keys/ { print $NF; exit }' "$scrape")
		if [ -n "$held" ] && awk -v v="$held" 'BEGIN { exit (v >= 1 ? 0 : 1) }'; then
			break
		fi
		held=""
		sleep 0.2
	done
	if [ -z "$held" ]; then
		fail "receiver never held the installed key (softstate_paper_live_keys)"
	fi
	echo "ok($transport): softstate_paper_live_keys $held"

	local gauge line value
	for gauge in softstate_inconsistency_ratio softstate_datagrams_per_key_per_s; do
		line=$(grep "^$gauge" "$scrape" | head -1 || true)
		if [ -z "$line" ]; then
			fail "$gauge missing from /metrics"
		fi
		value=${line##* }
		if ! awk -v v="$value" 'BEGIN { exit (v >= 0 ? 0 : 1) }'; then
			fail "$gauge negative: $line"
		fi
		echo "ok($transport): $line"
	done

	# The transport counters must have moved and carry the backend label.
	line=$(grep "^softstate_transport_read_datagrams_total{.*transport=\"$transport\"" "$scrape" | head -1 || true)
	if [ -z "$line" ]; then
		fail "softstate_transport_read_datagrams_total{transport=\"$transport\"} missing"
	fi
	value=${line##* }
	if ! awk -v v="$value" 'BEGIN { exit (v >= 1 ? 0 : 1) }'; then
		fail "transport read counter never moved: $line"
	fi
	echo "ok($transport): $line"

	wait "$send_pid" || fail "signald send exited non-zero"
	kill "$serve_pid" 2>/dev/null || true
	wait "$serve_pid" 2>/dev/null || true
}

trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

# udp with SO_REUSEPORT sharding across two sockets, then the framed TCP
# stream fallback.
run_backend udp -sockets 2
run_backend tcp

echo "realwire smoke passed"
