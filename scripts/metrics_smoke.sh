#!/usr/bin/env bash
# Metrics smoke test: start signald with live introspection enabled, point
# a short-lived sender at it, scrape /metrics, and assert the paper-metric
# gauges — the live inconsistency estimate and datagrams/key/s — are
# present and non-negative. Run from the repo root; CI runs this inside
# the figure-diff job.
#
# Both listeners bind port 0 and the script parses the kernel-assigned
# addresses out of signald's own startup lines, so the test never races
# another process for a fixed port.
set -euo pipefail

workdir="$(mktemp -d)"
bin="$workdir/signald"
serve_log="$workdir/serve.log"
send_log="$workdir/send.log"
scrape="$workdir/scrape.txt"

fail() {
	echo "FAIL: $*" >&2
	echo "--- signald serve log ---" >&2
	cat "$serve_log" >&2 || true
	echo "--- signald send log ---" >&2
	cat "$send_log" >&2 || true
	exit 1
}
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

go build -o "$bin" ./cmd/signald

"$bin" -mode serve -addr 127.0.0.1:0 -proto ss+rtr \
	-census -metrics-addr 127.0.0.1:0 >"$serve_log" 2>&1 &

# signald prints "receiver on <addr>" and "metrics on http://<addr>/metrics"
# once bound; wait for both with a deadline.
serve_addr="" metrics_addr=""
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
echo "signald: receiver $serve_addr, metrics $metrics_addr"

# The listener address appearing in the log does not guarantee the HTTP
# server has served its first request; retry the first scrape too.
up=0
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

# Drive some real state through the receiver so the gauges move. The
# sender runs its own metrics listener with the convergence auditor and
# every-key tracing on, so this side's census and trace surfaces are
# scrapable too.
"$bin" -mode send -peer "$serve_addr" -proto ss+rtr \
	-key smoke/key -value ok -hold 6s -refresh 300ms \
	-census -trace-sample 1 -metrics-addr 127.0.0.1:0 \
	>"$send_log" 2>&1 &

send_metrics=""
for _ in $(seq 1 100); do
	send_metrics=$(sed -n 's|^signald: metrics on http://\([0-9.:]*\)/metrics.*|\1|p' "$send_log" | head -1)
	if [ -n "$send_metrics" ]; then
		break
	fi
	sleep 0.1
done
if [ -z "$send_metrics" ]; then
	fail "sender never reported its metrics address"
fi
echo "signald: sender metrics $send_metrics"

sleep 2

curl -fsS "http://$metrics_addr/metrics" >"$scrape"

bad=0
for gauge in softstate_inconsistency_ratio softstate_datagrams_per_key_per_s; do
	line=$(grep "^$gauge" "$scrape" | head -1 || true)
	if [ -z "$line" ]; then
		echo "FAIL: $gauge missing from /metrics" >&2
		bad=1
		continue
	fi
	value=${line##* }
	if ! awk -v v="$value" 'BEGIN { exit (v >= 0 ? 0 : 1) }'; then
		echo "FAIL: $gauge negative: $line" >&2
		bad=1
		continue
	fi
	echo "ok: $line"
done

# One sender is holding state: the receiver must count exactly one peer.
peers=$(grep '^softstate_receiver_peers' "$scrape" | head -1 || true)
if [ "${peers##* }" != 1 ]; then
	echo "FAIL: softstate_receiver_peers should read 1 with one sender holding a key: '$peers'" >&2
	bad=1
else
	echo "ok: $peers"
fi

# The summary-path counters must be exported (this sender refreshes per
# key, so they read 0): renewals and leased keys are the two whose ratio is
# a receiver's lease share, lease lookups the datagrams that left sweep order.
for counter in softstate_summary_renewals_total softstate_summary_leased_total softstate_summary_lease_lookups_total; do
	line=$(grep "^$counter" "$scrape" | head -1 || true)
	if [ -z "$line" ]; then
		echo "FAIL: $counter missing from /metrics" >&2
		bad=1
	else
		echo "ok: $line"
	fi
done

# The other introspection surfaces must answer too.
curl -fsS "http://$metrics_addr/metrics.json" >/dev/null
curl -fsS "http://$metrics_addr/debug/vars" >/dev/null
curl -fsS "http://$metrics_addr/debug/pprof/cmdline" >/dev/null
echo "ok: /metrics.json, /debug/vars, /debug/pprof answer"

# Process self-metrics must be on every telemetry listener.
if ! grep -q '^process_uptime_seconds' "$scrape" || ! grep -q '^process_goroutines' "$scrape"; then
	echo "--- scrape ---" >&2
	cat "$scrape" >&2
	fail "process self-metrics missing from /metrics"
fi
echo "ok: process self-metrics present"

# The sender's convergence auditor: while the key is held and refreshing,
# /debug/census must settle to zero divergent keys (each GET runs a fresh
# census over the wire digest protocol).
census="$workdir/census.json"
converged=0
for _ in $(seq 1 40); do
	if curl -fsS "http://$send_metrics/debug/census" >"$census" 2>/dev/null &&
		grep -q '"divergent_keys": 0' "$census" &&
		grep -q '"failed_links": 0' "$census"; then
		converged=1
		break
	fi
	sleep 0.2
done
if [ "$converged" != 1 ]; then
	echo "--- last census ---" >&2
	cat "$census" >&2 || true
	fail "sender census never converged to zero divergent keys"
fi
echo "ok: /debug/census converged (divergent_keys = 0)"

# The census gauges must be on the sender's /metrics too.
send_scrape="$workdir/send_scrape.txt"
curl -fsS "http://$send_metrics/metrics" >"$send_scrape"
dg=$(grep '^softstate_divergent_keys' "$send_scrape" | head -1 || true)
if [ -z "$dg" ]; then
	fail "softstate_divergent_keys missing from sender /metrics"
fi
echo "ok: $dg"

# The sender's node counts replies from addresses with none of its
# sessions: every reply must reach the session it answers, so it reads 0.
unk=$(grep '^softstate_unknown_datagrams_total' "$send_scrape" | head -1 || true)
if [ -z "$unk" ] || [ "${unk##* }" != 0 ]; then
	fail "softstate_unknown_datagrams_total should read 0 on the sender: '$unk'"
fi
echo "ok: $unk"

# The trace ring: every-key sampling on a refreshing sender must have
# retained events by now.
trace="$workdir/trace.json"
curl -fsS "http://$send_metrics/debug/trace.json?n=50" >"$trace"
if ! grep -q '"kind"' "$trace"; then
	echo "--- trace ---" >&2
	cat "$trace" >&2
	fail "/debug/trace.json returned no events with -trace-sample 1"
fi
echo "ok: /debug/trace.json serves the event ring"

if [ "$bad" != 0 ]; then
	echo "--- scrape ---" >&2
	cat "$scrape" >&2
	fail "gauge assertions failed"
fi
echo "metrics smoke passed"
