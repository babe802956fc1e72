package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	sig "softstate/internal/signal"
	"softstate/internal/telemetry"
	"softstate/internal/variant"
)

// telem is signald's live-introspection state: the shared metrics
// registry, the HTTP listener serving it (Prometheus text, expvar JSON,
// pprof), the paper-metric collector, and the SIGUSR1 snapshot dumper.
// A nil *telem (metrics disabled) makes every method a no-op, so mode
// functions call it unconditionally.
type telem struct {
	reg     *telemetry.Registry
	ln      net.Listener
	srv     *http.Server
	sent    atomic.Pointer[func() int64] // endpoint datagram-total supplier
	pm      *telemetry.PaperMetrics
	auditor atomic.Pointer[telemetry.Auditor] // set once the endpoint exists
}

// startTelemetry opens the metrics listener and the SIGUSR1 dump handler.
// tracer (nil when -trace-sample is off) backs /debug/trace.json; the
// convergence auditor behind /debug/census arrives late via setAuditor,
// once the mode function has an endpoint to audit.
func startTelemetry(addr string, tracer *telemetry.Tracer) (*telem, error) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterProcessMetrics(reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	t := &telem{reg: reg, ln: ln}
	mux := http.NewServeMux()
	mux.Handle("/", telemetry.NewMux(reg))
	mux.HandleFunc("/debug/invariants", debugInvariantsHandler)
	if tracer != nil {
		mux.HandleFunc("/debug/trace.json", telemetry.TraceHandler(tracer))
	}
	mux.HandleFunc("/debug/census", func(w http.ResponseWriter, r *http.Request) {
		aud := t.auditor.Load()
		if aud == nil {
			http.Error(w, "census not enabled (-census on an auditing endpoint)",
				http.StatusServiceUnavailable)
			return
		}
		aud.ServeHTTP(w, r)
	})
	t.srv = &http.Server{Handler: mux}
	go t.srv.Serve(ln)

	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			fmt.Fprintln(os.Stderr, "signald: SIGUSR1 metrics snapshot")
			t.dump(os.Stderr)
		}
	}()
	fmt.Printf("signald: metrics on http://%v/metrics (JSON at /metrics.json, profiles at /debug/pprof/)\n",
		ln.Addr())
	return t, nil
}

// registry returns the shared registry (nil when telemetry is off), the
// value mode functions put in sig.Config.Metrics.
func (t *telem) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// paper creates and registers the paper-metric collector and returns the
// event hook feeding it (nil when telemetry is off). sender says the
// endpoint originates state: under a reliable-trigger variant a key there
// is provably inconsistent from each trigger until its ack.
func (t *telem) paper(proto sig.Protocol, role string, sender bool) func(sig.Event) {
	if t == nil {
		return nil
	}
	prof := variant.For(proto)
	t.pm = telemetry.NewPaperMetrics(telemetry.PaperConfig{
		AckExpected: sender && prof.ReliableTrigger,
		Sent: func() int64 {
			if f := t.sent.Load(); f != nil {
				return (*f)()
			}
			return 0
		},
	})
	t.pm.Register(t.reg, telemetry.Labels{"protocol": prof.Name, "role": role})
	return sig.PaperHook(t.pm)
}

// setSent installs the endpoint's cumulative datagram supplier once the
// endpoint exists (the collector is registered before it, so the supplier
// arrives late through an atomic pointer).
func (t *telem) setSent(fn func() int64) {
	if t != nil && fn != nil {
		t.sent.Store(&fn)
	}
}

// setAuditor publishes the convergence auditor behind /debug/census,
// registers its gauges, and starts a background census every interval so
// softstate_divergent_keys moves without anyone scraping /debug/census.
// The runner lives for the process — signald endpoints do too.
func (t *telem) setAuditor(aud *telemetry.Auditor, role string, interval time.Duration) {
	if t == nil || aud == nil {
		return
	}
	aud.Register(t.reg, telemetry.Labels{"role": role})
	t.auditor.Store(aud)
	if interval <= 0 {
		interval = 2 * time.Second
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for range tick.C {
			aud.Run()
		}
	}()
}

// dump writes a Prometheus-text snapshot — the SIGUSR1 and shutdown view.
func (t *telem) dump(w io.Writer) {
	if t == nil {
		return
	}
	t.reg.WritePrometheus(w)
}

// close stops the listener and prints the final snapshot to stderr.
func (t *telem) close() {
	if t == nil {
		return
	}
	t.srv.Close()
	fmt.Fprintln(os.Stderr, "signald: final metrics snapshot")
	t.dump(os.Stderr)
}
