package telemetry

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// NewMux builds the introspection handler signald serves on -metrics-addr:
//
//	/metrics       Prometheus text exposition of the registry
//	/metrics.json  the same snapshot as a flat JSON object
//	/debug/vars    standard expvar (cmdline, memstats)
//	/debug/pprof/  standard runtime profiles
//
// Handlers gather on demand; nothing is cached between scrapes.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		r.WriteJSON(w)
	})
	// expvar's default handler is bound to DefaultServeMux; rebuild the
	// same output here so the metrics listener stays self-contained.
	mux.HandleFunc("/debug/vars", expvarHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// traceJSONEvent is the /debug/trace.json wire shape for one event.
type traceJSONEvent struct {
	AtNs int64  `json:"at_ns"`
	Kind string `json:"kind"`
	Key  string `json:"key"`
	Seq  uint64 `json:"seq"`
	Peer string `json:"peer,omitempty"`
}

// TraceHandler serves a tracer's retained ring as JSON, newest first:
//
//	/debug/trace.json?n=100
//
// n bounds the event count (default and maximum: the full ring). The
// response carries the ring occupancy and overwrite count so scrapers
// can tell how much history survived.
func TraceHandler(t *Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		evs := t.Events()
		// Newest first: the tail of the ring is the most recent.
		for i, j := 0, len(evs)-1; i < j; i, j = i+1, j-1 {
			evs[i], evs[j] = evs[j], evs[i]
		}
		if s := req.URL.Query().Get("n"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(evs) {
				evs = evs[:n]
			}
		}
		out := struct {
			Retained    int              `json:"retained"`
			Overwritten uint64           `json:"overwritten"`
			Events      []traceJSONEvent `json:"events"`
		}{Retained: t.Len(), Overwritten: t.Overwritten(), Events: make([]traceJSONEvent, 0, len(evs))}
		for _, ev := range evs {
			out.Events = append(out.Events, traceJSONEvent{
				AtNs: int64(ev.At), Kind: ev.Kind.String(),
				Key: ev.Key, Seq: ev.Seq, Peer: ev.Peer,
			})
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	}
}

// expvarHandler mirrors expvar.Handler() output (that handler is
// unexported state bound to the default mux).
func expvarHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write([]byte("{\n"))
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if !first {
			w.Write([]byte(",\n"))
		}
		first = false
		w.Write([]byte("\"" + kv.Key + "\": " + kv.Value.String()))
	})
	w.Write([]byte("\n}\n"))
}
