package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Metric names may carry a Prometheus label suffix: "name{k=\"v\"}".
// splitName separates the base name from the label body (no braces).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// promName reassembles a metric name with extra labels appended.
func promName(base, labels, extra string) string {
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		return base
	}
	return base + "{" + all + "}"
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4). Histograms render as cumulative _bucket series
// with le labels plus _sum and _count, so any Prometheus-compatible
// scraper can compute quantiles its own way.
func (r *Registry) WritePrometheus(w io.Writer) {
	snap := r.Snapshot()
	typed := make(map[string]bool) // base names already given a # TYPE line

	for _, kind := range []struct {
		name   string
		values map[string]int64
	}{{"counter", snap.Counters}, {"gauge", snap.Gauges}} {
		for _, name := range SortedKeys(kind.values) {
			base, labels := splitName(name)
			if !typed[base] {
				fmt.Fprintf(w, "# TYPE %s %s\n", base, kind.name)
				typed[base] = true
			}
			fmt.Fprintf(w, "%s %d\n", promName(base, labels, ""), kind.values[name])
		}
	}
	for _, name := range SortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		base, labels := splitName(name)
		if !typed[base] {
			fmt.Fprintf(w, "# TYPE %s histogram\n", base)
			typed[base] = true
		}
		var cum int64
		for i, n := range h.Buckets {
			cum += n
			le := "+Inf"
			if ub := BoundarySeconds(i); !math.IsInf(ub, 1) {
				le = fmt.Sprintf("%g", ub)
			}
			fmt.Fprintf(w, "%s %d\n", promName(base+"_bucket", labels, `le="`+le+`"`), cum)
		}
		fmt.Fprintf(w, "%s %g\n", promName(base+"_sum", labels, ""), h.SumSeconds)
		fmt.Fprintf(w, "%s %d\n", promName(base+"_count", labels, ""), cum)
	}
}

// WriteJSON encodes v the way every /debug document and incident-bundle
// snapshot is written: indented JSON, one trailing newline.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// StatusError is an error a JSONHandler callback returns to choose the
// HTTP status of the error document; any other error answers 500.
type StatusError struct {
	Code int
	Msg  string
}

func (e StatusError) Error() string { return e.Msg }

// JSONHandler serves the document status returns as indented JSON — the
// one handler behind every JSON debug endpoint, so they all send the same
// Content-Type and treat failure the same way: the document is encoded
// before anything is written, and an error from status or from the encoder
// answers {"error": "..."} under an error status instead of a truncated
// 200.
func JSONHandler(status func(*http.Request) (any, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		code := http.StatusOK
		doc, err := status(r)
		if err == nil {
			err = WriteJSON(&buf, doc)
		}
		if err != nil {
			code = http.StatusInternalServerError
			var se StatusError
			if errors.As(err, &se) {
				code = se.Code
			}
			buf.Reset()
			_ = WriteJSON(&buf, map[string]string{"error": err.Error()})
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(code)
		_, _ = w.Write(buf.Bytes())
	})
}

// MetricsHandler serves every metric of regs, concatenated, in Prometheus
// text exposition format — /metrics on the debug endpoint.
func MetricsHandler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			r.WritePrometheus(w)
		}
	})
}

// VarsHandler serves JSON snapshots of regs keyed by clock domain — the
// expvar-style /debug/vars view cmd/slimstat consumes.
func VarsHandler(regs ...*Registry) http.Handler {
	return JSONHandler(func(*http.Request) (any, error) {
		domains := make(map[string]Snapshot, len(regs))
		for _, r := range regs {
			domains[string(r.Domain())] = r.Snapshot()
		}
		return domains, nil
	})
}

// PprofHandler serves the standard net/http/pprof profiles; mount it at
// /debug/pprof/.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// CounterSum adds up every counter whose base name matches base, across
// label variants — e.g. the total commands over all per-type counters.
func (s Snapshot) CounterSum(base string) int64 {
	var n int64
	for name, v := range s.Counters {
		if b, _ := splitName(name); b == base {
			n += v
		}
	}
	return n
}
