package obs

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSplitName(t *testing.T) {
	for _, tc := range []struct {
		name, base, labels string
	}{
		{"slim_sessions", "slim_sessions", ""},
		{`slim_encoder_commands_total{type="SET"}`, "slim_encoder_commands_total", `type="SET"`},
		{`h{session="alice",host="a"}`, "h", `session="alice",host="a"`},
	} {
		base, labels := splitName(tc.name)
		if base != tc.base || labels != tc.labels {
			t.Errorf("splitName(%q) = %q, %q; want %q, %q", tc.name, base, labels, tc.base, tc.labels)
		}
	}
}

func TestCounterSumAcrossLabels(t *testing.T) {
	r := NewRegistry(DomainWall)
	r.Counter(`slim_encoder_commands_total{type="SET"}`).Add(3)
	r.Counter(`slim_encoder_commands_total{type="COPY"}`).Add(4)
	r.Counter("slim_other_total").Add(100)
	if got := r.Snapshot().CounterSum("slim_encoder_commands_total"); got != 7 {
		t.Errorf("CounterSum = %d, want 7", got)
	}
}

// TestWritePrometheus pins the exposition contract: TYPE lines once per
// base name, labelled series preserved, cumulative histogram buckets with
// le labels plus _sum and _count.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry(DomainWall)
	r.Counter(`slim_cmds_total{type="SET"}`).Add(2)
	r.Counter(`slim_cmds_total{type="COPY"}`).Add(3)
	r.Gauge("slim_sessions").Set(1)
	h := r.Histogram("slim_lat_seconds")
	h.Observe(time.Millisecond)
	h.Observe(time.Minute) // overflow

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	if n := strings.Count(out, "# TYPE slim_cmds_total counter"); n != 1 {
		t.Errorf("TYPE line for labelled counter appears %d times, want 1\n%s", n, out)
	}
	for _, want := range []string{
		`slim_cmds_total{type="COPY"} 3`,
		`slim_cmds_total{type="SET"} 2`,
		"# TYPE slim_sessions gauge",
		"slim_sessions 1",
		"# TYPE slim_lat_seconds histogram",
		`slim_lat_seconds_bucket{le="+Inf"} 2`,
		"slim_lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the +Inf bucket equals the count, and the
	// 1 ms observation is already included at le="0.001".
	if !strings.Contains(out, `slim_lat_seconds_bucket{le="0.001"} 1`) {
		t.Errorf("cumulative bucket at 1ms missing\n%s", out)
	}
}

func TestDebugHandlers(t *testing.T) {
	wall := NewRegistry(DomainWall)
	sim := NewRegistry(DomainSim)
	wall.Counter("slim_wall_total").Inc()
	sim.Histogram("slim_sim_seconds").Observe(time.Millisecond)

	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(wall, sim))
	mux.Handle("/debug/vars", VarsHandler(wall, sim))
	mux.Handle("/debug/pprof/", PprofHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp, sb.String()
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("/metrics content type = %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "slim_wall_total 1") || !strings.Contains(body, "slim_sim_seconds_count 1") {
		t.Errorf("/metrics missing registries:\n%s", body)
	}

	resp, body = get("/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", resp.StatusCode)
	}
	var domains map[string]Snapshot
	if err := json.Unmarshal([]byte(body), &domains); err != nil {
		t.Fatalf("/debug/vars not valid JSON: %v", err)
	}
	if domains["wall"].Counters["slim_wall_total"] != 1 {
		t.Errorf("wall snapshot wrong: %+v", domains["wall"])
	}
	if domains["sim"].Histograms["slim_sim_seconds"].Count != 1 {
		t.Errorf("sim snapshot wrong: %+v", domains["sim"])
	}

	resp, _ = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

// TestJSONHandlerErrors pins the one error path every JSON debug endpoint
// shares: a failing status callback or an unencodable document answers an
// error document under an error status, never a truncated 200.
func TestJSONHandlerErrors(t *testing.T) {
	cases := []struct {
		name   string
		status func(*http.Request) (any, error)
		code   int
		body   string
	}{
		{"ok", func(*http.Request) (any, error) { return map[string]int{"n": 1}, nil },
			http.StatusOK, "{\n  \"n\": 1\n}\n"},
		{"status error", func(*http.Request) (any, error) {
			return nil, StatusError{Code: http.StatusTooManyRequests, Msg: "rate limited"}
		}, http.StatusTooManyRequests, "{\n  \"error\": \"rate limited\"\n}\n"},
		{"plain error", func(*http.Request) (any, error) { return nil, errors.New("boom") },
			http.StatusInternalServerError, "{\n  \"error\": \"boom\"\n}\n"},
		{"unencodable", func(*http.Request) (any, error) { return math.NaN(), nil },
			http.StatusInternalServerError, ""},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		JSONHandler(c.status).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if rec.Code != c.code {
			t.Errorf("%s: status %d, want %d", c.name, rec.Code, c.code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
		if c.body != "" && rec.Body.String() != c.body {
			t.Errorf("%s: body %q, want %q", c.name, rec.Body.String(), c.body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s: body is not valid JSON: %q", c.name, rec.Body.String())
		}
	}
}
