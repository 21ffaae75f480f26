package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

// startTestServer binds a loopback status server over a collector with
// one finished job, mirroring what a CLI -status-addr run exposes.
func startTestServer(t *testing.T) (*StatusServer, *Collector) {
	t.Helper()
	c := New()
	c.SweepStart(2, 4)
	tok := c.JobStart()
	c.JobEnd(tok, 1234, false, JobPhases{Construct: 10, Merge: 5})

	s, err := ServeStatus("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, c
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestStatusEndpoint: /status serves the runner-stats document as
// JSON on a dynamically bound port (the ":0" flow scripts rely on).
func TestStatusEndpoint(t *testing.T) {
	s, _ := startTestServer(t)

	code, body := get(t, fmt.Sprintf("http://%s/status", s.Addr()))
	if code != http.StatusOK {
		t.Fatalf("/status = HTTP %d", code)
	}
	var r Report
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("/status body is not a Report: %v\n%s", err, body)
	}
	if r.Schema != Schema || r.JobsTotal != 4 || r.JobsDone != 1 || r.Workers != 2 {
		t.Errorf("document = %s total %d done %d workers %d, want %s 4/1/2",
			r.Schema, r.JobsTotal, r.JobsDone, r.Workers, Schema)
	}
	if r.SimCycles != 1234 {
		t.Errorf("sim cycles = %d, want 1234", r.SimCycles)
	}
}

// TestDebugEndpoints: pprof and expvar ride on the same mux, and expvar
// serves the Go runtime's own variables.
func TestDebugEndpoints(t *testing.T) {
	s, _ := startTestServer(t)

	if code, _ := get(t, fmt.Sprintf("http://%s/debug/pprof/", s.Addr())); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = HTTP %d", code)
	}
	code, body := get(t, fmt.Sprintf("http://%s/debug/vars", s.Addr()))
	if code != http.StatusOK {
		t.Fatalf("/debug/vars = HTTP %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Errorf("/debug/vars lacks the runtime's memstats: %s", body)
	}
}
