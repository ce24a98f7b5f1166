package load

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bgpc/internal/router"
	"bgpc/internal/service"
)

// TestRunAgainstRouterFleet points the load harness at a router-
// fronted fleet with one backend dark from the start: the report must
// stay schema-valid, carry a per-backend breakdown, classify the dark
// backend's keys as "rerouted" (the router served them via the ring
// successor), keep the error budget clean — failover means the
// outage never surfaces as 5xx — and carry each backend's own counter
// deltas, with the dark backend recorded as missing.
func TestRunAgainstRouterFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fleet load run")
	}
	alive := httptest.NewServer(service.New(service.Config{
		Workers:    2,
		QueueDepth: 64,
	}))
	defer alive.Close()
	dead := httptest.NewServer(service.New(service.Config{Workers: 1}))
	deadAddr := dead.URL[len("http://"):]
	dead.Close() // dark before the router ever probes it

	rt, err := router.New(router.Config{
		Backends: []string{alive.URL[len("http://"):], deadAddr},
		Health: router.HealthConfig{
			FailAfter:     2,
			ProbeInterval: 25 * time.Millisecond,
			// Fast probing for quick dead-backend detection, but a
			// generous per-probe timeout: with -race slowing the loaded
			// live backend, a timeout tied to the 25ms interval would
			// misread scheduling delay as death and eject it.
			ProbeTimeout: 2 * time.Second,
		},
		Log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	spec := testSpec(t)
	spec.Requests = 80
	spec.RPS = 400
	spec.HostileRate = 0
	spec.CancelRate = 0
	spec.Clients = 8
	sched, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, sched, Options{BaseURLs: []string{front.URL}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Requests != 80 {
		t.Fatalf("requests = %d, want 80", rep.Requests)
	}
	// Every request succeeded somewhere: dark-owner keys as "rerouted",
	// the rest as "2xx"; a 16-key population makes zero dark-owned keys
	// a 2^-16 fluke.
	if got := rep.StatusClasses["2xx"] + rep.StatusClasses["rerouted"]; got != rep.Requests {
		t.Fatalf("2xx+rerouted = %d of %d: %v", got, rep.Requests, rep.StatusClasses)
	}
	if rep.StatusClasses["rerouted"] == 0 {
		t.Fatalf("no rerouted successes despite a dark backend: %v", rep.StatusClasses)
	}
	if rep.ErrorBudget.Violations != 0 {
		t.Fatalf("error budget burned %d violations; failover should hide the outage", rep.ErrorBudget.Violations)
	}
	// The breakdown attributes the work: only the live backend served.
	if len(rep.Backends) == 0 {
		t.Fatal("report has no per-backend breakdown")
	}
	if _, ok := rep.Backends[deadAddr]; ok {
		t.Fatalf("dark backend %s credited with responses: %v", deadAddr, rep.Backends)
	}
	var served int64
	for _, byClass := range rep.Backends {
		for _, n := range byClass {
			served += n
		}
	}
	if served != rep.Requests {
		t.Fatalf("backend breakdown sums to %d, want %d", served, rep.Requests)
	}
	// Router counters ride along in the scrape delta.
	if rep.Counters["bgpc_rtr_proxied_total"] == 0 {
		t.Fatalf("no bgpc_rtr_proxied_total delta in %v", rep.Counters)
	}

	// The backends' own scrapes ride along per backend: the live one
	// shows its service work, the dark one is recorded as missing.
	live := rep.BackendCounters[alive.URL[len("http://"):]]
	if live.Missing != "" {
		t.Fatalf("live backend recorded missing: %s", live.Missing)
	}
	var svc int64
	for name, d := range live.Counters {
		if strings.HasPrefix(name, "bgpc_svc_") {
			svc += d
		}
	}
	if svc == 0 {
		t.Fatalf("live backend shows no bgpc_svc_* counter delta: %v", live.Counters)
	}
	if dark := rep.BackendCounters[deadAddr]; dark.Missing == "" {
		t.Fatalf("dark backend not recorded missing: %+v", dark)
	}
}
