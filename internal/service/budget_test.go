package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"bgpc/internal/failpoint"
	"bgpc/internal/limits"
	"bgpc/internal/obs"
	"bgpc/internal/testutil"
)

// estimateFor resolves a request exactly as admission would and
// returns the byte estimate the server will charge against the budget.
func estimateFor(t *testing.T, s *Server, req ColorRequest) int64 {
	t.Helper()
	body := colorBody(req)
	spec, status, err := s.resolve(&body)
	if err != nil {
		t.Fatalf("resolve (status %d): %v", status, err)
	}
	if spec.estBytes <= 0 {
		t.Fatalf("estimate = %d, want positive", spec.estBytes)
	}
	return spec.estBytes
}

func TestOversizedJobRejected413(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	obs.ResetMetrics()
	s := newTestServer(t, Config{Workers: 1, MaxJobBytes: 64})
	w := post(t, s, ColorRequest{Matrix: tinyMtx, Algorithm: "V-V"})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", w.Code, w.Body)
	}
	if got := obs.SvcTooLarge.Load(); got != 1 {
		t.Fatalf("SvcTooLarge = %d, want 1", got)
	}
	// 413 is permanent: no Retry-After invitation to come back.
	if got := w.Header().Get("Retry-After"); got != "" {
		t.Fatalf("413 carried Retry-After %q", got)
	}
	if got := s.BytesInFlight(); got != 0 {
		t.Fatalf("rejected job left %d bytes in flight", got)
	}
}

func TestJobBiggerThanWholeBudget413(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1, MemBudget: 64})
	// The budget is idle, but the job can never fit: permanent 413,
	// not a retryable 429.
	w := post(t, s, ColorRequest{Matrix: tinyMtx, Algorithm: "V-V"})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", w.Code, w.Body)
	}
}

func TestHostileHeaderRejectedAtAdmission(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	obs.ResetMetrics()
	s := newTestServer(t, Config{Workers: 1})
	hostile := "%%MatrixMarket matrix coordinate pattern general\n" +
		"2000000 2000000 1000000000000\n"
	w := post(t, s, ColorRequest{Matrix: hostile})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", w.Code, w.Body)
	}
	if got := obs.SvcTooLarge.Load(); got != 1 {
		t.Fatalf("SvcTooLarge = %d, want 1", got)
	}
	if got := s.BytesInFlight(); got != 0 {
		t.Fatalf("hostile job left %d bytes in flight", got)
	}
}

func TestBudgetExhaustionGives429ThenRecovers(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(failpoint.Reset)

	req := ColorRequest{Matrix: tinyMtx, Algorithm: "V-V", TimeoutMS: 10_000}
	// Size the budget from the server's own estimate: one job fits,
	// two cannot be resident together.
	sizer := newTestServer(t, Config{Workers: 1})
	est := estimateFor(t, sizer, req)
	s := newTestServer(t, Config{Workers: 1, MemBudget: est + est/2})

	// Hold the first job on the worker so its reservation stays live.
	if err := failpoint.ArmFromSpec(FPBeforeRun + "=delay:300ms@1"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if w := post(t, s, req); w.Code != http.StatusOK {
			t.Errorf("held job: status %d: %s", w.Code, w.Body)
		}
	}()
	// Wait until the first job's bytes are actually reserved.
	deadline := time.Now().Add(testutil.Scale(5 * time.Second))
	for s.BytesInFlight() < est {
		if time.Now().After(deadline) {
			t.Fatal("first job never reserved its bytes")
		}
		time.Sleep(time.Millisecond)
	}

	w := post(t, s, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget job: status %d, want 429: %s", w.Code, w.Body)
	}
	ra := w.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	var body ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("429 body not JSON: %s", w.Body)
	}
	if body.Error == "" || body.RetryAfterS < 1 {
		t.Fatalf("429 body = %+v, want error text and retry_after_s", body)
	}

	wg.Wait()
	// The held job finished: its reservation must drain to exactly
	// zero, and the same request must now be admitted.
	if got := s.BytesInFlight(); got != 0 {
		t.Fatalf("bytes in flight after drain = %d, want 0", got)
	}
	failpoint.Reset()
	if w := post(t, s, req); w.Code != http.StatusOK {
		t.Fatalf("post-recovery job: status %d: %s", w.Code, w.Body)
	}
	if got := s.BytesInFlight(); got != 0 {
		t.Fatalf("bytes in flight after recovery = %d, want 0", got)
	}
}

func TestEstimateFailpointGives429(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(failpoint.Reset)
	obs.ResetMetrics()
	s := newTestServer(t, Config{Workers: 1})
	if err := failpoint.ArmFromSpec(limits.FPEstimate + "=err@1"); err != nil {
		t.Fatal(err)
	}
	w := post(t, s, ColorRequest{Matrix: tinyMtx, Algorithm: "V-V"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Retry-After"); got == "" {
		t.Fatal("injected-estimate 429 without Retry-After")
	}
	// Disarmed by @1: the same request is admitted afterwards.
	if w := post(t, s, ColorRequest{Matrix: tinyMtx, Algorithm: "V-V"}); w.Code != http.StatusOK {
		t.Fatalf("post-fault job: status %d: %s", w.Code, w.Body)
	}
}

func TestPresetJobsAreBudgeted(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	req := ColorRequest{Preset: "movielens", Scale: 0.05, Threads: 2}
	est := estimateFor(t, s, req)
	// The estimate must cover at least the CSR arrays of the shape the
	// generator will actually build (sanity anchor, not exactness).
	if est < 1<<10 {
		t.Fatalf("preset estimate = %d bytes, implausibly small", est)
	}
	// A budget below the preset's estimate rejects it outright.
	small := newTestServer(t, Config{Workers: 1, MemBudget: est / 2})
	if w := post(t, small, req); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", w.Code)
	}
	// Unknown presets fail admission as 400, not a worker-side error.
	if w := post(t, s, ColorRequest{Preset: "no-such-preset"}); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown preset: status = %d, want 400: %s", w.Code, w.Body)
	}
}
