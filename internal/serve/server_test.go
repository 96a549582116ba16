package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestSubmitRunsToCompletion: the basic service loop — POST a job, poll it
// to done, and find the scheduler report attached.
func TestSubmitRunsToCompletion(t *testing.T) {
	_, ts := newTestServer(t, Config{Runners: 1})
	sr := submitOK(t, ts, SubmitRequest{
		Tenant: "alice",
		System: SystemSpec{Kind: "dimers", N: 3},
	})
	if sr.ID == "" || sr.State != JobQueued {
		t.Fatalf("submit response %+v", sr)
	}
	st := waitState(t, ts, sr.ID, 10*time.Second)
	if st.State != JobDone {
		t.Fatalf("job finished %q (error %q), want done", st.State, st.Error)
	}
	if st.Report == nil || st.Report.Fragments == 0 {
		t.Fatalf("done job carries no report: %+v", st)
	}
	if st.FragmentsDone != st.FragmentsTotal || st.FragmentsTotal == 0 {
		t.Fatalf("progress %d/%d, want full", st.FragmentsDone, st.FragmentsTotal)
	}
	if st.RunSeconds < 0 || st.StartedAt == "" || st.FinishedAt == "" {
		t.Fatalf("timing fields missing: %+v", st)
	}
}

// TestSubmitRejectsBadRequests: the 400 family.
func TestSubmitRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Runners: 1})
	for _, tc := range []struct {
		name string
		body string
	}{
		{"malformed json", `{"tenant": "a", `},
		{"unknown field", `{"tenant":"a","surprise":1,"system":{"kind":"dimers","n":1}}`},
		{"bad tenant", `{"tenant":"no spaces","system":{"kind":"dimers","n":1}}`},
		{"empty tenant", `{"system":{"kind":"dimers","n":1}}`},
		{"bad priority", `{"tenant":"a","priority":9,"system":{"kind":"dimers","n":1}}`},
		{"unknown kind", `{"tenant":"a","system":{"kind":"crystal"}}`},
		{"zero waterbox", `{"tenant":"a","system":{"kind":"waterbox","nx":0,"ny":1,"nz":1}}`},
		{"empty text", `{"tenant":"a","system":{"kind":"text"}}`},
		{"nan in text", `{"tenant":"a","system":{"kind":"text","text":"ATOM 0 OW O HOH 1 0 NaN 0 0\n"}}`},
		{"trailing data", `{"tenant":"a","system":{"kind":"dimers","n":1}} {"x":1}`},
	} {
		if code, _ := postRaw(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
}

// postRaw posts a raw submit body and returns the status and the error
// message of a rejection.
func postRaw(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error
}

// TestSubmitBoundsLanczosK: k decides how large a Hessian the exact route
// densifies and how long the quadrature's history grows, so a request's k
// is bounded at 1 000: k = 1 001 is a 400 and k = 1 000 is admitted.
func TestSubmitBoundsLanczosK(t *testing.T) {
	_, ts := newTestServer(t, Config{Runners: 1})
	if code, msg := postRaw(t, ts, `{"tenant":"a","system":{"kind":"dimers","n":1},"spectrum":{"k":1001}}`); code != http.StatusBadRequest {
		t.Fatalf("k = 1001: status %d (%s), want 400", code, msg)
	}
	submitOK(t, ts, SubmitRequest{Tenant: "a", System: SystemSpec{Kind: "dimers", N: 1}, Spectrum: SpectrumSpec{LanczosK: 1000}})
}

// TestSubmitRejectsDenseField: there is one exact path, selected by k, and
// no request field for a second one; the strict decoder names the field it
// refuses.
func TestSubmitRejectsDenseField(t *testing.T) {
	_, ts := newTestServer(t, Config{Runners: 1})
	code, msg := postRaw(t, ts, `{"tenant":"a","system":{"kind":"dimers","n":1},"spectrum":{"dense":true}}`)
	if code != http.StatusBadRequest || !strings.Contains(msg, `"dense"`) {
		t.Fatalf("spectrum.dense: status %d (%s), want 400 naming the field", code, msg)
	}
}

// TestSubmitRejectsOversized: systems beyond MaxAtomsPerJob get 413, both
// when the spec's arithmetic shows it (no allocation) and when only the
// built text system reveals it.
func TestSubmitRejectsOversized(t *testing.T) {
	_, ts := newTestServer(t, Config{Runners: 1, MaxAtomsPerJob: 30})
	for _, body := range []string{
		`{"tenant":"a","system":{"kind":"waterbox","nx":100,"ny":100,"nz":100}}`,
		`{"tenant":"a","system":{"kind":"dimers","n":6}}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413 for %s", resp.StatusCode, body)
		}
	}
	// Within bounds passes.
	submitOK(t, ts, SubmitRequest{Tenant: "a", System: SystemSpec{Kind: "dimers", N: 5}})
}

// TestUnknownJob404s covers the not-found paths.
func TestUnknownJob404s(t *testing.T) {
	_, ts := newTestServer(t, Config{Runners: 1})
	resp, err := http.Get(ts.URL + "/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/j999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestCancelQueuedJob: a job cancelled before any runner picks it up
// finishes as cancelled without running.
func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Runners:      1,
		SkipSpectrum: true,
		Process:      blockingEngine(block),
	})
	defer close(block)
	// First job occupies the single runner…
	submitOK(t, ts, SubmitRequest{Tenant: "a", System: SystemSpec{Kind: "dimers", N: 1}})
	// …second stays queued and is cancelled there.
	second := submitOK(t, ts, SubmitRequest{Tenant: "a", System: SystemSpec{Kind: "dimers", N: 1}})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+second.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != JobCancelled {
		t.Fatalf("cancelled queued job reports %q", st.State)
	}
	if st.StartedAt != "" {
		t.Fatalf("cancelled queued job claims it started: %+v", st)
	}
}

// TestStatusAndMetricsEndpoints: /status aggregates tenants and counters;
// /metrics exposes the per-job labeled scheduler series.
func TestStatusAndMetricsEndpoints(t *testing.T) {
	st := openStore(t, t.TempDir())
	_, ts := newTestServer(t, Config{Runners: 1, Store: st})
	sr := submitOK(t, ts, SubmitRequest{Tenant: "acme", System: SystemSpec{Kind: "dimers", N: 2}})
	waitState(t, ts, sr.ID, 10*time.Second)

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var ds DaemonStatus
	json.NewDecoder(resp.Body).Decode(&ds)
	resp.Body.Close()
	if ds.JobsSubmitted != 1 || ds.JobsDone != 1 {
		t.Fatalf("status counters %+v", ds)
	}
	if ds.Store == nil || ds.Store.Objects == 0 {
		t.Fatalf("store summary missing from /status: %+v", ds.Store)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	io.Copy(&buf, resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		MetricJobsSubmitted + " 1",
		MetricJobsDone + " 1",
		`sched_cache_misses_total{job="` + sr.ID + `",tenant="acme"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestPriorityOrderWithinTenant: with one runner, a tenant's high-priority
// job overtakes earlier low-priority submissions.
func TestPriorityOrderWithinTenant(t *testing.T) {
	block := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Runners:      1,
		SkipSpectrum: true,
		Process:      blockingEngine(block),
	})
	// Occupy the runner so subsequent submissions queue up.
	submitOK(t, ts, SubmitRequest{Tenant: "t", System: SystemSpec{Kind: "dimers", N: 1}})
	low := submitOK(t, ts, SubmitRequest{Tenant: "t", Priority: -1, System: SystemSpec{Kind: "dimers", N: 1}})
	high := submitOK(t, ts, SubmitRequest{Tenant: "t", Priority: 2, System: SystemSpec{Kind: "dimers", N: 1}})
	mid := submitOK(t, ts, SubmitRequest{Tenant: "t", System: SystemSpec{Kind: "dimers", N: 1}})

	close(block)
	for _, id := range []string{low.ID, high.ID, mid.ID} {
		waitState(t, ts, id, 10*time.Second)
	}
	started := func(id string) time.Time {
		st := getStatus(t, ts, id, false)
		tm, err := time.Parse(time.RFC3339Nano, st.StartedAt)
		if err != nil {
			t.Fatalf("job %s StartedAt %q: %v", id, st.StartedAt, err)
		}
		return tm
	}
	if !started(high.ID).Before(started(mid.ID)) || !started(mid.ID).Before(started(low.ID)) {
		t.Fatalf("start order violates priority: high=%v mid=%v low=%v",
			started(high.ID), started(mid.ID), started(low.ID))
	}
}

// TestSecondJobIsResumed: a job over a system an earlier job already ran on
// the shared store is served every fragment from that job's records. They
// count as Resumed (and as cross-job hits), not Deduped: Deduped is for
// members of classes a run computes itself.
func TestSecondJobIsResumed(t *testing.T) {
	_, ts := newTestServer(t, Config{Runners: 1, Store: openStore(t, t.TempDir())})
	second := strings.Replace(waterText(0.96, 3), " HOH 1 ", " HOH 2 ", 3)
	req := SubmitRequest{Tenant: "a", System: SystemSpec{Kind: "text", Text: waterText(0.96, 0) + second}}

	first := waitState(t, ts, submitOK(t, ts, req).ID, 10*time.Second)
	if first.State != JobDone || first.Report.Deduped == 0 || first.Report.Resumed != 0 {
		t.Fatalf("first job: %q %+v; want done with in-run dedup and nothing resumed", first.State, first.Report)
	}
	st := waitState(t, ts, submitOK(t, ts, req).ID, 10*time.Second)
	rep := st.Report
	if st.State != JobDone || rep.Resumed != rep.Fragments || rep.Deduped != 0 || rep.CacheMisses != 0 {
		t.Fatalf("second job: %q %+v; want every fragment resumed, none deduped or computed", st.State, rep)
	}
	if rep.CrossJobHits != rep.Fragments {
		t.Fatalf("second job: %d cross-job hits for %d fragments", rep.CrossJobHits, rep.Fragments)
	}
}
