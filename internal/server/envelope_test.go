package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"repro/biodeg/api"
)

// parseEnvelope asserts a non-2xx response carries the versioned
// problem+json envelope and returns it.
func parseEnvelope(t *testing.T, resp *http.Response) *api.Error {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != api.ProblemContentType {
		t.Errorf("status %d Content-Type = %q, want %q", resp.StatusCode, ct, api.ProblemContentType)
	}
	body := slurp(t, resp)
	e, ok := api.ParseError([]byte(body))
	if !ok {
		t.Fatalf("status %d body is not an error envelope: %s", resp.StatusCode, body)
	}
	return e
}

// TestSweepErrorEnvelopes checks the sweep route's envelope
// responses: a malformed request is 400 bad_request, and a session
// journal written under other result-shaping knobs is 409
// config_mismatch.
func TestSweepErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})
	url := ts.URL + "/v1/sweeps/alu-depth"

	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed JSON", `{"tech":`, http.StatusBadRequest, api.CodeBadRequest},
		{"config mismatch", `{"tech":"` + mismatchTech + `"}`, http.StatusConflict, api.CodeConfigMismatch},
	} {
		resp := post(t, url, tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, slurp(t, resp))
		}
		if e := parseEnvelope(t, resp); e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
	}
}

// TestFallbackEnvelope: unknown routes 404 and known paths under wrong
// methods 405 (with Allow), both in the envelope.
func TestFallbackEnvelope(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})

	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d, want 404", resp.StatusCode)
	}
	if e := parseEnvelope(t, resp); e.Code != api.CodeNotFound {
		t.Errorf("unknown route: code %q, want %q", e.Code, api.CodeNotFound)
	}

	// /v1/simulate exists, but only under POST.
	resp, err = http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/simulate: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("GET /v1/simulate: Allow = %q, want POST", allow)
	}
	if e := parseEnvelope(t, resp); e.Code != api.CodeMethodNotAllowed {
		t.Errorf("GET /v1/simulate: code %q, want %q", e.Code, api.CodeMethodNotAllowed)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/width", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/sweeps/width: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("DELETE /v1/sweeps/width: Allow = %q, want POST", allow)
	}
	slurp(t, resp)
}

// TestJobsPagination: GET /v1/jobs pages in stable ascending-ID order
// through the ?limit/?after cursor protocol and filters on ?state.
func TestJobsPagination(t *testing.T) {
	s, ts := newTestServer(t, &journalingEngine{}, Options{})
	if err := s.EnableJobs(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	var ids []string
	for i := 0; i < 5; i++ {
		resp := post(t, ts.URL+"/v1/jobs",
			fmt.Sprintf(`{"kind":"alu-depth","idempotency_key":"page-%d"}`, i))
		var st api.JobStatus
		if err := json.Unmarshal([]byte(slurp(t, resp)), &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitJob(t, ts.URL, id)
	}
	sort.Strings(ids)

	page := func(query string) api.JobList {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s: status %d: %s", query, resp.StatusCode, slurp(t, resp))
		}
		var list api.JobList
		if err := json.Unmarshal([]byte(slurp(t, resp)), &list); err != nil {
			t.Fatal(err)
		}
		return list
	}

	// Walk the cursor: 2 + 2 + 1, ascending, no duplicates, no cursor on
	// the last page.
	var walked []string
	after := ""
	for hop := 0; ; hop++ {
		list := page("?limit=2&after=" + after)
		if len(list.Jobs) == 0 && list.Next != "" {
			t.Fatal("empty page with a next cursor")
		}
		for _, j := range list.Jobs {
			walked = append(walked, j.ID)
		}
		if list.Next == "" {
			if len(list.Jobs) > 2 {
				t.Errorf("page of %d jobs exceeds limit 2", len(list.Jobs))
			}
			break
		}
		if list.Next != list.Jobs[len(list.Jobs)-1].ID {
			t.Errorf("next cursor %q is not the last returned ID", list.Next)
		}
		after = list.Next
		if hop > 5 {
			t.Fatal("cursor walk did not terminate")
		}
	}
	if !sort.StringsAreSorted(walked) {
		t.Errorf("walked IDs not ascending: %v", walked)
	}
	if fmt.Sprint(walked) != fmt.Sprint(ids) {
		t.Errorf("cursor walk = %v, want %v", walked, ids)
	}

	if list := page("?state=done"); len(list.Jobs) != 5 {
		t.Errorf("state=done returned %d jobs, want 5", len(list.Jobs))
	}
	if list := page("?state=failed"); len(list.Jobs) != 0 {
		t.Errorf("state=failed returned %d jobs, want 0", len(list.Jobs))
	}

	for _, query := range []string{"?limit=0", "?limit=nope", "?state=bogus"} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/jobs%s: status %d, want 400", query, resp.StatusCode)
		}
		if e := parseEnvelope(t, resp); e.Code != api.CodeBadRequest {
			t.Errorf("GET /v1/jobs%s: code %q", query, e.Code)
		}
	}
}

// TestEveryErrorIsEnveloped sweeps failing requests across the /v1/*
// surface and asserts each non-2xx response parses as the envelope
// with the code matching its status.
func TestEveryErrorIsEnveloped(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})

	cases := []struct {
		method, path, body string
		status             int
	}{
		{http.MethodGet, "/v1/experiments/nope", "", http.StatusNotFound},
		{http.MethodPost, "/v1/experiments/nope/run", "", http.StatusNotFound},
		{http.MethodPost, "/v1/sweeps/no-such-kind", `{"tech":"organic"}`, http.StatusNotFound},
		{http.MethodPost, "/v1/simulate", `{"bench":`, http.StatusBadRequest},
		{http.MethodPost, "/v1/sweeps/width", `{"tech":"` + mismatchTech + `"}`, http.StatusConflict},
		{http.MethodPost, "/v1/shards/exec", `{"indices":[0]}`, http.StatusNotFound}, // retired route
		{http.MethodGet, "/v1/shardz", "", http.StatusNotFound},                      // retired route
		{http.MethodGet, "/v1/jobs", "", http.StatusNotFound},                        // jobs disabled
		{http.MethodGet, "/v1/jobs/deadbeef", "", http.StatusNotFound},
		{http.MethodPut, "/v1/simulate", "{}", http.StatusMethodNotAllowed},
		{http.MethodGet, "/totally/unknown", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := do(t, tc.method, ts.URL+tc.path, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d (%s)", tc.method, tc.path, resp.StatusCode, tc.status, slurp(t, resp))
		}
		e := parseEnvelope(t, resp)
		if e.Code == "" || e.Message == "" {
			t.Errorf("%s %s: envelope missing code or message: %+v", tc.method, tc.path, e)
		}
	}
}

// do issues one request with an optional JSON body.
func do(t *testing.T, method, url, body string) (*http.Response, error) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	return http.DefaultClient.Do(req)
}
