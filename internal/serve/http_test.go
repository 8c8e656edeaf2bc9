package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/explore"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

func postJSON(t *testing.T, client *http.Client, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) *T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// The HTTP surface must round-trip every request family with the exact
// float bits of the direct Server calls.
func TestHandlerEndpoints(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	srv := NewServer(db, Config{})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	sweepReq := &SweepRequest{System: sys, Nodes: ga102Nodes}
	want, err := srv.Sweep(context.Background(), sweepReq)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", sweepReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	got := decodeBody[SweepResponse](t, resp)
	if got.Key != want.Key || got.Total != want.Total {
		t.Fatalf("sweep envelope = %+v, want %+v", got, want)
	}
	assertSamePoints(t, want.Points, got.Points, "HTTP sweep")

	// What-if swap over HTTP.
	whatIf := &WhatIfRequest{System: sys, Nodes: ga102Nodes, Swap: map[string]int{sys.Chiplets[0].Name: 10}}
	wantWI, err := srv.WhatIf(context.Background(), whatIf)
	if err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/whatif", whatIf)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif: status %d", resp.StatusCode)
	}
	gotWI := decodeBody[WhatIfResponse](t, resp)
	if gotWI.Source != "sweep" || gotWI.Point == nil || !samePoint(*wantWI.Point, *gotWI.Point) {
		t.Fatalf("whatif = %+v, want %+v", gotWI, wantWI)
	}

	// Perturbation what-if over HTTP.
	perturb := &WhatIfRequest{System: sys, VolumeScale: 2}
	wantP, err := srv.WhatIf(context.Background(), perturb)
	if err != nil {
		t.Fatal(err)
	}
	gotP := decodeBody[WhatIfResponse](t, postJSON(t, ts.Client(), ts.URL+"/v1/whatif", perturb))
	if gotP.Totals == nil ||
		math.Float64bits(gotP.Totals.MfgKg) != math.Float64bits(wantP.Totals.MfgKg) ||
		math.Float64bits(gotP.Totals.OperationalKg) != math.Float64bits(wantP.Totals.OperationalKg) {
		t.Fatalf("perturb = %+v, want %+v", gotP, wantP)
	}

	// Stats endpoint reflects the traffic.
	statsResp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[Stats](t, statsResp)
	if stats.Sweeps.Builds != 1 || stats.Params.Builds != 1 {
		t.Fatalf("stats = %+v, want 1 sweep build / 1 param build", stats)
	}
}

// The stream endpoint must emit NDJSON snapshots and a terminal result
// whose front carries the barrier bits.
func TestHandlerStream(t *testing.T) {
	db := tech.Default()
	sys := ga102(t, db)
	srv := NewServer(db, Config{})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	req := &SweepRequest{System: sys, Nodes: ga102Nodes, Objectives: []string{"embodied", "cost"}}
	want, err := srv.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/sweep/stream", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var snapshots int
	var result *SweepResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Result != nil:
			result = line.Result
		case line.Snapshot != nil:
			snapshots++
			if result != nil {
				t.Fatal("snapshot after terminal result")
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if snapshots == 0 || result == nil {
		t.Fatalf("stream shape: %d snapshots, result %v", snapshots, result != nil)
	}
	assertSamePoints(t, want.Points, result.Points, "HTTP streamed front")
}

// The paper's reuse case over HTTP: the 8-CCD EPYC's seven
// interchangeable CCDs put /v1/sweep fronts on the orbit path, while
// /v1/sweep/stream still walks all 262,144 points in 512-point quanta.
// Both must report the whole space and end on the exact front of the
// materialized sweep.
func TestHandlerSymmetricFront(t *testing.T) {
	db := tech.Default()
	sys, err := testcases.EPYC(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int{7, 10, 14, 22}
	plan, err := explore.Compile(sys, db, nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	all, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := explore.ParetoFront(all, explore.ByEmbodied, explore.ByCost)
	const total, quanta = 262144, 512

	srv := NewServer(db, Config{})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()
	req := &SweepRequest{System: sys, Nodes: nodes, Objectives: []string{"embodied", "cost"}}

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	got := decodeBody[SweepResponse](t, resp)
	if !got.Front || got.Total != total {
		t.Fatalf("sweep envelope: front=%v total=%d, want a front of %d", got.Front, got.Total, total)
	}
	assertSamePoints(t, want, got.Points, "HTTP symmetric front")

	resp = postJSON(t, ts.Client(), ts.URL+"/v1/sweep/stream", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	var snaps []explore.FrontSnapshot
	var result *SweepResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Result != nil:
			result = line.Result
		case line.Snapshot != nil:
			snaps = append(snaps, *line.Snapshot)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || result == nil {
		t.Fatalf("stream shape: %d snapshots, result %v", len(snaps), result != nil)
	}
	for i, s := range snaps {
		if s.TotalBlocks != quanta || (i > 0 && s.BlocksDone <= snaps[i-1].BlocksDone) {
			t.Fatalf("snapshot %d at %d/%d blocks after %d: want advancing progress in %d blocks",
				i, s.BlocksDone, s.TotalBlocks, snaps[max(i-1, 0)].BlocksDone, quanta)
		}
	}
	if last := snaps[len(snaps)-1]; last.BlocksDone != quanta {
		t.Fatalf("final snapshot at %d/%d blocks", last.BlocksDone, last.TotalBlocks)
	}
	assertSamePoints(t, want, snaps[len(snaps)-1].Front, "final streamed snapshot")
	if !result.Front || result.Total != total {
		t.Fatalf("stream result: front=%v total=%d, want a front of %d", result.Front, result.Total, total)
	}
	assertSamePoints(t, want, result.Points, "HTTP streamed symmetric front")
}

func TestHandlerErrors(t *testing.T) {
	db := tech.Default()
	srv := NewServer(db, Config{})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	// Malformed body.
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown field (DisallowUnknownFields).
	resp, err = ts.Client().Post(ts.URL+"/v1/whatif", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Validation failure surfaces as a 400 with an error body.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/whatif", &WhatIfRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty what-if: status %d", resp.StatusCode)
	}
	e := decodeBody[map[string]string](t, resp)
	if (*e)["error"] == "" {
		t.Fatal("error body missing")
	}

	// Wrong method.
	resp, err = ts.Client().Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sweep: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// A chiplet of unknown design type is a 400 on every endpoint that
// compiles a plan, and stays one: the same body posted again must not
// find a plan build left in flight by the first. The client deadline
// turns a hung second request into a failure instead of a stalled test.
func TestHandlerUnknownChipletType(t *testing.T) {
	db := tech.Default()
	ts := httptest.NewServer(Handler(NewServer(db, Config{})))
	// Close waits for every handler; a hung one would stall the test.
	defer func() {
		if !t.Failed() {
			ts.Close()
		}
	}()
	client := ts.Client()
	client.Timeout = 10 * time.Second
	sys := ga102(t, db)
	sys.Chiplets[0].Type = 7
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/whatif", &WhatIfRequest{System: sys, VolumeScale: 2}},
		{"/v1/sweep", &SweepRequest{System: sys, Nodes: ga102Nodes}},
		{"/v1/sweep/stream", &SweepRequest{System: sys, Nodes: ga102Nodes, Objectives: []string{"embodied", "cost"}}},
		{"/v1/disaggregate", &DisaggregateRequest{System: sys}},
	} {
		buf, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		for try := 1; try <= 2; try++ {
			resp, err := client.Post(ts.URL+c.path, "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Errorf("%s, post %d: %v", c.path, try, err)
				continue
			}
			e := decodeBody[map[string]string](t, resp)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains((*e)["error"], "unknown design type") {
				t.Errorf("%s, post %d: status %d, body %v; want 400 naming the design type", c.path, try, resp.StatusCode, *e)
			}
		}
	}
}

// A packaging node outside Table I is a 400 on every endpoint: the
// node arrives whole in the body, not from the server's database.
func TestHandlerInvalidPackagingNode(t *testing.T) {
	db := tech.Default()
	ts := httptest.NewServer(Handler(NewServer(db, Config{})))
	defer ts.Close()
	sys := ga102(t, db)
	node := *sys.Packaging.PackagingNode
	node.EPA = -3
	sys.Packaging.PackagingNode = &node
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/whatif", &WhatIfRequest{System: sys, VolumeScale: 2}},
		{"/v1/sweep", &SweepRequest{System: sys, Nodes: ga102Nodes}},
		{"/v1/sweep/stream", &SweepRequest{System: sys, Nodes: ga102Nodes, Objectives: []string{"embodied", "cost"}}},
		{"/v1/disaggregate", &DisaggregateRequest{System: sys}},
	} {
		buf, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+c.path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		e := decodeBody[map[string]string](t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains((*e)["error"], "EPA = -3") {
			t.Errorf("%s: status %d, body %v; want 400 naming the packaging node's EPA", c.path, resp.StatusCode, *e)
		}
	}
}

// A panic that escapes a handler (a plan build, not an evaluation the
// engine recovers) reaches the client as a 500 with an error body, not
// as a dropped connection.
func TestHandlerPanicAnswers500(t *testing.T) {
	ts := httptest.NewServer(recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("plan build failed")
	})))
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/whatif", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("client saw %v, want a 500 status", err)
	}
	e := decodeBody[map[string]string](t, resp)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains((*e)["error"], "plan build failed") {
		t.Fatalf("status %d, body %v; want 500 naming the panic", resp.StatusCode, *e)
	}
}

// A body past maxBodyBytes is refused with 413 on every POST endpoint,
// before it is decoded in full.
func TestHandlerOversizeBody(t *testing.T) {
	ts := httptest.NewServer(Handler(NewServer(tech.Default(), Config{})))
	defer ts.Close()
	body := `{"system": {"name": "` + strings.Repeat("x", maxBodyBytes) + `"}}`
	for _, path := range []string{"/v1/sweep", "/v1/whatif", "/v1/disaggregate", "/v1/sweep/stream"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversize body status %d, want 413", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// A body is one JSON value: a second value or stray bytes after it are
// a 400, while trailing whitespace is not.
func TestHandlerTrailingData(t *testing.T) {
	db := tech.Default()
	ts := httptest.NewServer(Handler(NewServer(db, Config{})))
	defer ts.Close()
	body, err := json.Marshal(&WhatIfRequest{System: ga102(t, db), VolumeScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tail   string
		status int
	}{
		{"", http.StatusOK},
		{"\n\t ", http.StatusOK},
		{`{"x":1}`, http.StatusBadRequest},
		{"junk", http.StatusBadRequest},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/whatif", "application/json", strings.NewReader(string(body)+c.tail))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("volume what-if + %q: status %d, want %d", c.tail, resp.StatusCode, c.status)
		}
	}
}

// writeError maps each error class to its status: a request the model
// rejects is the client's fault (400), a shed request 429 with a
// Retry-After hint, a cancelled request 499 and a recovered evaluation
// panic the server's fault (500), also when wrapped.
func TestWriteErrorStatus(t *testing.T) {
	panicked := &engine.PanicError{Index: 3, Lo: 3, Hi: 3, Value: "boom"}
	for _, c := range []struct {
		name       string
		err        error
		status     int
		retryAfter string
	}{
		{"rejected input", errors.New("explore: no nodes"), http.StatusBadRequest, ""},
		{"overload", &OverloadError{Family: "sweep", Limit: 2, RetryAfter: 2500 * time.Millisecond}, http.StatusTooManyRequests, "2"},
		{"overload under a second", &OverloadError{Family: "whatif", Limit: 1, RetryAfter: time.Millisecond}, http.StatusTooManyRequests, "1"},
		{"panic", panicked, http.StatusInternalServerError, ""},
		{"wrapped panic", fmt.Errorf("sweep: %w", panicked), http.StatusInternalServerError, ""},
		{"cancelled", context.Canceled, statusClientClosedRequest, ""},
		{"wrapped cancellation", fmt.Errorf("walk: %w", context.Canceled), statusClientClosedRequest, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeError(rec, c.err)
			if rec.Code != c.status {
				t.Errorf("status %d, want %d", rec.Code, c.status)
			}
			if got := rec.Header().Get("Retry-After"); got != c.retryAfter {
				t.Errorf("Retry-After %q, want %q", got, c.retryAfter)
			}
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
				t.Errorf("error body %q (%v)", rec.Body.String(), err)
			}
		})
	}
}

// A multi-chiplet monolith has no compiled plan, but /v1/sweep still
// answers it: the points (or their front) carry the bits of
// explore.NodeSweepCtx, and a node list that mixes nodes fails with the
// reference sweep's error, as ecodse -mode sweep does.
func TestHandlerMonolithSweep(t *testing.T) {
	db := tech.Default()
	sys, err := testcases.EPYCMonolith(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db, Config{})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()
	ctx := context.Background()
	cp := cost.DefaultParams()

	for _, nodes := range [][]int{{7}, {7, 7}} {
		want, err := explore.NodeSweepCtx(ctx, sys, db, nodes, cp, engine.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("monolith sweep over %v", nodes)
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", &SweepRequest{System: sys, Nodes: nodes})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", label, resp.StatusCode)
		}
		got := decodeBody[SweepResponse](t, resp)
		if got.Front || got.Total != len(want) || got.Key == "" {
			t.Fatalf("%s: envelope front=%v total=%d key=%q, want all %d points under a key",
				label, got.Front, got.Total, got.Key, len(want))
		}
		assertSamePoints(t, want, got.Points, label)

		objs := []string{"embodied", "cost"}
		resp = postJSON(t, ts.Client(), ts.URL+"/v1/sweep", &SweepRequest{System: sys, Nodes: nodes, Objectives: objs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s front: status %d", label, resp.StatusCode)
		}
		got = decodeBody[SweepResponse](t, resp)
		if !got.Front || got.Total != len(want) {
			t.Fatalf("%s front: envelope front=%v total=%d", label, got.Front, got.Total)
		}
		assertSamePoints(t, explore.ParetoFront(want, explore.ByEmbodied, explore.ByCost), got.Points, label+" front")
	}

	mixed := []int{7, 10}
	_, refErr := explore.NodeSweepReference(ctx, sys, db, mixed, cp, engine.WithWorkers(1))
	if refErr == nil {
		t.Fatal("the reference must reject a monolith over mixed nodes")
	}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", &SweepRequest{System: sys, Nodes: mixed})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed-node monolith sweep: status %d, want 400", resp.StatusCode)
	}
	if e := decodeBody[map[string]string](t, resp); (*e)["error"] != refErr.Error() {
		t.Fatalf("mixed-node monolith sweep: error %q, want the reference's %q", (*e)["error"], refErr.Error())
	}
}
