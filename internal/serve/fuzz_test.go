package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// fuzzPost fuzzes the bodies POSTed to path through Handler. Each seed
// is first checked to answer 200, so the corpus starts deep in the
// evaluation path rather than at the JSON syntax check. Whatever the
// body, the handler must not panic and must answer 200, 400 or 413 —
// never a 500 — and a 200 must pass check (nil: any 200 passes).
func fuzzPost(f *testing.F, path string, seeds []any, check func(t *testing.T, body []byte)) {
	h := Handler(NewServer(tech.Default(), Config{}))
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	for _, req := range seeds {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		if rec := post(body); rec.Code != http.StatusOK {
			f.Fatalf("seed %s: status %d: %s", body, rec.Code, rec.Body)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		switch rec := post(body); rec.Code {
		case http.StatusOK:
			if check != nil {
				check(t, rec.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// fuzzSystems returns the paper's EPYC-8 and GA102 testcases.
func fuzzSystems(f *testing.F) (epyc, ga *core.System) {
	db := tech.Default()
	epyc, err := testcases.EPYC(db, 8)
	if err != nil {
		f.Fatal(err)
	}
	return epyc, testcases.GA102(db, 7, 14, 10, false)
}

// FuzzServeDecode fuzzes POST /v1/whatif. The seeds are swap and
// perturbation what-ifs on EPYC-8 and GA102.
func FuzzServeDecode(f *testing.F) {
	epyc, ga := fuzzSystems(f)
	fuzzPost(f, "/v1/whatif", []any{
		&WhatIfRequest{System: epyc, Nodes: []int{7, 10, 14}, Swap: map[string]int{"ccd3": 10, "iod": 7}},
		&WhatIfRequest{System: epyc, AreaScale: map[string]float64{"iod": 1.2}, VolumeScale: 2},
		&WhatIfRequest{System: ga, Nodes: ga102Nodes, Swap: map[string]int{ga.Chiplets[0].Name: 10}},
		&WhatIfRequest{System: ga, AreaScale: map[string]float64{ga.Chiplets[1].Name: 0.8}},
		&WhatIfRequest{System: ga, VolumeScale: 0.5},
	}, nil)
}

// FuzzServeSweep fuzzes POST /v1/sweep. The seeds are full sweeps and
// fronts of EPYC-8 (whose fronts take the orbit fold) and GA102.
func FuzzServeSweep(f *testing.F) {
	epyc, ga := fuzzSystems(f)
	fuzzPost(f, "/v1/sweep", []any{
		&SweepRequest{System: epyc, Nodes: []int{7, 14}},
		&SweepRequest{System: epyc, Nodes: []int{7, 10, 14}, Objectives: []string{"embodied", "cost"}},
		&SweepRequest{System: ga, Nodes: ga102Nodes},
		&SweepRequest{System: ga, Nodes: ga102Nodes, Objectives: []string{"total", "area"}},
	}, nil)
}

// FuzzServeSweepStream fuzzes POST /v1/sweep/stream. A 200 is an NDJSON
// stream: every line must decode, and the last must carry the result or
// an error that is not a recovered panic.
func FuzzServeSweepStream(f *testing.F) {
	epyc, ga := fuzzSystems(f)
	fuzzPost(f, "/v1/sweep/stream", []any{
		&SweepRequest{System: epyc, Nodes: []int{7, 10, 14}, Objectives: []string{"embodied", "cost"}},
		&SweepRequest{System: ga, Nodes: ga102Nodes, Objectives: []string{"embodied", "cost"}},
	}, func(t *testing.T, body []byte) {
		var last StreamLine
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(nil, maxBodyBytes<<4)
		for sc.Scan() {
			last = StreamLine{}
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatalf("stream line %q: %v", sc.Bytes(), err)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		switch {
		case last.Result == nil && last.Error == "":
			t.Fatalf("stream ended without a result or an error line:\n%s", body)
		case strings.Contains(last.Error, "panic"):
			t.Fatalf("stream ended on a panic: %s", last.Error)
		}
	})
}

// FuzzServeDisaggregate fuzzes POST /v1/disaggregate. The seeds are
// EPYC-8, GA102 and GA102 split into six blocks (the case that merges).
func FuzzServeDisaggregate(f *testing.F) {
	epyc, ga := fuzzSystems(f)
	split, err := testcases.GA102Split(tech.Default(), 6, pkgcarbon.RDLFanout)
	if err != nil {
		f.Fatal(err)
	}
	fuzzPost(f, "/v1/disaggregate", []any{
		&DisaggregateRequest{System: epyc},
		&DisaggregateRequest{System: ga},
		&DisaggregateRequest{System: split},
	}, nil)
}
