package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// FuzzServeDecode sends arbitrary bodies to POST /v1/whatif through
// Handler. Whatever the body, the handler must not panic and must answer
// 200, 400 or 413 — never a 500. The seeds are swap and perturbation
// what-ifs on the paper's EPYC-8 and GA102 testcases, each of which is
// first checked to answer 200, so the corpus starts deep in the
// evaluation path rather than at the JSON syntax check.
func FuzzServeDecode(f *testing.F) {
	db := tech.Default()
	epyc, err := testcases.EPYC(db, 8)
	if err != nil {
		f.Fatal(err)
	}
	ga := testcases.GA102(db, 7, 14, 10, false)
	h := Handler(NewServer(db, Config{}))
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewReader(body)))
		return rec
	}
	for _, req := range []*WhatIfRequest{
		{System: epyc, Nodes: []int{7, 10, 14}, Swap: map[string]int{"ccd3": 10, "iod": 7}},
		{System: epyc, AreaScale: map[string]float64{"iod": 1.2}, VolumeScale: 2},
		{System: ga, Nodes: ga102Nodes, Swap: map[string]int{ga.Chiplets[0].Name: 10}},
		{System: ga, AreaScale: map[string]float64{ga.Chiplets[1].Name: 0.8}},
		{System: ga, VolumeScale: 0.5},
	} {
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
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
