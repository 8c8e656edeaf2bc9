package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"ecochip/internal/engine"
	"ecochip/internal/explore"
)

// Handler exposes a Server over HTTP/JSON:
//
//	POST /v1/sweep        SweepRequest        -> SweepResponse
//	POST /v1/whatif       WhatIfRequest       -> WhatIfResponse
//	POST /v1/disaggregate DisaggregateRequest -> DisaggregateResponse
//	POST /v1/sweep/stream SweepRequest        -> NDJSON StreamLine per
//	                      front snapshot, then one terminal line with
//	                      Result set
//	GET  /v1/stats                            -> Stats
//
// Errors carry an {"error": ...} body. A malformed body or a request the
// model rejects is a 400, and a body over maxBodyBytes is a 413. A
// request shed by the per-family admission gates is a 429 with a
// Retry-After header (whole seconds). A request whose client went away
// mid-evaluation is a 499, and a recovered panic — in an evaluation or
// anywhere else in a handler, such as a plan build — is a 500.
// Handlers are concurrency-safe (the server's caches single-flight
// compiles), so the default one-goroutine-per-connection http.Server
// drive is the intended concurrent serving mode.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := s.Sweep(r.Context(), &req)
		reply(w, resp, err)
	})
	mux.HandleFunc("POST /v1/whatif", func(w http.ResponseWriter, r *http.Request) {
		var req WhatIfRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := s.WhatIf(r.Context(), &req)
		reply(w, resp, err)
	})
	mux.HandleFunc("POST /v1/disaggregate", func(w http.ResponseWriter, r *http.Request) {
		var req DisaggregateRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := s.Disaggregate(r.Context(), &req)
		reply(w, resp, err)
	})
	mux.HandleFunc("POST /v1/sweep/stream", func(w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		if !decode(w, r, &req) {
			return
		}
		streamFront(w, r, s, &req)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return recoverPanics(mux)
}

// recoverPanics answers a panic that escapes h with writeError's 500
// instead of net/http's dropped connection. http.ErrAbortHandler keeps
// its meaning: the handler asked to abort the response.
func recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				writeError(w, &engine.PanicError{Index: -1, Value: v, Stack: debug.Stack()})
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// StreamLine is one NDJSON line of a streamed front: snapshots carry
// Snapshot, the terminal line carries Result (exactly one of the two is
// set; an Error line aborts the stream).
type StreamLine struct {
	Snapshot *explore.FrontSnapshot `json:"snapshot,omitempty"`
	Result   *SweepResponse         `json:"result,omitempty"`
	Error    string                 `json:"error,omitempty"`
}

func streamFront(w http.ResponseWriter, r *http.Request, s *Server, req *SweepRequest) {
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	var wrote bool
	emit := func(line StreamLine) error {
		wrote = true
		if err := enc.Encode(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	resp, err := s.StreamFront(r.Context(), req, func(snap explore.FrontSnapshot) error {
		return emit(StreamLine{Snapshot: &snap})
	})
	if err != nil {
		if !wrote {
			// Nothing streamed yet: fail the request properly.
			writeError(w, err)
			return
		}
		emit(StreamLine{Error: err.Error()})
		return
	}
	emit(StreamLine{Result: resp})
}

// maxBodyBytes bounds a request body. The largest real request, an
// EPYC-class system description, is about 2 KiB.
const maxBodyBytes = 1 << 20

// decode reads exactly one JSON value from the body: anything after it
// but whitespace (a second value, stray bytes) is a 400 too.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the request value")
		}
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf("bad request body: %v", err)})
	return false
}

func reply[T any](w http.ResponseWriter, resp *T, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusClientClosedRequest is the de facto status (nginx's) of a
// request its client abandoned before the reply; net/http has no name
// for it.
const statusClientClosedRequest = 499

// writeError maps a server error to its HTTP shape: a shed request
// becomes 429 with a Retry-After hint, a recovered evaluation panic 500,
// a cancelled request 499, and everything else — an input the model
// rejects — 400.
func writeError(w http.ResponseWriter, err error) {
	var oe *OverloadError
	var pe *engine.PanicError
	status := http.StatusBadRequest
	switch {
	case errors.As(err, &oe):
		secs := int(oe.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		status = http.StatusTooManyRequests
	case errors.As(err, &pe):
		status = http.StatusInternalServerError
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}
