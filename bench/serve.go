package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/kernel"
	"ecochip/internal/lru"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/serve"
	"ecochip/internal/shard"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// serveMix is ecoserve under two interactive callers over keep-alive
// HTTP on loopback: mostly warm what-ifs, with sweeps, streamed fronts,
// disaggregations and cold what-ifs beside them.
var serveMix = &workload{
	name:     "serve-mix",
	why:      "HTTP/JSON, key hashing, the plan caches, EvalPoint and ParamPlan.Eval; 4% cold what-ifs miss and evict",
	clients:  serveClients,
	p99Floor: true,
	setup:    setupServe,
}

// serveClients is the number of interactive callers, one per vCPU of the
// reference machine.
const serveClients = 2

// The mix per 25-request cycle: 60% warm node-swap what-ifs, 20%
// area/volume perturbations, 8% sweep fronts, 4% streamed fronts, 4%
// disaggregations and 4% cold swaps.
const (
	cycleWarm    = 15
	cyclePerturb = 5
	// coldVariants exceeds the server's 64-plan cache, so cycling through
	// them always misses, compiles and evicts.
	coldVariants = 128
)

var ga102Nodes = []int{7, 10, 14, 22, 28}

// traceHeader carries a request id from a traced client to the timing
// middleware.
const traceHeader = "X-Bench-Trace"

// serveReq is one catalogue request: its endpoint, its pre-encoded
// body, and the decoded form the in-process probes replay.
type serveReq struct {
	kind string // "whatif", "sweep", "stream" or "disaggregate"
	path string
	body []byte
	req  any
}

type handlerTimes struct{ start, end time.Time }

type serveInst struct {
	db     *tech.DB
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	items []item
	reqs  []serveReq
	// Catalogue index groups.
	warm, perturb, sweeps, cold []int
	stream, disagg              int

	pending sync.Map // trace id -> chan handlerTimes
	nextID  atomic.Uint64
	// baseline is the server's counter snapshot after warm-up.
	baseline serve.Stats
}

func setupServe(ctx context.Context, traced bool) (instance, error) {
	db := tech.Default()
	s := &serveInst{db: db, srv: serve.NewServer(db, serve.Config{})}
	if err := s.build(); err != nil {
		return nil, err
	}
	var h http.Handler = serve.Handler(s.srv)
	if traced {
		h = s.timed(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}

	// Warm-up: every request except the cold ones once, so the caches
	// hold the warm plans before timing.
	for i, it := range s.items {
		if contains(s.cold, i) {
			continue
		}
		if _, err := it.run(ctx, nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", it.key, err)
		}
	}
	s.baseline = s.srv.Stats()
	return s, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func (s *serveInst) add(key, kind, path string, req any) int {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // the catalogue's requests are plain data; encoding cannot fail
	}
	r := serveReq{kind: kind, path: path, body: body, req: req}
	s.reqs = append(s.reqs, r)
	s.items = append(s.items, item{key: key, run: s.call(r)})
	return len(s.items) - 1
}

// build fills the fixed catalogue.
func (s *serveInst) build() error {
	epyc, err := testcases.EPYC(s.db, 8)
	if err != nil {
		return err
	}
	ga102 := testcases.GA102(s.db, 7, 10, 14, false)
	blocks, err := testcases.GA102Split(s.db, 6, pkgcarbon.RDLFanout)
	if err != nil {
		return err
	}
	epycNodes := []int{7, 10, 14}
	for i := 0; i < 8; i++ {
		ccd := "ccd" + strconv.Itoa(i)
		for j, swap := range []map[string]int{{ccd: 10}, {ccd: 14, "iod": 10}} {
			s.warm = append(s.warm, s.add(fmt.Sprintf("whatif/EPYC-8/swap-%d-%d", i, j), "whatif", "/v1/whatif",
				&serve.WhatIfRequest{System: epyc, Nodes: epycNodes, Swap: swap}))
		}
	}
	for _, d := range []int{7, 10, 14, 22} {
		for _, m := range []int{10, 14, 22, 28} {
			s.warm = append(s.warm, s.add(fmt.Sprintf("whatif/GA102/swap-%d-%d", d, m), "whatif", "/v1/whatif",
				&serve.WhatIfRequest{System: ga102, Nodes: ga102Nodes, Swap: map[string]int{"digital": d, "memory": m}}))
		}
	}
	perturbs := []struct {
		name string
		sys  *core.System
		area map[string]float64
		vol  float64
	}{
		{"EPYC-8/area-ccd0", epyc, map[string]float64{"ccd0": 1.1}, 0},
		{"EPYC-8/area-iod", epyc, map[string]float64{"iod": 0.9}, 0},
		{"EPYC-8/area-ccd34", epyc, map[string]float64{"ccd3": 1.25, "ccd4": 1.25}, 0},
		{"EPYC-8/volume-half", epyc, nil, 0.5},
		{"EPYC-8/volume-double", epyc, nil, 2},
		{"GA102/area-digital", ga102, map[string]float64{"digital": 1.1}, 0},
		{"GA102/area-memory", ga102, map[string]float64{"memory": 0.8}, 0},
		{"GA102/area-analog", ga102, map[string]float64{"analog": 1.2}, 0},
		{"GA102/volume-half", ga102, nil, 0.5},
		{"GA102/volume-triple", ga102, nil, 3},
	}
	for _, p := range perturbs {
		s.perturb = append(s.perturb, s.add("whatif/"+p.name, "whatif", "/v1/whatif",
			&serve.WhatIfRequest{System: p.sys, AreaScale: p.area, VolumeScale: p.vol}))
	}
	for _, objs := range [][]string{{"embodied", "cost"}, {"total", "area"}} {
		s.sweeps = append(s.sweeps, s.add("sweep/GA102/"+objs[0]+"-"+objs[1], "sweep", "/v1/sweep",
			&serve.SweepRequest{System: ga102, Nodes: ga102Nodes, Objectives: objs}))
	}
	s.stream = s.add("stream/GA102/embodied-cost", "stream", "/v1/sweep/stream",
		&serve.SweepRequest{System: ga102, Nodes: ga102Nodes, Objectives: []string{"embodied", "cost"}})
	s.disagg = s.add("disaggregate/GA102-6blocks", "disaggregate", "/v1/disaggregate",
		&serve.DisaggregateRequest{System: blocks})
	for i := 0; i < coldVariants; i++ {
		v := testcases.GA102(s.db, 7, 10, 14, false)
		v.Chiplets[0].Transistors *= 1 + float64(i+1)/1000
		s.cold = append(s.cold, s.add(fmt.Sprintf("cold/GA102-v%d", i), "whatif", "/v1/whatif",
			&serve.WhatIfRequest{System: v, Nodes: ga102Nodes, Swap: map[string]int{"digital": 10}}))
	}
	return nil
}

// call issues one request over HTTP. Its latency runs from sending the
// request to reading the last byte of the reply; decoding and hashing
// happen in the fold.
func (s *serveInst) call(r serveReq) func(ctx context.Context, ot *opTrace) (fold, error) {
	return func(ctx context.Context, ot *opTrace) (fold, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+r.path, bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		var done chan handlerTimes
		var id uint64
		if ot != nil {
			id = s.nextID.Add(1)
			done = make(chan handlerTimes, 1)
			s.pending.Store(id, done)
			defer s.pending.Delete(id)
			req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
		}
		sp := ot.begin("serve.http", 0)
		resp, err := s.client.Do(req)
		if err != nil {
			ot.end(sp)
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ot.end(sp)
		if err != nil {
			return nil, err
		}
		if done != nil {
			select {
			case t := <-done:
				ot.record("serve.handler", sp, t.start, t.end)
			case <-time.After(5 * time.Second):
				return nil, errors.New("timing middleware never reported the handler span")
			}
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		return decodeFold(r.kind, body), nil
	}
}

// decodeFold decodes a reply and hashes its floats; a reply that does
// not decode hashes to a value no golden holds.
func decodeFold(kind string, body []byte) fold {
	return func(h *hasher) {
		var err error
		switch kind {
		case "whatif":
			var wr serve.WhatIfResponse
			if err = json.Unmarshal(body, &wr); err == nil {
				hashWhatIf(h, &wr)
			}
		case "sweep":
			var sr serve.SweepResponse
			if err = json.Unmarshal(body, &sr); err == nil {
				hashSweep(h, &sr)
			}
		case "stream":
			var sr *serve.SweepResponse
			if sr, err = lastStreamResult(body); err == nil {
				hashSweep(h, sr)
			}
		case "disaggregate":
			var dr serve.DisaggregateResponse
			if err = json.Unmarshal(body, &dr); err == nil {
				hashDisagg(h, &dr)
			}
		}
		if err != nil {
			h.text("undecodable reply: " + err.Error())
		}
	}
}

func hashWhatIf(h *hasher, wr *serve.WhatIfResponse) {
	if wr.Point != nil {
		h.points([]explore.Point{*wr.Point})
	}
	if t := wr.Totals; t != nil {
		h.float(t.MfgKg, t.DesignKg, t.HIKg, t.NREKg, t.OperationalKg, t.PackageAreaMM2, t.AssemblyYield, t.RouterPowerW)
	}
}

func hashSweep(h *hasher, sr *serve.SweepResponse) {
	h.word(uint64(sr.Total))
	h.points(sr.Points)
}

func hashDisagg(h *hasher, dr *serve.DisaggregateResponse) {
	h.float(dr.EmbodiedKg, dr.InitialKg)
	h.word(uint64(dr.Steps))
	for _, g := range dr.Groups {
		for _, b := range g {
			h.text(b)
		}
	}
}

// lastStreamResult parses an NDJSON front stream and returns its
// terminal result line.
func lastStreamResult(body []byte) (*serve.SweepResponse, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, len(body)+1)
	var last serve.StreamLine
	for sc.Scan() {
		last = serve.StreamLine{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return nil, err
		}
		if last.Error != "" {
			return nil, errors.New(last.Error)
		}
	}
	if last.Result == nil {
		return nil, errors.New("stream ended without a result line")
	}
	return last.Result, sc.Err()
}

// timed is the benchmark's middleware around serve.Handler: it reports
// the handler's span to the traced client that sent the request.
func (s *serveInst) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		id, err := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		if err != nil {
			return
		}
		if ch, ok := s.pending.Load(id); ok {
			ch.(chan handlerTimes) <- handlerTimes{start, end}
		}
	})
}

func (s *serveInst) catalogue() []item { return s.items }

func (s *serveInst) deal(rng *rand.Rand, seed int64, cycle int) [][]int {
	var ix []int
	for i := 0; i < cycleWarm; i++ {
		ix = append(ix, s.warm[rng.Intn(len(s.warm))])
	}
	for i := 0; i < cyclePerturb; i++ {
		ix = append(ix, s.perturb[rng.Intn(len(s.perturb))])
	}
	ix = append(ix, s.sweeps...)
	ix = append(ix, s.stream, s.disagg)
	ix = append(ix, s.cold[(int(seed%coldVariants)+coldVariants+cycle)%coldVariants])
	return shuffled(rng, singles(ix...))
}

// probeCycles is the number of mix cycles the in-process probes replay.
const probeCycles = 4

func (s *serveInst) layers(ctx context.Context, tr *tracer) (map[string]metric, error) {
	st := s.srv.Stats()
	base := s.baseline
	sw := delta(st.Sweeps, base.Sweeps)
	pa := delta(st.Params, base.Params)
	di := delta(st.Disaggregates, base.Disaggregates)
	lookups := sw.Hits + sw.Misses + sw.Coalesced + pa.Hits + pa.Misses + pa.Coalesced + di.Hits + di.Misses + di.Coalesced
	admitted, shed := admission(st.Admission)
	admitted0, shed0 := admission(base.Admission)

	m := map[string]metric{
		"serve.handler_us":       {us(tr.mean("serve.handler")), "us"},
		"serve.http_us":          {us(tr.mean("serve.http") - tr.mean("serve.handler")), "us"},
		"serve.shed_ratio":       {ratio(shed-shed0, admitted-admitted0+shed-shed0), "ratio"},
		"lru.sweep_hit_ratio":    {ratio(sw.Hits, sw.Hits+sw.Misses+sw.Coalesced), "ratio"},
		"lru.param_hit_ratio":    {ratio(pa.Hits, pa.Hits+pa.Misses+pa.Coalesced), "ratio"},
		"lru.evictions_per_kreq": {1000 * ratio(sw.Evictions+pa.Evictions+di.Evictions, lookups), "count"},
		"lru.coalesced":          {float64(sw.Coalesced + pa.Coalesced + di.Coalesced), "count"},
	}
	probes, err := s.probe(ctx)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = v
	}
	return m, nil
}

func delta(cur, prev lru.Stats) lru.Stats {
	return lru.Stats{
		Hits:      cur.Hits - prev.Hits,
		Misses:    cur.Misses - prev.Misses,
		Coalesced: cur.Coalesced - prev.Coalesced,
		Builds:    cur.Builds - prev.Builds,
		Evictions: cur.Evictions - prev.Evictions,
	}
}

func admission(a serve.AdmissionStats) (admitted, shed uint64) {
	for _, g := range []serve.GateStats{a.Sweeps, a.WhatIfs, a.Disaggregates, a.Streams} {
		admitted += g.Admitted
		shed += g.Shed
	}
	return admitted, shed
}

// probe replays mix cycles in-process, timing each layer from outside:
// the server's methods per request kind, encoding/json on the bodies
// and replies, and below the server the key derivation, EvalPoint and
// ParamPlan.Eval a request reaches.
func (s *serveInst) probe(ctx context.Context) (map[string]metric, error) {
	type acc struct {
		d time.Duration
		n int
	}
	direct := map[string]*acc{"whatif": {}, "sweep": {}, "stream": {}, "disaggregate": {}}
	var jsonT, keyT, evalT, paramT acc
	keyer := explore.NewKeyer(s.db)
	plans := map[*core.System]*explore.CompiledPlan{}
	params := map[*core.System]*paramProbe{}
	cp := cost.DefaultParams()

	rng := rand.New(rand.NewSource(1))
	for c := 0; c < probeCycles; c++ {
		for _, op := range s.deal(rng, 1, c) {
			r := s.reqs[op[0]]
			t0 := time.Now()
			resp, err := s.direct(ctx, r)
			direct[r.kind].d += time.Since(t0)
			direct[r.kind].n++
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.items[op[0]].key, err)
			}
			t0 = time.Now()
			if err := json.Unmarshal(r.body, newRequest(r.kind)); err != nil {
				return nil, err
			}
			if _, err := json.Marshal(resp); err != nil {
				return nil, err
			}
			jsonT.d += time.Since(t0)
			jsonT.n++

			wr, ok := r.req.(*serve.WhatIfRequest)
			if !ok || contains(s.cold, op[0]) {
				continue
			}
			if len(wr.Swap) > 0 {
				plan := plans[wr.System]
				if plan == nil {
					if plan, err = explore.Compile(wr.System, s.db, wr.Nodes, cp); err != nil {
						return nil, err
					}
					plans[wr.System] = plan
				}
				assign := swapAssignment(wr)
				if _, err := plan.EvalPoint(ctx, assign); err != nil { // warm the scratch
					return nil, err
				}
				t0 = time.Now()
				_, err := keyer.SweepKey(wr.System, wr.Nodes, cp)
				t1 := time.Now()
				if err != nil {
					return nil, err
				}
				if _, err := plan.EvalPoint(ctx, assign); err != nil {
					return nil, err
				}
				keyT.d += t1.Sub(t0)
				evalT.d += time.Since(t1)
				keyT.n++
				evalT.n++
				continue
			}
			pp := params[wr.System]
			if pp == nil {
				if pp, err = newParamProbe(wr.System, s.db); err != nil {
					return nil, err
				}
				params[wr.System] = pp
			}
			sys, dirty := perturbed(wr)
			if _, err := pp.plan.Eval(pp.sc, sys, s.db, dirty); err != nil { // warm the scratch
				return nil, err
			}
			t0 = time.Now()
			_, err = keyer.ParamKey(wr.System)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if _, err := pp.plan.Eval(pp.sc, sys, s.db, dirty); err != nil {
				return nil, err
			}
			keyT.d += t1.Sub(t0)
			paramT.d += time.Since(t1)
			keyT.n++
			paramT.n++
		}
	}
	mean := func(a acc) float64 { return us(a.d) / float64(max(a.n, 1)) }
	m := map[string]metric{
		"serve.json_us":        {mean(jsonT), "us"},
		"explore.key_us":       {mean(keyT), "us"},
		"explore.evalpoint_us": {mean(evalT), "us"},
		"kernel.param_eval_us": {mean(paramT), "us"},
	}
	for kind, a := range direct {
		m["serve.direct_us."+kind] = metric{mean(*a), "us"}
	}
	return m, nil
}

// direct calls the server method a request's endpoint calls.
func (s *serveInst) direct(ctx context.Context, r serveReq) (any, error) {
	switch req := r.req.(type) {
	case *serve.WhatIfRequest:
		return s.srv.WhatIf(ctx, req)
	case *serve.DisaggregateRequest:
		return s.srv.Disaggregate(ctx, req)
	case *serve.SweepRequest:
		if r.kind == "stream" {
			return s.srv.StreamFront(ctx, req, func(shard.FrontSnapshot) error { return nil })
		}
		return s.srv.Sweep(ctx, req)
	}
	return nil, fmt.Errorf("unknown request %T", r.req)
}

func newRequest(kind string) any {
	switch kind {
	case "whatif":
		return new(serve.WhatIfRequest)
	case "disaggregate":
		return new(serve.DisaggregateRequest)
	}
	return new(serve.SweepRequest)
}

// swapAssignment is the per-chiplet node assignment of a swap what-if.
func swapAssignment(wr *serve.WhatIfRequest) []int {
	a := make([]int, len(wr.System.Chiplets))
	for i, c := range wr.System.Chiplets {
		a[i] = c.NodeNm
		if nm, ok := wr.Swap[c.Name]; ok {
			a[i] = nm
		}
	}
	return a
}

// perturbed builds the perturbed system and dirty set of an area or
// volume what-if the way the server does.
func perturbed(wr *serve.WhatIfRequest) (*core.System, kernel.Dirty) {
	sys := *wr.System
	sys.Chiplets = append([]core.Chiplet(nil), wr.System.Chiplets...)
	var dirty kernel.Dirty
	if len(wr.AreaScale) > 0 {
		dirty |= kernel.DirtyAreas
		for i := range sys.Chiplets {
			if f, ok := wr.AreaScale[sys.Chiplets[i].Name]; ok {
				sys.Chiplets[i].Transistors *= f
			}
		}
	}
	if wr.VolumeScale != 0 {
		dirty |= kernel.DirtyVolume
		vol := sys.SystemVolume
		if vol == 0 {
			vol = core.DefaultVolume
		}
		sys.SystemVolume = max(1, int(float64(vol)*wr.VolumeScale))
		for i := range sys.Chiplets {
			parts := sys.Chiplets[i].ManufacturedParts
			if parts == 0 {
				parts = core.DefaultVolume
			}
			sys.Chiplets[i].ManufacturedParts = max(1, int(float64(parts)*wr.VolumeScale))
		}
	}
	return &sys, dirty
}

type paramProbe struct {
	plan *kernel.ParamPlan
	sc   *kernel.Scratch
}

func newParamProbe(sys *core.System, db *tech.DB) (*paramProbe, error) {
	plan, err := kernel.CompileParams(sys, db)
	if err != nil {
		return nil, err
	}
	sc, err := plan.NewScratch()
	if err != nil {
		return nil, err
	}
	return &paramProbe{plan, sc}, nil
}

func (s *serveInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.client.CloseIdleConnections()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
