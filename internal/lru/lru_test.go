package lru

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetOrBuildCachesValue(t *testing.T) {
	c := New[int](0)
	builds := 0
	build := func() (int, error) { builds++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.GetOrBuild("k", build)
		if err != nil || v != 42 {
			t.Fatalf("GetOrBuild = %d, %v", v, err)
		}
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 2 || s.Builds != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFailedBuildNotCached(t *testing.T) {
	c := New[int](0)
	boom := errors.New("boom")
	if _, err := c.GetOrBuild("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after failed build, want 0", c.Len())
	}
	v, err := c.GetOrBuild("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if s := c.Stats(); s.Builds != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 builds / 2 misses", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[string](2)
	mk := func(s string) func() (string, error) {
		return func() (string, error) { return s, nil }
	}
	c.GetOrBuild("a", mk("A"))
	c.GetOrBuild("b", mk("B"))
	c.GetOrBuild("a", mk("A")) // touch a: b is now LRU
	c.GetOrBuild("c", mk("C")) // evicts b
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// resident reports whether key is served without a build; probing a
	// missing key builds and inserts it, so b is probed last.
	resident := func(key string) bool {
		built := false
		c.GetOrBuild(key, func() (string, error) { built = true; return key, nil })
		return !built
	}
	if !resident("a") {
		t.Fatal("a was evicted despite being recently used")
	}
	if !resident("c") {
		t.Fatal("c missing")
	}
	if resident("b") {
		t.Fatal("b survived eviction")
	}
}

// Concurrent callers for one key must share a single build.
func TestSingleFlight(t *testing.T) {
	c := New[int](0)
	var builds atomic.Int64
	gate := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	results := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrBuild("k", func() (int, error) {
				builds.Add(1)
				<-gate // hold the build open until all callers have arrived
				return 99, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Wait until every late caller has either started the build or
	// coalesced onto it, then release the builder.
	for {
		s := c.Stats()
		if s.Builds+s.Coalesced+s.Hits >= callers {
			break
		}
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1", n)
	}
	for i, v := range results {
		if v != 99 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
}

// A failing single-flight build must hand every waiter the same error.
func TestSingleFlightSharedError(t *testing.T) {
	c := New[int](0)
	boom := errors.New("boom")
	gate := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.GetOrBuild("k", func() (int, error) {
				<-gate
				return 0, boom
			})
		}(i)
	}
	for {
		s := c.Stats()
		if s.Builds+s.Coalesced >= callers {
			break
		}
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want boom", i, err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("failed build left a resident entry")
	}
}

// A build that panics must not leave its key in flight: the panic
// reaches the builder's caller, a coalesced waiter gets an error instead
// of blocking forever, and the next call on the key builds afresh.
func TestPanickingBuildSettles(t *testing.T) {
	c := New[int](0)
	gate := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.GetOrBuild("k", func() (int, error) {
			<-gate
			panic("boom")
		})
	}()
	for c.Stats().Builds == 0 {
	}
	waiter := make(chan error, 1)
	go func() {
		_, err := c.GetOrBuild("k", func() (int, error) { return 0, errors.New("waiter built") })
		waiter <- err
	}()
	for c.Stats().Coalesced == 0 {
	}
	close(gate)
	if r := <-panicked; r != "boom" {
		t.Fatalf("builder's caller recovered %v, want the build's panic", r)
	}
	select {
	case err := <-waiter:
		if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
			t.Fatalf("coalesced waiter got %v, want the panic as an error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coalesced waiter still blocked 10 s after the build panicked")
	}
	v, err := c.GetOrBuild("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("rebuild = %d, %v", v, err)
	}
	if s := c.Stats(); s.Builds != 2 || s.Coalesced != 1 || c.Len() != 1 {
		t.Fatalf("stats = %+v, Len = %d; want 2 builds, 1 coalesced, 1 resident", s, c.Len())
	}
}

// Hammer distinct keys through a tiny cache under the race detector:
// every lookup must return its own key's value even while eviction
// churns the table.
func TestEvictionUnderLoad(t *testing.T) {
	c := New[int](2)
	const keys = 6
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % keys
				v, err := c.GetOrBuild(fmt.Sprintf("k%d", k), func() (int, error) { return k * 10, nil })
				if err != nil || v != k*10 {
					t.Errorf("key k%d -> %d, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatalf("expected evictions under load, stats = %+v", s)
	}
	if c.Len() > 2 {
		t.Fatalf("Len = %d exceeds capacity 2", c.Len())
	}
}
