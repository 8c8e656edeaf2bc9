package pkgcarbon

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecochip/internal/tech"
)

// randChiplets builds a random chiplet set over the default node DB.
func randChiplets(rng *rand.Rand, db *tech.DB) []Chiplet {
	sizes := db.Sizes()
	n := 1 + rng.Intn(5)
	out := make([]Chiplet, n)
	for i := range out {
		out[i] = Chiplet{
			Name:    fmt.Sprintf("c%d", i),
			AreaMM2: 5 + rng.Float64()*300,
			Node:    db.MustGet(sizes[rng.Intn(len(sizes))]),
		}
	}
	return out
}

func resultsBitIdentical(a, b *Result) bool {
	return a.Arch == b.Arch &&
		math.Float64bits(a.PackageAreaMM2) == math.Float64bits(b.PackageAreaMM2) &&
		math.Float64bits(a.WhitespaceMM2) == math.Float64bits(b.WhitespaceMM2) &&
		a.NumBridges == b.NumBridges &&
		math.Float64bits(a.NumBonds) == math.Float64bits(b.NumBonds) &&
		math.Float64bits(a.AssemblyYield) == math.Float64bits(b.AssemblyYield) &&
		math.Float64bits(a.PackageKg) == math.Float64bits(b.PackageKg) &&
		math.Float64bits(a.RoutingKg) == math.Float64bits(b.RoutingKg) &&
		math.Float64bits(a.RouterAreaPerChipletMM2) == math.Float64bits(b.RouterAreaPerChipletMM2) &&
		math.Float64bits(a.RouterTotalPowerW) == math.Float64bits(b.RouterTotalPowerW)
}

// The scratch-backed Estimator must reproduce Estimate bit for bit for
// every architecture, including across repeated reuse of one scratch.
func TestEstimatorMatchesEstimate(t *testing.T) {
	db := tech.Default()
	rng := rand.New(rand.NewSource(7))
	for _, arch := range Architectures {
		p := DefaultParams(arch)
		est, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			chiplets := randChiplets(rng, db)
			want, wantErr := Estimate(chiplets, p)
			got, gotErr := est.Estimate(chiplets)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%v trial %d: error mismatch: %v vs %v", arch, trial, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !resultsBitIdentical(want, got) {
				t.Fatalf("%v trial %d: results differ\nwant %+v\ngot  %+v", arch, trial, want, got)
			}
		}
	}
}

// Estimator.Estimate must reproduce a full Estimate bit for bit across
// long single-changed-chiplet walks — area changes, node changes, both
// at once — for every architecture: the step shape of a compiled sweep
// walk, whose retained floorplan tree and communication caches carry
// over from the previous step.
func TestEstimateDeltaMatchesEstimate(t *testing.T) {
	db := tech.Default()
	sizes := db.Sizes()
	rng := rand.New(rand.NewSource(41))
	for _, arch := range Architectures {
		p := DefaultParams(arch)
		est, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		chiplets := randChiplets(rng, db)
		if _, err := est.Estimate(chiplets); err != nil {
			t.Fatalf("%v: first estimate: %v", arch, err)
		}
		for step := 0; step < 200; step++ {
			i := rng.Intn(len(chiplets))
			if rng.Intn(3) > 0 {
				chiplets[i].AreaMM2 = 5 + rng.Float64()*300
			}
			if rng.Intn(2) == 0 {
				chiplets[i].Node = db.MustGet(sizes[rng.Intn(len(sizes))])
			}
			want, err := Estimate(chiplets, p)
			if err != nil {
				t.Fatalf("%v step %d: %v", arch, step, err)
			}
			got, err := est.Estimate(chiplets)
			if err != nil {
				t.Fatalf("%v step %d: estimator: %v", arch, step, err)
			}
			if !resultsBitIdentical(want, got) {
				t.Fatalf("%v step %d: estimator diverges\nwant %+v\ngot  %+v", arch, step, want, got)
			}
		}
	}
}

// A chiplet set whose count or names changed since the previous
// estimate must be planned afresh, never served from a stale tree — on
// the retained-tree path (RDL) and on the from-scratch bridge path.
func TestEstimateDeltaFallsBackOnShapeChange(t *testing.T) {
	for _, arch := range []Architecture{RDLFanout, SiliconBridge} {
		p := DefaultParams(arch)
		est, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		a := chipletsOf(7, 120, 60, 30)
		if _, err := est.Estimate(a); err != nil {
			t.Fatal(err)
		}
		b := chipletsOf(7, 100, 50, 25, 10) // different count
		want, err := Estimate(b, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.Estimate(b)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitIdentical(want, got) {
			t.Fatalf("%v: count-changed estimate diverges:\nwant %+v\ngot  %+v", arch, want, got)
		}
		c := chipletsOf(7, 100, 50, 25, 10)
		c[2].Name = "other"
		want, err = Estimate(c, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err = est.Estimate(c)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitIdentical(want, got) {
			t.Fatalf("%v: name-changed estimate diverges:\nwant %+v\ngot  %+v", arch, want, got)
		}
	}
}

// A chiplet changed since a valid estimate is validated again: the
// retained state never lets an invalid chiplet through.
func TestEstimateDeltaValidatesChangedChiplet(t *testing.T) {
	db := tech.Default()
	est, err := NewEstimator(DefaultParams(RDLFanout))
	if err != nil {
		t.Fatal(err)
	}
	chips := []Chiplet{
		{Name: "a", AreaMM2: 100, Node: db.MustGet(7)},
		{Name: "b", AreaMM2: 50, Node: db.MustGet(14)},
	}
	if _, err := est.Estimate(chips); err != nil {
		t.Fatal(err)
	}
	chips[1].AreaMM2 = -4
	if _, err := est.Estimate(chips); err == nil {
		t.Error("non-positive area should fail")
	}
	chips[1].AreaMM2 = 50
	chips[1].Node = nil
	if _, err := est.Estimate(chips); err == nil {
		t.Error("nil node should fail")
	}
}

// EstimateOnFloorplan must reproduce a full Estimate bit for bit when
// handed the floorplan that estimate would compute — the seam compiled
// parameter plans use for packaging-dirty evaluations whose geometry
// inputs are untouched.
func TestEstimateOnFloorplanMatchesEstimate(t *testing.T) {
	db := tech.Default()
	rng := rand.New(rand.NewSource(59))
	for _, arch := range Architectures {
		base := DefaultParams(arch)
		for trial := 0; trial < 20; trial++ {
			chiplets := randChiplets(rng, db)
			full, err := Estimate(chiplets, base)
			if err != nil {
				continue // e.g. single-chiplet EMIB has no adjacency
			}
			// Perturb a geometry-free parameter, as a DirtyPackaging
			// evaluation would.
			p := base
			p.CarbonIntensity = 0.030 + 0.6*rng.Float64()
			want, err := Estimate(chiplets, p)
			if err != nil {
				t.Fatalf("%v trial %d: %v", arch, trial, err)
			}
			got, err := EstimateOnFloorplan(chiplets, p, full.Floorplan)
			if err != nil {
				t.Fatalf("%v trial %d: EstimateOnFloorplan: %v", arch, trial, err)
			}
			if !resultsBitIdentical(want, got) {
				t.Fatalf("%v trial %d: floorplan-reuse estimate diverges\nwant %+v\ngot  %+v", arch, trial, want, got)
			}
		}
	}
}

func TestEstimateOnFloorplanValidates(t *testing.T) {
	db := tech.Default()
	p := DefaultParams(RDLFanout)
	chips := []Chiplet{{Name: "a", AreaMM2: 100, Node: db.MustGet(7)}}
	if _, err := EstimateOnFloorplan(chips, p, nil); err == nil {
		t.Error("nil floorplan should fail for a 2D architecture")
	}
	if _, err := EstimateOnFloorplan(nil, p, nil); err == nil {
		t.Error("empty chiplet set should fail")
	}
	// ThreeD ignores the floorplan entirely.
	want, err := Estimate(chips, DefaultParams(ThreeD))
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateOnFloorplan(chips, DefaultParams(ThreeD), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsBitIdentical(want, got) {
		t.Error("3D floorplan-reuse estimate diverges from the full path")
	}
}

func TestNewEstimatorValidates(t *testing.T) {
	p := DefaultParams(RDLFanout)
	p.RDLLayers = 99
	if _, err := NewEstimator(p); err == nil {
		t.Error("invalid params should fail at construction")
	}
}

func TestEstimatorResultIsReused(t *testing.T) {
	db := tech.Default()
	p := DefaultParams(RDLFanout)
	est, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := est.Estimate([]Chiplet{{Name: "a", AreaMM2: 100, Node: db.MustGet(7)}, {Name: "b", AreaMM2: 50, Node: db.MustGet(14)}})
	if err != nil {
		t.Fatal(err)
	}
	first := *a
	b, err := est.Estimate([]Chiplet{{Name: "a", AreaMM2: 10, Node: db.MustGet(7)}, {Name: "b", AreaMM2: 5, Node: db.MustGet(14)}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("estimator should return its scratch Result on every call")
	}
	if math.Float64bits(first.PackageKg) == math.Float64bits(b.PackageKg) {
		t.Error("second call should have overwritten the scratch result")
	}
}

// A RoutingTable must reproduce the communication fields of a full
// Estimate bit for bit for every architecture, on the tabulated nodes
// and on copies whose fab parameters moved — it is the seam compiled
// parameter plans use to refresh the node-dependent slice of a
// tabulated packaging result. The set holds a run of three chiplets on
// one node, so the table folds a shared endpoint per member.
func TestRoutingTableMatchesEstimate(t *testing.T) {
	db := tech.Default()
	perturbed, err := db.Clone(func(n *tech.Node) {
		n.DefectDensity = tech.Clamp(n.DefectDensity*1.3, 0.07, 0.3)
		n.EPA = tech.Clamp(n.EPA*0.8, 0.8, 3.5)
	})
	if err != nil {
		t.Fatal(err)
	}
	on := func(d *tech.DB) []Chiplet {
		return []Chiplet{
			{Name: "a", AreaMM2: 120, Node: d.MustGet(7)},
			{Name: "b0", AreaMM2: 60, Node: d.MustGet(14)},
			{Name: "b1", AreaMM2: 60, Node: d.MustGet(14)},
			{Name: "b2", AreaMM2: 60, Node: d.MustGet(14)},
			{Name: "c", AreaMM2: 30, Node: d.MustGet(10)},
			{Name: "d", AreaMM2: 45, Node: d.MustGet(7)},
		}
	}
	for _, arch := range Architectures {
		p := DefaultParams(arch)
		table, err := NewRoutingTable(on(db), p)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		for name, d := range map[string]*tech.DB{"base": db, "perturbed": perturbed} {
			chiplets := on(d)
			full, err := Estimate(chiplets, p)
			if err != nil {
				t.Fatalf("%v %s: %v", arch, name, err)
			}
			r := table.Routing(chiplets)
			if math.Float64bits(r.RoutingKg) != math.Float64bits(full.RoutingKg) ||
				math.Float64bits(r.RouterAreaPerChipletMM2) != math.Float64bits(full.RouterAreaPerChipletMM2) ||
				math.Float64bits(r.RouterTotalPowerW) != math.Float64bits(full.RouterTotalPowerW) {
				t.Errorf("%v %s: routing slice diverges from full estimate:\nfull %+v\ngot  %+v", arch, name, full, r)
			}
		}
	}
	if _, err := NewRoutingTable(nil, DefaultParams(RDLFanout)); err == nil {
		t.Error("empty chiplet set should fail")
	}
}
