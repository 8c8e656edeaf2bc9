package core

import (
	"math"
	"testing"
)

// The cell seam must reproduce the per-chiplet slice of an evaluation
// exactly: summing cells in chiplet order gives the report's MfgKg, and
// each cell matches its ChipletReport row bit for bit.
func TestCellsReassembleReport(t *testing.T) {
	s := threeChiplet(7, 14, 10)
	s.IncludeNRE = true
	s.Chiplets[2].Reused = true
	rep, err := s.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}

	var mfgKg, desKg, nreKg float64
	for i, c := range s.Chiplets {
		cell, err := s.CellFor(db(), c, c.NodeNm)
		if err != nil {
			t.Fatal(err)
		}
		row := rep.Chiplets[i]
		if math.Float64bits(cell.AreaMM2) != math.Float64bits(row.AreaMM2) ||
			math.Float64bits(cell.Yield) != math.Float64bits(row.Yield) ||
			math.Float64bits(cell.MfgKg) != math.Float64bits(row.MfgKg) ||
			math.Float64bits(cell.WastageKg) != math.Float64bits(row.WastageKg) ||
			math.Float64bits(cell.DesignKgTotal) != math.Float64bits(row.DesignKgTotal) ||
			math.Float64bits(cell.DesignKgAmortized) != math.Float64bits(row.DesignKgAmortized) {
			t.Errorf("cell %d does not match report row:\ncell %+v\nrow  %+v", i, cell, row)
		}
		mfgKg += cell.MfgKg
		desKg += cell.DesignKgAmortized
		nreKg += cell.NREKg
	}
	if math.Float64bits(mfgKg) != math.Float64bits(rep.MfgKg) {
		t.Errorf("cell MfgKg sum %v != report %v", mfgKg, rep.MfgKg)
	}
	if math.Float64bits(nreKg) != math.Float64bits(rep.NREKg) {
		t.Errorf("cell NREKg sum %v != report %v", nreKg, rep.NREKg)
	}
	// DesignKg additionally carries the communication-fabric share.
	share, err := s.CommDesignShareKg(db(), s.Chiplets[0].NodeNm, len(s.Chiplets))
	if err != nil {
		t.Fatal(err)
	}
	if got := desKg + share; math.Float64bits(got) != math.Float64bits(rep.DesignKg) {
		t.Errorf("cell DesignKg sum + comm share %v != report %v", got, rep.DesignKg)
	}
}

// A reused chiplet's cell must carry zero design and NRE carbon.
func TestCellForReused(t *testing.T) {
	s := threeChiplet(7, 14, 10)
	s.IncludeNRE = true
	s.Chiplets[0].Reused = true
	cell, err := s.CellFor(db(), s.Chiplets[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	if cell.DesignKgTotal != 0 || cell.DesignKgAmortized != 0 || cell.NREKg != 0 {
		t.Errorf("reused cell carries design/NRE carbon: %+v", cell)
	}
	if cell.MfgKg <= 0 {
		t.Errorf("reused cell must still pay manufacturing carbon: %+v", cell)
	}
}

// MonolithCell must match the monolith report.
func TestMonolithCellMatchesEvaluate(t *testing.T) {
	s := monolith(7)
	s.IncludeNRE = true
	rep, err := s.Evaluate(db())
	if err != nil {
		t.Fatal(err)
	}
	cell, err := s.MonolithCell(db(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(cell.MfgKg) != math.Float64bits(rep.MfgKg) ||
		math.Float64bits(cell.DesignKgAmortized) != math.Float64bits(rep.DesignKg) ||
		math.Float64bits(cell.NREKg) != math.Float64bits(rep.NREKg) ||
		math.Float64bits(cell.AreaMM2) != math.Float64bits(rep.Chiplets[0].AreaMM2) {
		t.Errorf("monolith cell does not match report:\ncell %+v\nrep  %+v", cell, rep)
	}
}

func TestVolumeAccessor(t *testing.T) {
	s := threeChiplet(7, 14, 10)
	if s.Volume() != DefaultVolume {
		t.Errorf("Volume() = %d, want default %d", s.Volume(), DefaultVolume)
	}
	s.SystemVolume = 42
	if s.Volume() != 42 {
		t.Errorf("Volume() = %d, want 42", s.Volume())
	}
}
