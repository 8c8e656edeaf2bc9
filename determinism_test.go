package ecochip

import (
	"context"
	"testing"
)

// The entire experiment stack must be deterministic: two back-to-back
// runs of every experiment must render byte-identical tables. This
// guards against map-iteration order, uninitialized state and unseeded
// randomness leaking into results.
func TestWholeStackDeterminism(t *testing.T) {
	db := DefaultDB()
	for _, id := range ExperimentIDs() {
		t1, err := Experiments(id, db)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		t2, err := Experiments(id, db)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if t1.String() != t2.String() {
			t.Errorf("%s: output differs between runs", id)
		}
	}
}

// Evaluations must be side-effect free: evaluating one system twice and
// interleaving other work gives identical reports.
func TestEvaluationPurity(t *testing.T) {
	db := DefaultDB()
	s := GA102(db, 7, 14, 10, false)
	r1, err := s.Evaluate(db)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave other evaluations.
	if _, err := A15(db, 7, 14, 10, false).Evaluate(db); err != nil {
		t.Fatal(err)
	}
	if _, err := TornadoCtx(context.Background(), EMR(db, 10, false), db, 0.2); err != nil {
		t.Fatal(err)
	}
	r2, err := s.Evaluate(db)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalKg() != r2.TotalKg() || r1.EmbodiedKg() != r2.EmbodiedKg() {
		t.Error("evaluation is not pure: interleaved work changed the result")
	}
}
