package energy

import "testing"

func TestIntensityKnown(t *testing.T) {
	coal, err := Intensity("coal")
	if err != nil || coal != 0.700 {
		t.Errorf("Intensity(coal) = %g, %v", coal, err)
	}
	// Case-insensitive.
	if v, err := Intensity("COAL"); err != nil || v != 0.700 {
		t.Errorf("Intensity(COAL) = %g, %v", v, err)
	}
	if _, err := Intensity("fusion"); err == nil {
		t.Error("unknown source should fail")
	}
}

func TestAllWithinTableI(t *testing.T) {
	for _, s := range catalog {
		if s.KgPerKWh < 0.030 || s.KgPerKWh > 0.700 {
			t.Errorf("source %s intensity %g outside Table I range [0.030, 0.700]", s.Name, s.KgPerKWh)
		}
		if s.Description == "" {
			t.Errorf("source %s lacks a description", s.Name)
		}
	}
}

func TestNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Errorf("catalog should have 12 sources, got %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Error("Names() should be sorted")
		}
	}
}
