package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := New("fig-test", "a sample table", "name", "value")
	t.AddRow("alpha", F(1.5))
	t.AddRow("beta", F(12.3456))
	t.AddRow("gamma", F(1234.5))
	return t
}

func TestAddRowPanicsOnMismatch(t *testing.T) {
	tbl := New("x", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("AddRow with wrong cell count should panic")
		}
	}()
	tbl.AddRow("only-one")
}

func TestF(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5000",
		12.3456: "12.35",
		1234.5:  "1234", // strconv rounds half to even
		1234.6:  "1235",
		-2000:   "-2000",
		-15.5:   "-15.50",
	}
	for v, want := range cases {
		if got := F(v); got != want {
			t.Errorf("F(%g) = %q, want %q", v, got, want)
		}
	}
	if I(42) != "42" {
		t.Error("I(42) mismatch")
	}
}

func TestFprintAligned(t *testing.T) {
	out := sample().String()
	if !strings.Contains(out, "== fig-test ==") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "a sample table") {
		t.Error("note missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, note, header, separator, 3 rows.
	if len(lines) != 7 {
		t.Fatalf("want 7 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "-") {
		t.Errorf("line 4 should be a separator, got %q", lines[3])
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 CSV lines, got %d", len(lines))
	}
	if lines[0] != "name,value" {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestColumn(t *testing.T) {
	vals, err := sample().Column("value")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1.5 {
		t.Errorf("Column(value) = %v", vals)
	}
	if _, err := sample().Column("missing"); err == nil {
		t.Error("missing column should fail")
	}
	bad := New("x", "", "v")
	bad.AddRow("not-a-number")
	if _, err := bad.Column("v"); err == nil {
		t.Error("non-numeric cell should fail")
	}
}
