package report

import (
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
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

// fixed must reproduce strconv's 'f' format byte for byte: on random
// values across every magnitude and bit pattern, at each precision,
// and on the edge cases of the digit count — exact ties, values that
// round up to the next power of ten, the exponent thresholds and their
// neighbours, zero, negatives, and magnitudes past the fast path.
func TestFixedMatchesStrconv(t *testing.T) {
	check := func(v float64, prec int) {
		t.Helper()
		if got, want := fixed(v, prec), strconv.FormatFloat(v, 'f', prec, 64); got != want {
			t.Fatalf("fixed(%v [%#x], %d) = %q, want %q", v, math.Float64bits(v), prec, got, want)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), 1, 10, 100, 1000, 1e16, 1e17, 1e18, 1e22, 1e300,
		9.99995, 99.995, 999.995, 9999.5, 0.99995, 0.099995, 0.0099995, 0.00099995, 0.00009999,
		9.9999, 9.99994, 99.994, 999.5, 99999.5, 9999999999999999, 99999999999999999,
		1.03125, 10.125, 10.375, 1000.5, 1001.5, 2.5, 0.5, 0.125, 0.0625, 1.5, 12.5,
		123456789012.5, 4503599627370495.5, 1e-4, 1e-3, 1e-2, 1e-1, 5e-5, 1e-5, 1e-300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	for _, p := range pow10 {
		edges = append(edges, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for _, v := range edges {
		for prec := 0; prec <= 6; prec++ {
			check(v, prec)
			check(-v, prec)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200_000; i++ {
		var v float64
		switch i % 4 {
		case 0: // any bit pattern
			v = math.Float64frombits(rng.Uint64())
		case 1: // a mantissa in [1, 10) at a decimal exponent in [-6, 18]
			v = (1 + 9*rng.Float64()) * math.Pow(10, float64(rng.IntN(25)-6))
		case 2: // an exact binary fraction: ties at every precision
			v = float64(rng.Int64N(1<<40)) / float64(int64(1)<<rng.IntN(12))
		default: // a short decimal, near a rounding boundary
			v = float64(rng.Int64N(2_000_000)) / 1e4 * (1 + (rng.Float64()-0.5)*1e-15)
		}
		if rng.IntN(2) == 0 {
			v = -v
		}
		check(v, []int{0, 2, 4}[i%3])
	}
}

// pow10[i] must be the least float64 not below 10^(i-4), or the
// exponent scan in fixed misplaces a value at a threshold.
func TestPow10Thresholds(t *testing.T) {
	for i, p := range pow10 {
		exact := new(big.Rat).SetInt64(1)
		ten := big.NewRat(10, 1)
		for k := 0; k < i-4; k++ {
			exact.Mul(exact, ten)
		}
		for k := 0; k > i-4; k-- {
			exact.Quo(exact, ten)
		}
		if new(big.Rat).SetFloat64(p).Cmp(exact) < 0 {
			t.Errorf("pow10[%d] = %v lies below 10^%d", i, p, i-4)
		}
		if below := math.Nextafter(p, 0); new(big.Rat).SetFloat64(below).Cmp(exact) >= 0 {
			t.Errorf("pow10[%d] = %v: %v is not below 10^%d either", i, p, below, i-4)
		}
	}
}

func BenchmarkF(b *testing.B) {
	vals := []float64{0.1234567, 3.14159, 12.3456, 456.789, 1234.5678, 98765.4321}
	for i := 0; i < b.N; i++ {
		_ = F(vals[i%len(vals)])
	}
}
