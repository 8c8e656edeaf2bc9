// Package report provides the tabular output format shared by the
// experiment runners, the ecoexp CLI and the benchmark harness: a simple
// column-aligned text renderer and a CSV writer, mirroring how the
// released ECO-CHIP artifact prints the raw data underlying each plot.
package report

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	// Title identifies the experiment (e.g. "fig7a").
	Title string
	// Note is an optional caption describing workload and parameters.
	Note string
	// Headers are the column names.
	Headers []string
	// Rows hold the data cells, each row len(Headers) long.
	Rows [][]string
}

// New creates a table with the given title and headers.
func New(title, note string, headers ...string) *Table {
	return &Table{Title: title, Note: note, Headers: headers}
}

// AddRow appends a row; it panics if the cell count mismatches the
// headers (an experiment-authoring bug, not a runtime condition).
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: table %q: row has %d cells, want %d", t.Title, len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// F formats a float for table cells: fixed-point with enough precision
// for small carbon values, compact for large ones.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fixed(v, 0)
	case v >= 10 || v <= -10:
		return fixed(v, 2)
	default:
		return fixed(v, 4)
	}
}

// pow10[i] is the least float64 not below 10^(i-4): the power itself
// for i >= 4, and the float64 nearest it for 1e-4 ... 1e-1, which lies
// above it (report_test checks both), so a >= pow10[i] is exactly
// a >= 10^(i-4).
var pow10 = [...]float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
	1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}

// fixed is strconv.FormatFloat(v, 'f', prec, 64), byte for byte. The
// 'f' format does not know its digit count in advance, so strconv takes
// its slow arbitrary-precision path for it. fixed derives the count from
// v's decimal exponent and takes strconv's correctly rounded
// fixed-digit 'e' path, which rounds half to even as 'f' does. It falls
// back to 'f' past 17 digits, below 10^-4, and for NaN and infinities.
func fixed(v float64, prec int) string {
	a := math.Abs(v)
	if !(a >= pow10[0] && a < pow10[len(pow10)-1]) {
		return strconv.FormatFloat(v, 'f', prec, 64)
	}
	e := -4 // 10^e <= a < 10^(e+1)
	for a >= pow10[e+5] {
		e++
	}
	digits := e + 1 + prec
	if digits < 1 || digits > 17 {
		return strconv.FormatFloat(v, 'f', prec, 64)
	}
	// b is [-]d[.ddd]e±XX.
	var buf [32]byte
	b := strconv.AppendFloat(buf[:0], v, 'e', digits-1, 64)
	var out [40]byte
	o := out[:0]
	if b[0] == '-' {
		o, b = append(o, '-'), b[1:]
	}
	m := bytes.IndexByte(b, 'e')
	x := 0
	for _, c := range b[m+2:] {
		x = 10*x + int(c-'0')
	}
	if b[m+1] == '-' {
		x = -x
	}
	dig := append(make([]byte, 0, 20), b[0])
	if m > 1 {
		dig = append(dig, b[2:m]...)
	}
	switch x {
	case e:
	case e + 1: // rounded up to a power of ten: 10...0, one digit short
		dig = append(dig, '0')
	default:
		return strconv.FormatFloat(v, 'f', prec, 64)
	}
	if x >= 0 {
		o = append(o, dig[:x+1]...)
		if prec > 0 {
			o = append(append(o, '.'), dig[x+1:]...)
		}
	} else {
		o = append(o, '0', '.')
		for i := -1; i > x; i-- {
			o = append(o, '0')
		}
		o = append(o, dig...)
	}
	return string(o)
}

// I formats an integer cell.
func I(v int) string { return strconv.Itoa(v) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Note); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := widths[i] - len(c); pad > 0; pad-- {
				b.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Fprint(&b)
	return b.String()
}

// WriteCSV writes the table (headers + rows) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Column returns the values of the named column parsed as floats; cells
// that do not parse are returned as NaN-free errors.
func (t *Table) Column(name string) ([]float64, error) {
	idx := -1
	for i, h := range t.Headers {
		if h == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("report: table %q has no column %q", t.Title, name)
	}
	out := make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		v, err := strconv.ParseFloat(row[idx], 64)
		if err != nil {
			return nil, fmt.Errorf("report: table %q row %d column %q: %w", t.Title, i, name, err)
		}
		out[i] = v
	}
	return out, nil
}
