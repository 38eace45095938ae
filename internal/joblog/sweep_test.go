package joblog_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"perfxplain/internal/collect"
	"perfxplain/internal/joblog"
)

// sweepCSV renders the 32-job small sweep amplified ×replicas, the shape
// pxbench loads: replica 0 verbatim, every numeric cell of the later
// ones jittered, so nearly every number is a 16- or 17-digit shortest
// form.
func sweepCSV(tb testing.TB, replicas int) []byte {
	tb.Helper()
	res, err := collect.SmallSweep(42).Collect()
	if err != nil {
		tb.Fatal(err)
	}
	base := res.Jobs
	rng := rand.New(rand.NewSource(6))
	out := joblog.NewLog(base.Schema)
	for r := 0; r < replicas; r++ {
		for _, rec := range base.Records {
			c := rec.Clone()
			c.ID = fmt.Sprintf("%s-r%04d", rec.ID, r)
			if r > 0 {
				for i := range c.Values {
					if c.Values[i].Kind == joblog.Numeric {
						c.Values[i].Num *= math.Exp(0.08 * rng.NormFloat64())
					}
				}
			}
			out.MustAppend(c)
		}
	}
	var buf bytes.Buffer
	if err := out.WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// numericCells returns the non-empty cells of data's numeric columns.
func numericCells(tb testing.TB, data []byte) []string {
	tb.Helper()
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	header := strings.Split(lines[0], ",")
	var cells []string
	for _, line := range lines[1:] {
		row := strings.Split(line, ",")
		if len(row) != len(header) {
			tb.Fatalf("the sweep has a quoted cell: %q", line)
		}
		for i, cell := range row {
			if cell != "" && strings.HasSuffix(header[i], ":numeric") {
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// TestReadCSVAllocatesPerBlock: what the decoder allocates is planes, a
// symbol table and one string of IDs per block, and the same once more
// for the log — never a string per line or per cell, which the reader
// this replaced paid (2.4 allocations a row on this file).
func TestReadCSVAllocatesPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates where the compiler would not")
	}
	data := sweepCSV(t, 100)
	rows := bytes.Count(data, []byte("\n")) - 1
	width := bytes.Count(data[:bytes.IndexByte(data, '\n')], []byte(",")) + 1
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := joblog.ReadCSVPlanes(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	blocks := len(data)/joblog.CSVBlockSize + 1
	// Per block: a plane and a missing bitmap per column, the block's
	// distinct nominal strings, and a few dozen for tables, IDs, buffers
	// and the worker that took it. A block holds some 190 of these rows,
	// so one allocation a row would more than double the count.
	budget := float64((blocks + 1) * (3*width + 48))
	t.Logf("%d rows in %d blocks: %.0f allocations (budget %.0f)", rows, blocks, allocs, budget)
	if allocs > budget {
		t.Errorf("%.0f allocations for %d blocks of %d columns, want at most %.0f", allocs, blocks, width, budget)
	}
	if perBlock := rows / blocks; perBlock < 3*width+48 {
		t.Fatalf("%d rows a block: too few for the budget to tell a per-row allocation", perBlock)
	}
}

// TestParseNumericRoundTripSweep holds the fast parser to strconv on
// every numeric cell of the amplified sweep — shortest-form renderings
// of jittered measurements, the strings the load path is made of — and
// requires that it takes nearly all of them.
func TestParseNumericRoundTripSweep(t *testing.T) {
	cells := numericCells(t, sweepCSV(t, 100))
	took := 0
	for _, c := range cells {
		want, err := strconv.ParseFloat(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		x, ok := joblog.ParseNumeric(c)
		if !ok {
			continue
		}
		took++
		if math.Float64bits(x) != math.Float64bits(want) {
			t.Fatalf("ParseNumeric(%q) = %v (%#x), strconv %v (%#x)", c, x, math.Float64bits(x), want, math.Float64bits(want))
		}
	}
	t.Logf("fast path took %d of %d cells", took, len(cells))
	if took < len(cells)*98/100 {
		t.Errorf("fast path took %d of %d cells, want at least 98%%", took, len(cells))
	}
}

var (
	sinkLog   *joblog.Log
	sinkFloat float64
)

// BenchmarkParseNumeric parses the sweep's numeric cells one by one, with
// the fast parser in front of strconv and with strconv alone.
func BenchmarkParseNumeric(b *testing.B) {
	cells := numericCells(b, sweepCSV(b, 40))
	size := 0
	for _, c := range cells {
		size += len(c)
	}
	run := func(name string, parse func(string) float64) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range cells {
					sinkFloat = parse(c)
				}
			}
		})
	}
	run("fast", func(s string) float64 {
		v, err := joblog.ParseValue(joblog.Numeric, s)
		if err != nil {
			b.Fatal(err)
		}
		return v.Num
	})
	run("strconv", func(s string) float64 {
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			b.Fatal(err)
		}
		return x
	})
}

// BenchmarkReadCSVPlanes is the load path of every binary — read, split,
// parse, land — on a 12 800-row sweep.
func BenchmarkReadCSVPlanes(b *testing.B) {
	data := sweepCSV(b, 400)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := joblog.ReadCSVPlanes(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		sinkLog = l
	}
}
