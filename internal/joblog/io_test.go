package joblog

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// readCSVReference is the reader ReadCSV replaced, kept as the decoder's
// reference: one goroutine, the whole file split before any cell is
// parsed, one Record and one []Value per row, strings aliasing their
// CSV lines. It differs from that reader in one respect, the one the
// streaming decoder defines: of several defects the first in file order
// is reported, so a csv syntax error yields to a bad row above it. On a
// file with a single defect the two agree by construction.
func readCSVReference(r io.Reader) (*Log, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var rows [][]string
	var syntaxErr error
	for syntaxErr == nil {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if syntaxErr = err; err == nil {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		if syntaxErr != nil {
			return nil, fmt.Errorf("joblog: read csv: %w", syntaxErr)
		}
		return nil, fmt.Errorf("joblog: empty csv")
	}
	fields, err := parseCSVHeader(rows[0])
	if err != nil {
		return nil, err
	}
	log := NewLog(NewSchema(fields))
	for rowNum, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("joblog: row %d has %d cells, want %d", rowNum+2, len(row), len(rows[0]))
		}
		rec := &Record{ID: row[0], Values: make([]Value, len(fields))}
		for i, cell := range row[1:] {
			if rec.Values[i], err = ParseValue(fields[i].Kind, cell); err != nil {
				return nil, fmt.Errorf("joblog: row %d field %q: %w", rowNum+2, fields[i].Name, err)
			}
		}
		log.MustAppend(rec)
	}
	if syntaxErr != nil {
		return nil, fmt.Errorf("joblog: read csv: %w", syntaxErr)
	}
	return log, nil
}

// assertLogsIdentical is stricter than assertLogsEqual: kinds and the
// bits of every numeric must agree, so NaN payloads, signed zeros and
// missing cells cannot pass for one another.
func assertLogsIdentical(t *testing.T, want, got *Log) {
	t.Helper()
	if !want.Schema.Equal(got.Schema) {
		t.Fatalf("schema %v, want %v", got.Schema.Fields(), want.Schema.Fields())
	}
	if want.Len() != got.Len() {
		t.Fatalf("%d records, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		w, g := want.Record(i), got.Record(i)
		if w.ID != g.ID || len(w.Values) != len(g.Values) {
			t.Fatalf("record %d is %q with %d values, want %q with %d", i, g.ID, len(g.Values), w.ID, len(w.Values))
		}
		for j, wv := range w.Values {
			gv := g.Values[j]
			if wv.Kind != gv.Kind || wv.Str != gv.Str || math.Float64bits(wv.Num) != math.Float64bits(gv.Num) {
				t.Fatalf("record %q field %d is %#v, want %#v", w.ID, j, gv, wv)
			}
		}
	}
}

// numberedRows renders a well-formed file of n data rows over one
// nominal and one numeric field.
func numberedRows(n int) string {
	var sb strings.Builder
	sb.WriteString("id:id,site:nominal,secs:numeric\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "job-%d,site-%d,%d.5\n", i, i%3, i)
	}
	return sb.String()
}

// withProcs runs f with at least two Ps, so the decode workers really
// interleave (and the race detector sees them) on a one-core box.
func withProcs(t *testing.T, f func()) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	f()
}

// TestReadCSVErrors pins the message of every single-defect file; the
// strings are the replaced reader's, except that duplicate and empty
// field names used to panic in NewSchema.
func TestReadCSVErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"empty", "", "joblog: empty csv"},
		{"bad id col", "x:id\n", `joblog: first header cell must be "id:id", got "x:id"`},
		{"no kind", "id:id,foo\n", `joblog: header cell "foo" lacks :kind suffix`},
		{"bad kind", "id:id,foo:weird\n", `joblog: header cell "foo:weird" has unknown kind "weird"`},
		{"empty name", "id:id,:numeric\n", "joblog: field 0 has an empty name"},
		{"duplicate name", "id:id,a:numeric,a:nominal\n", `joblog: duplicate field "a"`},
		{"bad numeric", "id:id,n:numeric\nr1,xyz\n",
			`joblog: row 2 field "n": joblog: parse numeric "xyz": strconv.ParseFloat: parsing "xyz": invalid syntax`},
		{"ragged", "id:id,n:numeric\nr1,1\nr2,2,3\n", "joblog: row 3 has 3 cells, want 2"},
		{"bare quote", "id:id,s:nominal\nr1,a\"b\n", `joblog: read csv: parse error on line 2, column 5: bare " in non-quoted-field`},
		{"bare quote in header", "id:id,s\"x:nominal\n", `joblog: read csv: parse error on line 1, column 8: bare " in non-quoted-field`},
		{"bad numeric in last batch", numberedRows(csvBatchRows+3) + "late,site-0,1e\n",
			fmt.Sprintf(`joblog: row %d field "secs": joblog: parse numeric "1e": strconv.ParseFloat: parsing "1e": invalid syntax`, csvBatchRows+5)},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.in))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.name, err, c.want)
		}
		if _, ref := readCSVReference(strings.NewReader(c.in)); ref == nil || ref.Error() != c.want {
			t.Errorf("%s: reference error %v, want %s", c.name, ref, c.want)
		}
	}
}

// TestReadCSVFirstDefectWins: with several defects the one earliest in
// the file is reported, whichever goroutine met it and whenever.
func TestReadCSVFirstDefectWins(t *testing.T) {
	rows := strings.Split(strings.TrimSuffix(numberedRows(4*csvBatchRows), "\n"), "\n")
	rows[csvBatchRows/2] = "early,site-0,not-a-number"
	rows[2*csvBatchRows+7] = "ragged,site-0"
	rows[3*csvBatchRows] = `syntax,si"te,1`
	in := strings.Join(rows, "\n")
	want := fmt.Sprintf(`joblog: row %d field "secs": joblog: parse numeric "not-a-number": `+
		`strconv.ParseFloat: parsing "not-a-number": invalid syntax`, csvBatchRows/2+1)
	withProcs(t, func() {
		for i := 0; i < 20; i++ {
			if _, err := ReadCSV(strings.NewReader(in)); err == nil || err.Error() != want {
				t.Fatalf("run %d: error %v, want %s", i, err, want)
			}
		}
	})
	// A syntax error no longer outranks a bad row above it.
	in = "id:id,n:numeric\nr1,x\nr2,\"\n"
	want = `joblog: row 2 field "n": joblog: parse numeric "x": strconv.ParseFloat: parsing "x": invalid syntax`
	if _, err := ReadCSV(strings.NewReader(in)); err == nil || err.Error() != want {
		t.Errorf("row error before syntax error: %v, want %s", err, want)
	}
}

// TestReadCSVBatchesKeepFileOrder reads files around the batch size on
// several Ps and requires the reference's records in the reference's
// order.
func TestReadCSVBatchesKeepFileOrder(t *testing.T) {
	withProcs(t, func() {
		for _, n := range []int{0, 1, csvBatchRows - 1, csvBatchRows, csvBatchRows + 1, 7*csvBatchRows + 5} {
			in := numberedRows(n)
			want, err := readCSVReference(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadCSV(strings.NewReader(in))
			if err != nil {
				t.Fatalf("%d rows: %v", n, err)
			}
			assertLogsIdentical(t, want, got)
		}
	})
}

// TestReadCSVInternIsBounded: a nominal column that never repeats is
// still read exactly, across many batches' local symbol tables.
func TestReadCSVInternIsBounded(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("id:id,host:nominal\n")
	for i := 0; i < 12*csvBatchRows; i++ {
		fmt.Fprintf(&sb, "r%d,host-%d\n", i, i)
	}
	want, err := readCSVReference(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	assertLogsIdentical(t, want, got)
}

// FuzzReadLogCSV is differential: on any input the streaming decoder
// and the reference return identical logs or identical errors, and
// neither panics — the decoder both as ReadCSV boxes its rows and as
// ReadCSVPlanes leaves them: the same planes, numbered in the same
// order, as a build over the reference's records.
func FuzzReadLogCSV(f *testing.F) {
	for _, seed := range []string{
		"",                    // empty file
		"id:id,n:numeric\n",   // header only
		"id:id,n:numeric\nr1", // ragged row
		"id:id,s:nominal,n:numeric\nr1,\"a,b\"\"c\nd\",1\n\nr2,,NaN\n", // quoted comma, quote, newline; blank line
		"id:id,n:numeric,n:numeric\nr1,1,2\n",                          // duplicate field
		"id:id,n:numeric\nr1,x\nr2,\"\n",                               // syntax error after a row error
		"id:id,n:numeric\nr1,1\nr2,\"\n",                               // syntax error alone
		"id:id,n:numeric\r\nr1,-0\r\nr2,+Inf\r\nr3,4.9e-324\r\n",       // CRLF, signed zero, subnormal
		numberedRows(csvBatchRows),                                     // exactly one batch
		numberedRows(csvBatchRows + 1),                                 // one row over
		numberedRows(csvBatchRows+3) + "late,site-0,1e\n",              // bad float in the last batch
		"\xef\xbb\xbfid:id,n:numeric\nr1,1\n",                          // BOM: not the id header
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readCSVReference(bytes.NewReader(data))
		got, gotErr := ReadCSV(bytes.NewReader(data))
		planes, planesErr := ReadCSVPlanes(bytes.NewReader(data))
		if wantErr != nil || gotErr != nil || planesErr != nil {
			if wantErr == nil || gotErr == nil || planesErr == nil ||
				wantErr.Error() != gotErr.Error() || wantErr.Error() != planesErr.Error() {
				t.Fatalf("error %v, from planes %v, reference %v", gotErr, planesErr, wantErr)
			}
			return
		}
		assertLogsIdentical(t, want, got)
		if planes.Records != nil {
			t.Fatal("ReadCSVPlanes built records")
		}
		assertLogsIdentical(t, want, planes)
		assertColumnsIdentical(t, want.Columns(), planes.Columns())
	})
}

// TestWriteCSVMatchesEncodingCSV pins WriteCSV's bytes to what
// encoding/csv writes for Value.String of the same cells.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	schema := NewSchema([]Field{
		{Name: "s", Kind: Nominal},
		{Name: "x", Kind: Numeric},
		{Name: `odd,"name`, Kind: Nominal},
	})
	strs := []string{"plain", "", " leading space", " nbsp first", "trailing ", `\.`, `\.x`, `say "hi"`, `"`,
		"a,b", "cr\rhere", "lf\nhere", "crlf\r\nhere", "tab\tinside", "\tleading tab", "zürich-北", "\xff\xfe", "#comment"}
	nums := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e21, 1e-7, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, 0.1 + 0.2}
	l := NewLog(schema)
	for i, s := range strs {
		l.MustAppend(&Record{ID: s, Values: []Value{Str(s), Num(nums[i%len(nums)]), Str(strs[len(strs)-1-i])}})
	}
	for i, x := range nums {
		l.MustAppend(&Record{ID: fmt.Sprintf("n%d", i), Values: []Value{None(), Num(x), None()}})
	}
	// Alien cells print by their own kind, as Value.String does.
	l.MustAppend(&Record{ID: "alien", Values: []Value{Num(2.5), Str("text, quoted"), None()}})

	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	row := []string{idHeader}
	for _, f := range schema.Fields() {
		row = append(row, f.Name+":"+f.Kind.String())
	}
	if err := cw.Write(row); err != nil {
		t.Fatal(err)
	}
	for _, r := range l.Records {
		row = append(row[:0], r.ID)
		for _, v := range r.Values {
			row = append(row, v.String())
		}
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := l.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV wrote\n%q\nencoding/csv wrote\n%q", got.Bytes(), want.Bytes())
	}

	// A log longer than one write chunk comes out whole and in order.
	big := NewLog(schema)
	for i := 0; i < 3*csvWriteChunk/20; i++ {
		big.MustAppend(&Record{ID: fmt.Sprintf("job-%06d", i), Values: []Value{Str("site"), Num(float64(i)), None()}})
	}
	got.Reset()
	if err := big.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&got)
	if err != nil {
		t.Fatal(err)
	}
	assertLogsIdentical(t, big, back)
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after -= len(p); w.after < 0 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestWriteCSVReportsWriteErrors(t *testing.T) {
	l, err := ReadCSV(strings.NewReader(numberedRows(3 * csvWriteChunk / 20)))
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []int{0, csvWriteChunk + 1} {
		if err := l.WriteCSV(&failingWriter{after: after}); err == nil || !strings.Contains(err.Error(), "joblog: write csv") {
			t.Errorf("writer failing after %d bytes: error %v", after, err)
		}
	}
}

// stringHeavyCSV renders a task-style log: long repeating nominal cells
// (hosts, script paths, phases) beside a few numerics, the shape in
// which a record that pins its CSV line wastes the most.
func stringHeavyCSV(rows int) []byte {
	var sb strings.Builder
	sb.WriteString("id:id,host:nominal,script:nominal,phase:nominal,rack:nominal,attempt:nominal,secs:numeric,bytes:numeric\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "attempt_201209_%07d,ip-10-0-%d-%d.ec2.internal,/user/pig/scripts/simple-%d.pig,%s,/default-rack-%02d,attempt-of-task-%d,%d.25,%d\n",
			i, i%7, i%11, i%5, []string{"MAP", "SHUFFLE", "REDUCE"}[i%3], i%4, i%3, i%1000, i*4096)
	}
	return []byte(sb.String())
}

// retainedBytes is the live heap a log read by read keeps once the
// input and every temporary are unreachable.
func retainedBytes(t *testing.T, data []byte, read func(io.Reader) (*Log, error)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l, err := read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	runtime.KeepAlive(data) // in both readings, or its last use would free it between them
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestReadCSVRetainsNoLines: a log read from CSV must not keep the file
// alive through its strings. The reference does — every ID and nominal
// cell is a slice of its row's line — so the decoder has to retain less
// than the reference by most of the file's size. (As a share the saving
// depends on how wide cells are beside their 32-byte Values: 28 % here,
// 35 % on the 37-column job sweep.)
//
// Read as planes the same file keeps no Value at all: 8 bytes a numeric
// cell, 4 a nominal one, a bit for missing, the ID, and one copy of each
// distinct string — under a third of what the boxed rows hold.
func TestReadCSVRetainsNoLines(t *testing.T) {
	data := stringHeavyCSV(5000)
	ref := retainedBytes(t, data, readCSVReference)
	got := retainedBytes(t, data, ReadCSV)
	planes := retainedBytes(t, data, ReadCSVPlanes)
	t.Logf("file %d B; retained: decoder %d B, as planes %d B, reference %d B (%.0f%%)", len(data), got, planes, ref, 100*float64(got)/float64(ref))
	if saved := int64(ref) - int64(got); saved < int64(len(data))*3/4 {
		t.Errorf("ReadCSV retains %d B, the line-pinning reference %d B: saved %d B of a %d B file, want at least three quarters of it",
			got, ref, saved, len(data))
	}
	if planes > got/3 {
		t.Errorf("ReadCSVPlanes retains %d B, the boxed rows %d B: want under a third", planes, got)
	}
}
