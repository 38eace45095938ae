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
	"unsafe"
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

// testBlock is the block size of the tests that want a small file cut
// many times: a few dozen of numberedRows' rows.
const testBlock = 1 << 10

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
		{"bad numeric in last block", numberedRows(259) + "late,site-0,1e\n",
			`joblog: row 261 field "secs": joblog: parse numeric "1e": strconv.ParseFloat: parsing "1e": invalid syntax`},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.in))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.name, err, c.want)
		}
		if _, err := readCSVPlanes(strings.NewReader(c.in), testBlock); err == nil || err.Error() != c.want {
			t.Errorf("%s: in %d-byte blocks: error %v, want %s", c.name, testBlock, err, c.want)
		}
		if _, ref := readCSVReference(strings.NewReader(c.in)); ref == nil || ref.Error() != c.want {
			t.Errorf("%s: reference error %v, want %s", c.name, ref, c.want)
		}
	}
}

// TestReadCSVFirstDefectWins: with several defects the one earliest in
// the file is reported, whichever goroutine met it and whenever.
func TestReadCSVFirstDefectWins(t *testing.T) {
	rows := strings.Split(strings.TrimSuffix(numberedRows(1024), "\n"), "\n")
	rows[128] = "early,site-0,not-a-number"
	rows[519] = "ragged,site-0"
	rows[768] = `syntax,si"te,1`
	in := strings.Join(rows, "\n")
	want := `joblog: row 129 field "secs": joblog: parse numeric "not-a-number": ` +
		`strconv.ParseFloat: parsing "not-a-number": invalid syntax`
	withProcs(t, func() {
		for i := 0; i < 20; i++ {
			if _, err := readCSVPlanes(strings.NewReader(in), testBlock); err == nil || err.Error() != want {
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

// TestReadCSVBlocksKeepFileOrder reads files of a few blocks and of
// dozens on several Ps, cut where the header ends, mid-row and at the
// file's last byte, and requires the reference's records in the
// reference's order.
func TestReadCSVBlocksKeepFileOrder(t *testing.T) {
	withProcs(t, func() {
		for _, n := range []int{0, 1, 50, 1797} {
			in := numberedRows(n)
			want, err := readCSVReference(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			header := strings.Index(in, "\n") + 1
			for _, size := range []int{header - 1, header, header + 1, 512, testBlock, len(in) - 1, len(in), len(in) + 1} {
				got, err := readCSVPlanes(strings.NewReader(in), size)
				if err != nil {
					t.Fatalf("%d rows in %d-byte blocks: %v", n, size, err)
				}
				assertLogsIdentical(t, want, got)
			}
		}
	})
}

// TestReadCSVInternIsBounded: a nominal column that never repeats is
// still read exactly, across many blocks' local symbol tables.
func TestReadCSVInternIsBounded(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("id:id,host:nominal\n")
	for i := 0; i < 3072; i++ {
		fmt.Fprintf(&sb, "r%d,host-%d\n", i, i)
	}
	want, err := readCSVReference(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readCSVPlanes(strings.NewReader(sb.String()), testBlock)
	if err != nil {
		t.Fatal(err)
	}
	assertLogsIdentical(t, want, got)
	assertColumnsIdentical(t, want.Columns(), got.Columns())
}

// awkwardCSV is every shape the splitter has rules for, in one file: a
// quoted comma, a doubled quote, a newline inside quotes, CRLF and LF
// line ends, blank lines of both kinds, a lone '\r' inside a cell and
// one ending the file, which has no final newline.
const awkwardCSV = "id:id,s:nominal,n:numeric\r\n" +
	"r1,\"a,b\",1\r\n" +
	"\r\n" +
	"r2,\"say \"\"hi\"\"\",2e3\n" +
	"\n\n" +
	"r3,\"line\nbreak\r\nand more\",-0\n" +
	"r4,lone\rcr,4.25\n" +
	"r5,,\r\n" +
	"\"r,6\",plain,0.30000000000000004\n" +
	"r7,last,7\r"

// TestReadCSVBlockCutsEverywhere reads awkwardCSV, and variants of it
// with two defects in either order, at every block size from one byte
// to the whole file — so every byte is, at some size, the last of a
// read — and requires the reference's log or the reference's error
// each time.
func TestReadCSVBlockCutsEverywhere(t *testing.T) {
	files := map[string]string{
		"clean":                   awkwardCSV,
		"syntax then numeric":     strings.Replace(awkwardCSV, "lone\rcr", "lo\"ne", 1) + "\nr8,x,1e\n",
		"numeric then syntax":     strings.Replace(awkwardCSV, "2e3", "2e", 1) + "\nr8,x\"y,1\n",
		"ragged then syntax":      strings.Replace(awkwardCSV, "r5,,", "r5,", 1) + "\nr8,\"x\"y,1\n",
		"syntax then ragged":      strings.Replace(awkwardCSV, "and more\"", "and more\"x", 1) + "\nr8\n",
		"unclosed quote at end":   awkwardCSV + "\nr8,\"never closed,1\n",
		"header only, no newline": "id:id,s:nominal",
		"blank lines only":        "\n\r\n\n",
	}
	for name, in := range files {
		want, wantErr := readCSVReference(strings.NewReader(in))
		if name == "clean" && wantErr != nil {
			t.Fatalf("the clean file does not read: %v", wantErr)
		}
		for size := 1; size <= len(in)+1; size++ {
			got, err := readCSVPlanes(strings.NewReader(in), size)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s in %d-byte blocks: error %v, want %v", name, size, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s in %d-byte blocks: %v", name, size, err)
			}
			assertLogsIdentical(t, want, got)
			assertColumnsIdentical(t, want.Columns(), got.Columns())
		}
	}
}

// TestReadCSVClosesReservationGaps: blank lines and line breaks inside
// quotes leave fewer records in a block than the rows reserved for its
// newlines. Spread over many blocks, read from a reader that states its
// length and from one that does not (the two ways the arena is sized),
// the gaps must close into the reference's log.
func TestReadCSVClosesReservationGaps(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("id:id,site:nominal,secs:numeric\n")
	for i := 0; i < 600; i++ {
		switch i % 7 {
		case 2:
			sb.WriteString("\n\r\n")
		case 5:
			fmt.Fprintf(&sb, "q-%d,\"site\n%d\",%d\n", i, i%4, i)
		}
		fmt.Fprintf(&sb, "job-%d,site-%d,%d.5\n", i, i%3, i)
	}
	in := sb.String()
	want, err := readCSVReference(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, func() {
		for name, r := range map[string]func() io.Reader{
			"sized":   func() io.Reader { return strings.NewReader(in) },
			"unsized": func() io.Reader { return struct{ io.Reader }{strings.NewReader(in)} },
		} {
			got, err := readCSVPlanes(r(), testBlock)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertLogsIdentical(t, want, got)
			assertColumnsIdentical(t, want.Columns(), got.Columns())
		}
	})
}

// rowsFilling returns numberedRows' header and rows, the last one
// stretched so the file is n bytes to the byte.
func rowsFilling(n int) string {
	rows := numberedRows(n / 16) // at least 17 bytes a row: longer than n
	cut := strings.LastIndex(rows[:n-16], "\n") + 1
	return rows[:cut] + "pad," + strings.Repeat("x", n-cut-len("pad,,1\n")) + ",1\n"
}

// straddling returns a file whose first block, read csvBlockSize bytes at
// a time, ends at bytes into shape: whole rows up to there, then shape,
// then a few rows more.
func straddling(shape string, at int) string {
	return rowsFilling(csvBlockSize-at) + shape + "tail-1,site-1,1.5\ntail-2,site-2,2.5\n"
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
		numberedRows(256),                                              // a few hundred rows
		numberedRows(257),                                              // one row over
		numberedRows(259) + "late,site-0,1e\n",                         // bad float in the last row
		"\xef\xbb\xbfid:id,n:numeric\nr1,1\n",                          // BOM: not the id header
		// The same shapes with the first block ending inside them.
		straddling("q,\"a,b\"\"c\nd\",1\n", 3),                    // inside quotes, before the comma
		straddling("q,\"a,b\"\"c\nd\",1\n", 7),                    // between the doubled quotes
		straddling("q,\"a,b\"\"c\nd\",1\n", 10),                   // after the newline inside quotes
		straddling("r,s,1\r\n\r\n\nr2,s,2\r\n", 6),                // between '\r' and '\n'
		straddling("r,s,1\r\n\r\n\nr2,s,2\r\n", 9),                // among blank lines
		straddling("r,lone\rcr,4\n", 7),                           // after a lone '\r'
		straddling("r,s\"x,1\nr2,s,1e\n", 5),                      // syntax error across the cut, bad float after it
		straddling("r,s,1e\nr2,s\"x,1\n", 9),                      // the reverse
		straddling("r,s\nr2,\"never closed,1\n", 4),               // ragged, then an unclosed quote
		strings.TrimSuffix(straddling("r,s,1\n", 2), "\n") + "\r", // no final newline, a lone '\r' instead
		// Numeric cells the one-pass scan must hand to strconv or refuse:
		// an exponent without digits, a number with a tail, a signed zero,
		// a bare fraction, a lone point, and a '\r' after the number.
		"id:id,s:nominal,n:numeric,m:numeric\nr1,s,1e,2\n",
		"id:id,s:nominal,n:numeric,m:numeric\nr1,s,1e5x,2\n",
		"id:id,s:nominal,n:numeric,m:numeric\nr1,s,-0,+.5\nr2,s,.,1\n",
		"id:id,s:nominal,n:numeric,m:numeric\nr1,s,1\r,2\nr2,s,3,4\r\n",
		"id:id,n:numeric\nr1,1e+\nr2,-\nr3,1.5e-3,\n",
		straddling("r,s,12345.678e-2\n", 8), // a number cut by the block boundary
		straddling("r,s,1e\nr2,s,2\n", 5),   // an exponent without digits across it
		straddling("r,s,9.5\r\nr2,s,1", 7),  // '\r' ending a number, no final newline
	} {
		f.Add([]byte(seed))
	}
	if n := len(rowsFilling(csvBlockSize - 5)); n != csvBlockSize-5 {
		f.Fatalf("rowsFilling(%d) is %d bytes: the straddling seeds miss their cut", csvBlockSize-5, n)
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

// FuzzReadLogJSON: on any body ReadJSON either errors or yields a log
// that WriteJSON → ReadJSON reproduces exactly, and it never panics.
func FuzzReadLogJSON(f *testing.F) {
	const doc = `{"fields":[{"name":"site","kind":"nominal"},{"name":"secs","kind":"numeric"}],` +
		`"records":[{"id":"r1","values":{"site":"a","secs":"1.5"}},{"id":"r2","values":{"secs":"NaN"}}]}`
	for _, seed := range []string{
		doc,
		doc[:len(doc)/2], // truncated mid-record
		`{"fields":[{"name":"secs","kind":"numeric"}],"records":[{"id":"r1","values":{"secs":1.5}}]}`, // number, not string
		`{"fields":"secs","records":[]}`,                                                               // fields not a list
		`{"fields":[{"name":"secs","kind":"boolean"}],"records":[]}`,                                   // unknown kind
		`{"fields":[{"name":"n","kind":"numeric"},{"name":"n","kind":"nominal"}],"records":[]}`,        // duplicate column
		`{"fields":[{"name":"n","kind":"numeric"}],"records":[{"id":"r","values":{"n":"1","n":"2"}}]}`, // duplicate key
		`{"fields":[{"name":"n","kind":"numeric"}],"records":[{"id":"r","values":{"n":"1e400"}}]}`,     // out of range
		`{"fields":[{"name":"n","kind":"numeric"}],"records":[{"id":"r","values":{"n":"` + strings.Repeat("9", 400) + `"}}]}`,
		`{"fields":[{"name":"n","kind":"numeric"}],"records":[{"id":"r","values":{"n":"-0"}},{"id":"r","values":{"n":"0x1p-2"}}]}`,
		`{"fields":[],"records":[{"id":"","values":null}]}`, // no fields, empty id
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := l.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of a log ReadJSON accepted: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("ReadJSON of WriteJSON's output: %v\n%s", err, buf.Bytes())
		}
		assertLogsIdentical(t, l, again)
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
// distinct string — under a third of what the boxed rows hold where a
// Value is 32 bytes. The ratio depends on the word size: with 32-bit
// words a Value is 20 bytes and a string header 8, so the boxed rows
// shrink by a third while the planes barely do, and the bound scales
// with the Value's size.
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
	if bound := got * 32 / (3 * uint64(unsafe.Sizeof(Value{}))); planes > bound {
		t.Errorf("ReadCSVPlanes retains %d B, the boxed rows %d B: want under %d B (a third at 32-byte Values)", planes, got, bound)
	}
}
