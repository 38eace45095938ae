package joblog

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The CSV layout is: header row of "name:kind" cells (first column is the
// record ID column, spelled "id:id"), then one row per record. Missing
// values are empty cells. The kind suffix makes files self-describing so
// a log round-trips without a side schema file.

const idHeader = "id:id"

// WriteCSV writes the log to w. The bytes are what encoding/csv's Writer
// produces for the same cells (pinned by TestWriteCSVMatchesEncodingCSV),
// without a string per numeric cell: lines are appended into one reused
// buffer, numerics by strconv.AppendFloat in Value.String's format.
func (l *Log) WriteCSV(w io.Writer) error {
	buf := make([]byte, 0, csvWriteChunk+4096) // a chunk, and the line that crosses it
	buf = append(buf, idHeader...)
	for _, f := range l.Schema.Fields() {
		buf = append(buf, ',')
		buf = appendCSVField(buf, f.Name+":"+f.Kind.String())
	}
	buf = append(buf, '\n')
	rowBuf := make([]Value, l.Schema.Len())
	for i, n := 0, l.Len(); i < n; i++ {
		id, vals := l.row(i, rowBuf)
		buf = appendCSVField(buf, id)
		for _, v := range vals {
			buf = append(buf, ',')
			switch v.Kind {
			case Missing:
			case Numeric:
				// Digits, '.', 'e', signs, NaN and Inf: never quoted.
				buf = strconv.AppendFloat(buf, v.Num, 'g', -1, 64)
			default:
				buf = appendCSVField(buf, v.Str)
			}
		}
		buf = append(buf, '\n')
		if len(buf) >= csvWriteChunk {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("joblog: write csv: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("joblog: write csv: %w", err)
	}
	return nil
}

// csvWriteChunk is how many bytes WriteCSV gathers between writes.
const csvWriteChunk = 64 << 10

// appendCSVField appends one cell, quoted exactly when encoding/csv's
// Writer (comma separator, LF line ends) would quote it: the cell is
// `\.`, holds a comma, quote, CR or LF, or starts with a space rune.
// Inside quotes only the quote itself is escaped, by doubling.
func appendCSVField(buf []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(buf, field...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			buf = append(buf, '"')
		}
		buf = append(buf, field[i])
	}
	return append(buf, '"')
}

func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` || strings.ContainsAny(field, ",\"\r\n") {
		return true
	}
	first, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(first)
}

// ReadCSV reads a log previously written by WriteCSV into the
// construction form: ReadCSVPlanes' decoder with every row boxed on top,
// for callers that go on to index, edit or re-append Records.
func ReadCSV(r io.Reader) (*Log, error) {
	l, err := ReadCSVPlanes(r)
	if err != nil {
		return nil, err
	}
	// One slab of records over one slab of values.
	n, nf := l.Len(), l.Schema.Len()
	recs, vals := make([]Record, n), make([]Value, n*nf)
	out := &Log{Schema: l.Schema, Records: make([]*Record, n)}
	for i := range recs {
		recs[i] = Record{ID: l.rows.ids[i], Values: vals[i*nf : (i+1)*nf : (i+1)*nf]}
		l.rows.values(i, recs[i].Values)
		out.Records[i] = &recs[i]
	}
	return out, nil
}

// ReadCSVPlanes reads a log previously written by WriteCSV as a
// plane-backed log: no Record or Value is ever allocated for it.
//
// The calling goroutine drives the csv.Reader and hands fixed-size
// batches of rows to GOMAXPROCS decode workers, so float parsing — most
// of the cost — runs on every core while the file is still being split
// into cells. Each batch decodes into planes of its own; a serial pass
// then lands the batches in file order, so rows and symbol IDs come out
// as one row-major build would assign them whatever the schedule, and of
// several defects in one file the first in file order is the one
// reported.
func ReadCSVPlanes(r io.Reader) (*Log, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	// The reader may reuse its cell slice: rows are copied into batches.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("joblog: empty csv")
	}
	if err != nil {
		return nil, fmt.Errorf("joblog: read csv: %w", err)
	}
	fields, err := parseCSVHeader(header)
	if err != nil {
		return nil, err
	}
	width := len(header)

	d := &csvDecoder{schema: NewSchema(fields)}
	workers := runtime.GOMAXPROCS(0)
	// One batch of slack per worker keeps the reader splitting cells while
	// every worker is parsing.
	work := make(chan *csvBatch, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				d.decode(b)
			}
		}()
	}

	// readErr is the defect that stopped the reader, if one did: every row
	// handed to a worker precedes it, so any worker's error outranks it.
	var readErr error
	var b *csvBatch
	for row := 2; ; row++ {
		cells, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = fmt.Errorf("joblog: read csv: %w", err)
			break
		}
		if len(cells) != width {
			readErr = fmt.Errorf("joblog: row %d has %d cells, want %d", row, len(cells), width)
			break
		}
		if b == nil {
			b = &csvBatch{firstRow: row, cells: make([]string, 0, csvBatchRows*width)}
		}
		b.cells = append(b.cells, cells...)
		if len(b.cells) == csvBatchRows*width {
			work <- b
			b = nil
		}
	}
	if b != nil {
		work <- b
	}
	close(work)
	wg.Wait()

	if d.err != nil {
		return nil, d.err
	}
	if readErr != nil {
		return nil, readErr
	}
	n := 0
	for _, part := range d.parts {
		n += part.n
	}
	c := newColumns(d.schema, n, newIntern())
	at := 0
	for _, part := range d.parts {
		c.stitch(at, part, 0, part.n, c.intern.remapFrom(part.intern))
		at += part.n
	}
	return &Log{Schema: d.schema, rows: c}, nil
}

// parseCSVHeader turns the "name:kind" header row into the schema's
// fields.
func parseCSVHeader(header []string) ([]Field, error) {
	if len(header) < 1 || header[0] != idHeader {
		return nil, fmt.Errorf("joblog: first header cell must be %q, got %q", idHeader, header[0])
	}
	fields := make([]Field, 0, len(header)-1)
	for _, h := range header[1:] {
		name, kindName, ok := strings.Cut(h, ":")
		if !ok {
			return nil, fmt.Errorf("joblog: header cell %q lacks :kind suffix", h)
		}
		var kind Kind
		switch kindName {
		case "numeric":
			kind = Numeric
		case "nominal":
			kind = Nominal
		default:
			return nil, fmt.Errorf("joblog: header cell %q has unknown kind %q", h, kindName)
		}
		fields = append(fields, Field{Name: name, Kind: kind})
	}
	return fields, checkFieldNames(fields)
}

// csvBatchRows is how many rows the reader hands a decode worker at a
// time: enough that the hand-off is noise beside the parsing, few
// enough that a 540-row file still spreads over two workers.
const csvBatchRows = 256

// csvBatch is a run of consecutive well-formed rows: width cells each,
// row-major, still aliasing the reader's line strings.
type csvBatch struct {
	firstRow int // file row number (the header is row 1) of the first row
	cells    []string
}

// csvDecoder collects what the decode workers produce.
type csvDecoder struct {
	schema *Schema

	mu     sync.Mutex
	parts  []*Columns // decoded batches, in file order
	err    error      // the defect with the lowest row so far
	errRow int
}

// decode parses one batch into planes of its own, its nominal cells
// numbered by a batch-local table. Nothing it keeps aliases the batch's
// cells — IDs are copied and the table owns its strings — so no plane
// pins a CSV line.
func (d *csvDecoder) decode(b *csvBatch) {
	nf := d.schema.Len()
	width := nf + 1
	n := len(b.cells) / width
	local := newIntern()
	local.own = true
	c := newColumns(d.schema, n, local)
	for i := 0; i < n; i++ {
		row := b.cells[i*width : (i+1)*width]
		c.ids[i] = strings.Clone(row[0])
		for f, cell := range row[1:] {
			field := d.schema.fields[f]
			v, err := ParseValue(field.Kind, cell)
			if err != nil {
				d.fail(b.firstRow+i, fmt.Errorf("joblog: row %d field %q: %w", b.firstRow+i, field.Name, err))
				return
			}
			c.setCell(i, f, v)
		}
	}
	// Every batch before the file's last is full, so the first row says
	// which batch this is.
	seq := (b.firstRow - 2) / csvBatchRows
	d.mu.Lock()
	for len(d.parts) <= seq {
		d.parts = append(d.parts, nil)
	}
	d.parts[seq] = c
	d.mu.Unlock()
}

// fail records a row's defect, keeping the one earliest in the file.
func (d *csvDecoder) fail(row int, err error) {
	d.mu.Lock()
	if d.err == nil || row < d.errRow {
		d.err, d.errRow = err, row
	}
	d.mu.Unlock()
}

// jsonLog is the JSON wire form: schema plus records keyed by field name.
type jsonLog struct {
	Fields  []jsonField  `json:"fields"`
	Records []jsonRecord `json:"records"`
}

type jsonField struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type jsonRecord struct {
	ID     string            `json:"id"`
	Values map[string]string `json:"values"`
}

// WriteJSON writes the log as a single JSON document. Values are encoded
// as strings with the same conventions as CSV (missing fields omitted).
func (l *Log) WriteJSON(w io.Writer) error {
	doc := jsonLog{}
	for _, f := range l.Schema.Fields() {
		doc.Fields = append(doc.Fields, jsonField{Name: f.Name, Kind: f.Kind.String()})
	}
	rowBuf := make([]Value, l.Schema.Len())
	for i, n := 0, l.Len(); i < n; i++ {
		id, vals := l.row(i, rowBuf)
		jr := jsonRecord{ID: id, Values: make(map[string]string)}
		for f, v := range vals {
			if v.IsMissing() {
				continue
			}
			jr.Values[l.Schema.Field(f).Name] = v.String()
		}
		doc.Records = append(doc.Records, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON reads a log previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Log, error) {
	var doc jsonLog
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("joblog: read json: %w", err)
	}
	fields := make([]Field, 0, len(doc.Fields))
	for _, jf := range doc.Fields {
		var kind Kind
		switch jf.Kind {
		case "numeric":
			kind = Numeric
		case "nominal":
			kind = Nominal
		default:
			return nil, fmt.Errorf("joblog: field %q has unknown kind %q", jf.Name, jf.Kind)
		}
		fields = append(fields, Field{Name: jf.Name, Kind: kind})
	}
	if err := checkFieldNames(fields); err != nil {
		return nil, err
	}
	log := NewLog(NewSchema(fields))
	for _, jr := range doc.Records {
		rec := &Record{ID: jr.ID, Values: make([]Value, len(fields))}
		for i, f := range fields {
			s, ok := jr.Values[f.Name]
			if !ok {
				rec.Values[i] = None()
				continue
			}
			v, err := ParseValue(f.Kind, s)
			if err != nil {
				return nil, fmt.Errorf("joblog: record %q field %q: %w", jr.ID, f.Name, err)
			}
			rec.Values[i] = v
		}
		if err := log.Append(rec); err != nil {
			return nil, err
		}
	}
	return log, nil
}
