package joblog

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"perfxplain/internal/bitset"
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
// The calling goroutine only reads and searches: it fills fixed-size
// blocks, cuts each after its last newline outside quotes, counts the
// newlines — a bound on the block's records — and hands the block, with
// the run of rows it reserves, to GOMAXPROCS decode workers, which split
// the block into cells and parse them straight into the log's own
// planes — so nothing per cell runs in front of the workers, no cell is
// copied after it is parsed, and at most GOMAXPROCS+2 blocks are alive
// however long the file. A serial pass then lands the blocks in file
// order: it closes the gaps that blank lines and quoted line breaks leave
// in a block's reservation, renumbers each block's symbols into the log's
// table and places its missing bits, so rows and symbol IDs come out as
// one row-major build would assign them whatever the schedule, and of
// several defects in one file the first in file order is the one
// reported.
func ReadCSVPlanes(r io.Reader) (*Log, error) {
	return readCSVPlanes(r, csvBlockSize)
}

// csvBlockSize is how many bytes the reader hands a decode worker at a
// time: enough that the hand-off is noise beside the parsing, few enough
// that a 540-row file still spreads over two workers.
const csvBlockSize = 128 << 10

// readCSVPlanes is ReadCSVPlanes at a block size the tests choose.
func readCSVPlanes(r io.Reader, blockSize int) (*Log, error) {
	workers := runtime.GOMAXPROCS(0)
	size := inputSize(r)
	br := &csvBlockReader{r: r, size: blockSize, free: make(chan []byte, workers+2)}

	// The header is the first record of the first block that has one.
	var header []string
	var block []byte
	quoted, lines, read := false, 0, 0
	for header == nil {
		if block, quoted = br.next(); block == nil {
			if br.err != nil {
				return nil, fmt.Errorf("joblog: read csv: %w", br.err)
			}
			return nil, fmt.Errorf("joblog: empty csv")
		}
		read += len(block)
		cr := csv.NewReader(bytes.NewReader(block))
		cr.FieldsPerRecord = -1
		cells, err := cr.Read()
		if err == io.EOF { // blank lines only
			lines += bytes.Count(block, newline)
			continue
		}
		if err != nil {
			return nil, csvSyntaxError(err, lines)
		}
		header = cells
		end := cr.InputOffset()
		lines += bytes.Count(block[:end], newline)
		block = block[end:]
	}
	fields, err := parseCSVHeader(header)
	if err != nil {
		return nil, err
	}

	schema := NewSchema(fields)
	d := &csvDecoder{schema: schema, arena: newColumns(schema, 0, newIntern())}
	// Unbuffered: a block waits in the reader's hands until a worker is
	// free, and the reader fills at most one more behind it.
	work := make(chan csvBlock)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				d.decode(b)
				br.recycle(b.data)
			}
		}()
	}
	// Once a block has a defect nothing after it can matter: stop reading.
	at, data := 0, 0 // rows reserved, and the bytes they were reserved for
	for seq := 0; block != nil && !d.failed.Load(); seq++ {
		b := csvBlock{seq: seq, data: block, quoted: quoted, at: at, lines: bytes.Count(block, newline)}
		// A record is a line at least, and takes a byte per cell.
		b.rows = b.lines
		if n := len(block); n > 0 && block[n-1] != '\n' {
			b.rows++
		}
		b.rows = min(b.rows, len(block)/(schema.Len()+1)+1)
		at, data = at+b.rows, data+len(block)
		if at > d.arena.n {
			d.reserve(arenaTarget(at, data, size-read, d.arena.n))
		}
		work <- b
		if block, quoted = br.next(); block != nil {
			read += len(block)
		}
	}
	close(work)
	wg.Wait()

	// Land in file order. Row and line numbers are absolute only here,
	// where every earlier block has been counted; the first defect met is
	// the first in the file, and a read error follows every row read.
	n, row := 0, 2
	for _, part := range d.parts {
		if part.defect != nil {
			return nil, part.defect(row, lines)
		}
		n += part.n
		row += part.n
		lines += part.lines
	}
	if br.err != nil {
		return nil, fmt.Errorf("joblog: read csv: %w", br.err)
	}
	c := d.arena
	for f := range c.cols {
		c.cols[f].Miss = extend(Bitmap(nil), bitset.Words(n))
	}
	row = 0
	for _, part := range d.parts {
		c.land(row, part)
		row += part.n
	}
	c.clip(n)
	return &Log{Schema: schema, rows: c}, nil
}

// inputSize is how many bytes r says it holds — its Len, or its Stat
// size for a regular file, the hint os.ReadFile takes — or -1.
func inputSize(r io.Reader) int {
	switch v := r.(type) {
	case interface{ Len() int }:
		return v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() && int64(int(fi.Size())) == fi.Size() {
			return int(fi.Size())
		}
	}
	return -1
}

// arenaTarget is the row capacity to grow the arena to once need rows
// are reserved for the data bytes read so far and left more bytes of
// input remain (negative: unknown). A known remainder is assumed to hold
// rows as densely as the input so far, plus a sixteenth. An unknown one
// doubles the arena, and starts it at four blocks' worth, so that a small
// batch (an /api/ingest body) never waits for a growth.
func arenaTarget(need, data, left, have int) int {
	if left < 0 {
		return max(4*need, 2*have)
	}
	more := int(int64(left) * int64(need) / int64(max(data, 1)))
	return need + more + more/16
}

var (
	newline = []byte{'\n'}
	quote   = []byte{'"'}
)

// csvSyntaxError wraps a syntax error a csv.Reader met in a block that
// starts after line0 lines of the file.
func csvSyntaxError(err error, line0 int) error {
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		shifted := *pe
		shifted.StartLine += line0
		shifted.Line += line0
		err = &shifted
	}
	return fmt.Errorf("joblog: read csv: %w", err)
}

// csvBlockReader cuts its input into blocks of whole records.
type csvBlockReader struct {
	r    io.Reader
	size int
	buf  []byte      // read and not yet handed out: what followed the last cut
	done bool        // the input has ended: at io.EOF, or in err
	err  error       // the read error that ended it
	free chan []byte // decoded blocks' buffers, for reuse
}

// next returns the next block and whether it holds a quote, or nil once
// the input is spent. A block ends after the last newline outside quotes
// of about size bytes of input — wherever the input ends, for the last
// one — and, like every block, starts outside quotes, so what a
// csv.Reader makes of the block is what it makes of those lines of the
// file. A record longer than size grows its block. After a read error the
// record it interrupted is dropped.
func (br *csvBlockReader) next() (block []byte, quoted bool) {
	for !br.done {
		if len(br.buf) == cap(br.buf) {
			br.buf = append(br.buffer(2*cap(br.buf)), br.buf...)
		}
		n, err := io.ReadFull(br.r, br.buf[len(br.buf):cap(br.buf)])
		br.buf = br.buf[:len(br.buf)+n]
		br.done = err != nil
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			br.err = err
		}
		var end int
		if br.done && br.err == nil {
			end, quoted = len(br.buf), bytes.IndexByte(br.buf, '"') >= 0
		} else {
			end, quoted = lastRecordEnd(br.buf)
		}
		if end > 0 {
			block = br.buf[:end]
			if rest := br.buf[end:]; br.done {
				br.buf = nil
			} else {
				br.buf = append(br.buffer(len(rest)+1), rest...)
			}
			return block, quoted
		}
	}
	return nil, false
}

// buffer returns an empty buffer of a block's size, or of atLeast bytes
// if that is more.
func (br *csvBlockReader) buffer(atLeast int) []byte {
	if atLeast < br.size {
		atLeast = br.size
	}
	select {
	case buf := <-br.free:
		if cap(buf) >= atLeast {
			return buf[:0]
		}
	default:
	}
	return make([]byte, 0, atLeast)
}

// recycle takes back a decoded block's buffer.
func (br *csvBlockReader) recycle(block []byte) {
	select {
	case br.free <- block:
	default:
	}
}

// lastRecordEnd returns the length of the longest prefix of buf that
// ends in a newline outside quotes (0 if there is none), buf starting
// outside quotes, and whether that prefix holds a quote. Up to the
// first syntax error a newline ends a record exactly when an even number
// of quotes precede it: outside a quoted cell a quote can only open one,
// and inside one quotes come doubled until the one that closes it.
func lastRecordEnd(buf []byte) (end int, quoted bool) {
	all := bytes.Count(buf, quote)
	after := 0 // quotes in buf[end:]
	for end = len(buf); ; {
		nl := bytes.LastIndexByte(buf[:end], '\n')
		if nl < 0 {
			return 0, false
		}
		after += bytes.Count(buf[nl:end], quote)
		if (all-after)&1 == 0 {
			return nl + 1, all > after
		}
		end = nl
	}
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

// csvBlock is a run of whole records as they stand in the file, and the
// rows [at, at+rows) of the arena reserved for them.
type csvBlock struct {
	seq      int // position among the file's blocks
	data     []byte
	quoted   bool // data holds a quote
	lines    int  // newlines in data
	at, rows int
}

// csvDecoder collects what the decode workers produce.
type csvDecoder struct {
	schema *Schema
	failed atomic.Bool // some block has a defect

	// arena is the log being read: its planes and IDs have a row for
	// every row reserved so far (n counts them); its missing bits and
	// intern table are made when the blocks land. Workers write their
	// blocks' rows under the read lock; reserve grows the planes under the
	// write lock, so only while no block is being written.
	arenaMu sync.RWMutex
	arena   *Columns

	mu    sync.Mutex
	parts []*csvPart // decoded blocks, in file order
}

// reserve grows the arena's planes and IDs to n rows.
func (d *csvDecoder) reserve(n int) {
	d.arenaMu.Lock()
	defer d.arenaMu.Unlock()
	c := d.arena
	c.ids = resize(c.ids, n)
	for f := range c.cols {
		col := &c.cols[f]
		if col.Kind == Numeric {
			col.Num = resize(col.Num, n)
		} else {
			col.Sym = resize(col.Sym, n)
		}
	}
	c.n = n
}

// resize returns a copy of s in an array of exactly n elements. The
// copy goes through a reslice: written as make then copy of the whole
// slice, the compiler fuses the two into one call that clears the new
// array's tail itself, touching every page of it at once — where the
// allocator hands out fresh memory already zero and leaves the first
// touch to the workers that write each row.
func resize[S ~[]E, E any](s S, n int) S {
	grown := make(S, n)
	copy(grown[:len(s)], s)
	return grown
}

// csvPart is one decoded block. Its cols is a window onto the block's
// reserved rows of the arena — its planes and IDs are the arena's, the
// first n rows written — beside a missing bitmap and an intern table of
// its own, which number the block's rows and symbols from zero. Nothing
// it keeps aliases the block — IDs are cut from one string per block and
// the table owns its strings — so no plane pins a read buffer.
type csvPart struct {
	schema *Schema
	cols   *Columns
	at     int // the arena row of the window's first row
	n      int // records decoded
	lines  int // newlines in the block
	// defect renders the block's first defect, given the file row number
	// of the block's first record and the lines that precede the block;
	// decoding stopped there.
	defect func(row, line int) error

	ids    []byte // the records' IDs, end to end
	idEnds []int
}

// decode splits and parses one block into its reserved rows.
func (d *csvDecoder) decode(b csvBlock) {
	p := &csvPart{schema: d.schema, at: b.at, lines: b.lines}
	d.arenaMu.RLock()
	p.cols = d.arena.window(b.at, b.rows)
	p.idEnds = make([]int, 0, b.rows)
	if b.quoted {
		p.decodeQuoted(b.data)
	} else {
		p.decodePlain(b.data)
	}
	ids, at := string(p.ids), 0
	for i, end := range p.idEnds[:p.n] {
		p.cols.ids[i] = ids[at:end]
		at = end
	}
	d.arenaMu.RUnlock()
	if p.defect != nil {
		d.failed.Store(true)
	}
	p.ids, p.idEnds = nil, nil

	d.mu.Lock()
	for len(d.parts) <= b.seq {
		d.parts = append(d.parts, nil)
	}
	d.parts[b.seq] = p
	d.mu.Unlock()
}

// window returns rows [at, at+n) of c as a view a block decodes into:
// planes and IDs are c's, capacity-capped; the missing bits (one slab
// for all fields) and the intern table are the window's own.
func (c *Columns) window(at, n int) *Columns {
	w := &Columns{n: n, intern: newIntern(), cols: make([]Col, len(c.cols)), ids: c.ids[at : at+n : at+n]}
	words := bitset.Words(n)
	miss := make(Bitmap, len(c.cols)*words)
	for f := range c.cols {
		col := &c.cols[f]
		w.cols[f] = Col{Kind: col.Kind, Miss: miss[f*words : (f+1)*words : (f+1)*words]}
		if col.Kind == Numeric {
			w.cols[f].Num = col.Num[at : at+n : at+n]
		} else {
			w.cols[f].Sym = col.Sym[at : at+n : at+n]
		}
	}
	return w
}

// land makes a decoded block's rows the arena's rows [at, at+p.n): it
// moves them down when blocks before it decoded fewer rows than they
// reserved, renumbers their symbols into the arena's table and sets
// their missing bits. Blocks land in file order, so the table numbers
// symbols by first appearance, as stitch does, and a move never reaches
// a row a later block holds.
func (c *Columns) land(at int, p *csvPart) {
	src, m := p.cols, p.n
	move := at != p.at
	if move {
		copy(c.ids[at:at+m], src.ids[:m])
	}
	remap := c.intern.remapFrom(src.intern)
	for f := range c.cols {
		dst, from := &c.cols[f], &src.cols[f]
		if dst.Kind == Numeric {
			if move {
				copy(dst.Num[at:at+m], from.Num[:m])
			}
		} else {
			if move {
				copy(dst.Sym[at:at+m], from.Sym[:m])
			}
			for i, id := range dst.Sym[at : at+m] {
				// A missing cell's symbol is a zero no table need hold.
				if !from.Miss.Get(i) {
					dst.Sym[at+i] = remap[id]
				}
			}
		}
		dst.Miss.BlitFrom(from.Miss, 0, at, m)
	}
}

// clip cuts the arena to its first n rows. The rows reserved past them
// stay as the planes' capacity (see spare).
func (c *Columns) clip(n int) {
	c.n = n
	c.ids = clipTo(c.ids, n)
	for f := range c.cols {
		if col := &c.cols[f]; col.Kind == Numeric {
			col.Num = clipTo(col.Num, n)
		} else {
			col.Sym = clipTo(col.Sym, n)
		}
	}
}

// clipTo is s[:n], or nil for no rows, as a log built row by row has.
func clipTo[S ~[]E, E any](s S, n int) S {
	if n == 0 {
		return nil
	}
	return s[:n]
}

// decodePlain splits a block without quotes, where encoding/csv's rules
// come to: records end at '\n', less one '\r' before it (or before the
// end of the input); empty lines are skipped; cells end at ','. A numeric
// cell is parsed where it stands and its comma taken where the number
// stops (scanNumeric), so its bytes are read once; a cell the scan
// declines, or whose number something other than its comma follows, is
// cut at its comma and parsed by cell, through strconv if need be.
func (p *csvPart) decodePlain(data []byte) {
	nf := len(p.cols.cols)
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		if !p.splitPlain(line, nf) {
			if commas := bytes.Count(line, comma); commas != nf {
				p.ragged(commas + 1)
			}
			return
		}
		p.n++
	}
}

// splitPlain writes the cells of one unquoted record, or records the
// first defect in it and reports false — a ragged record as a cell
// missing or one too many; decodePlain counts the record's cells then,
// and reports raggedness ahead of whatever cell went wrong.
func (p *csvPart) splitPlain(line []byte, nf int) bool {
	rest := line
	for f := -1; f < nf; f++ {
		last := f == nf-1
		if f >= 0 && p.cols.cols[f].Kind == Numeric && len(rest) > 0 && rest[0] != ',' {
			if x, end, ok := scanNumeric(rest); ok && (end == len(rest)) == last {
				if last {
					p.cols.cols[f].Num[p.n] = x
					return true
				}
				if rest[end] == ',' {
					p.cols.cols[f].Num[p.n] = x
					rest = rest[end+1:]
					continue
				}
			}
		}
		cell := rest
		if i := bytes.IndexByte(rest, ','); last != (i < 0) {
			return false
		} else if !last {
			cell, rest = rest[:i], rest[i+1:]
		}
		if !p.cell(f, cell) {
			return false
		}
	}
	return true
}

var comma = []byte{','}

// decodeQuoted reads a block that holds quotes through encoding/csv.
func (p *csvPart) decodeQuoted(data []byte) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true // cells are parsed or copied before the next Read
	for {
		cells, err := cr.Read()
		if err == io.EOF {
			return
		}
		if err != nil {
			p.defect = func(_, line int) error { return csvSyntaxError(err, line) }
			return
		}
		if len(cells) != len(p.cols.cols)+1 {
			p.ragged(len(cells))
			return
		}
		for i, cell := range cells {
			if !p.cell(i-1, []byte(cell)) {
				return
			}
		}
		p.n++
	}
}

// ragged records that the record being decoded has cells cells, not one
// per header cell.
func (p *csvPart) ragged(cells int) {
	n, want := p.n, len(p.cols.cols)+1
	p.defect = func(row, _ int) error {
		return fmt.Errorf("joblog: row %d has %d cells, want %d", row+n, cells, want)
	}
}

// cell writes the f'th field (-1: the ID) of the record being decoded
// straight into its plane, or records the defect and reports false. No
// Value is boxed and, unless strconv is needed or the symbol is new to
// the block, nothing is allocated.
func (p *csvPart) cell(f int, cell []byte) bool {
	if f < 0 {
		p.ids = append(p.ids, cell...)
		p.idEnds = append(p.idEnds, len(p.ids))
		return true
	}
	col := &p.cols.cols[f]
	switch {
	case len(cell) == 0:
		col.Miss.SetBit(p.n)
	case col.Kind == Nominal:
		col.Sym[p.n] = p.cols.intern.internBytes(cell)
	default:
		x, ok := parseNumeric(cell)
		if !ok {
			if x, ok = p.declined(f, cell); !ok {
				return false
			}
		}
		col.Num[p.n] = x
	}
	return true
}

// declined gives a numeric cell the fast parser would not take to
// strconv, for its value or its error in ParseValue's words.
func (p *csvPart) declined(f int, cell []byte) (float64, bool) {
	v, err := ParseValue(Numeric, string(cell))
	if err != nil {
		n, name := p.n, p.schema.fields[f].Name
		p.defect = func(row, _ int) error {
			return fmt.Errorf("joblog: row %d field %q: %w", row+n, name, err)
		}
	}
	return v.Num, err == nil
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
