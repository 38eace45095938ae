package pxql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp    // = != < <= > >=
	tokComma // ,
	tokDot   // .
)

type token struct {
	kind tokenKind
	text string  // raw text for idents/strings/ops
	num  float64 // value for numbers
	pos  int     // byte offset, for error messages
}

// lexer turns PXQL source into tokens. It understands:
//   - identifiers: ASCII letters, digits, '_' and '-' after the first byte;
//   - numbers with optional byte-unit suffixes (64MB, 1.3GB) expanded to
//     bytes, so predicates read like the paper's `blocksize >= 128MB`;
//   - single- or double-quoted strings, in which a backslash makes the
//     next byte literal (the inverse of the printer's quote);
//   - operators = != <> < <= > >= and the unicode conjunction '∧'
//     (lexed as the identifier AND).
type lexer struct {
	src string
	pos int
}

var byteUnits = map[string]float64{
	"B":  1,
	"KB": 1 << 10,
	"MB": 1 << 20,
	"GB": 1 << 30,
	"TB": 1 << 40,
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '#': // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return l.lexToken()
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil
}

func (l *lexer) lexToken() (token, error) {
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '.':
		// A dot starting a number (".5") is not supported; dots separate
		// qualified names (J1.ID).
		l.pos++
		return token{kind: tokDot, text: ".", pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, text: "=", pos: start}, nil
	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokOp, text: "!=", pos: start}, nil
		}
		return token{}, fmt.Errorf("pxql: stray '!' at offset %d", start)
	case c == '<':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokOp, text: "<=", pos: start}, nil
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			l.pos += 2
			return token{kind: tokOp, text: "!=", pos: start}, nil
		}
		l.pos++
		return token{kind: tokOp, text: "<", pos: start}, nil
	case c == '>':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokOp, text: ">=", pos: start}, nil
		}
		l.pos++
		return token{kind: tokOp, text: ">", pos: start}, nil
	case c == '\'' || c == '"':
		return l.lexString(c)
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		return l.lexNumber()
	default:
		if strings.HasPrefix(l.src[l.pos:], "∧") {
			l.pos += len("∧")
			return token{kind: tokIdent, text: "AND", pos: start}, nil
		}
		if isIdentStart(c) {
			return l.lexIdent()
		}
		return token{}, fmt.Errorf("pxql: unexpected character %q at offset %d", c, start)
	}
}

func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, fmt.Errorf("pxql: unterminated escape at offset %d", l.pos)
			}
			b.WriteByte(l.src[l.pos+1])
			l.pos += 2
		case quote:
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start}, nil
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, fmt.Errorf("pxql: unterminated string starting at offset %d", start)
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
			((c == '+' || c == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E')) {
			l.pos++
			continue
		}
		break
	}
	numText := l.src[start:l.pos]
	// Optional unit suffix: letters immediately following the digits.
	unitStart := l.pos
	for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
		l.pos++
	}
	unit := strings.ToUpper(l.src[unitStart:l.pos])
	x, err := strconv.ParseFloat(numText, 64)
	if err != nil {
		return token{}, fmt.Errorf("pxql: bad number %q at offset %d", numText, start)
	}
	if unit != "" {
		mult, ok := byteUnits[unit]
		if !ok {
			return token{}, fmt.Errorf("pxql: unknown unit %q at offset %d", unit, unitStart)
		}
		if x *= mult; math.IsInf(x, 0) {
			return token{}, fmt.Errorf("pxql: number %q at offset %d overflows", l.src[start:l.pos], start)
		}
	}
	return token{kind: tokNumber, num: x, text: l.src[start:l.pos], pos: start}, nil
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
		l.pos++
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentByte(c byte) bool {
	return isIdentStart(c) || c == '-' || (c >= '0' && c <= '9')
}

// isIdent reports whether s lexes as exactly one identifier token — the
// strings the printer may leave unquoted.
func isIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentByte(s[i]) {
			return false
		}
	}
	return true
}
