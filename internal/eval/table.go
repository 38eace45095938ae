package eval

import (
	"fmt"
	"io"
	"strings"
)

// Series is one line of a figure: x positions with mean ± std values.
type Series struct {
	Name string
	X    []float64
	Mean []float64
	Std  []float64
}

// Table is a rendered experiment: the textual analogue of one of the
// paper's figures or tables.
type Table struct {
	// ID is the paper artifact this regenerates ("Figure 3(b)", "Table 3").
	ID string
	// Title describes the experiment.
	Title string
	// XLabel names the x axis ("width", "fraction of log", ...).
	XLabel string
	// YLabel names the measured quantity ("precision", "relevance", ...).
	YLabel string
	Series []Series
}

// Render writes the table as aligned text: one row per x position, one
// mean ± std column per series.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s: %s (%s vs %s)\n", t.ID, t.Title, t.YLabel, t.XLabel); err != nil {
		return err
	}
	if len(t.Series) == 0 {
		_, err := fmt.Fprintln(w, "  (no data)")
		return err
	}
	// Union of x positions across series, in first-appearance order.
	var xs []float64
	seen := make(map[float64]bool)
	for _, s := range t.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	header := []string{padRight(t.XLabel, 10)}
	for _, s := range t.Series {
		header = append(header, padRight(s.Name, 22))
	}
	if _, err := fmt.Fprintln(w, "  "+strings.Join(header, " ")); err != nil {
		return err
	}
	for _, x := range xs {
		row := []string{padRight(trimFloat(x), 10)}
		for _, s := range t.Series {
			cell := "-"
			for i, sx := range s.X {
				if sx == x {
					if len(s.Std) == len(s.Mean) && s.Std[i] > 0 {
						cell = fmt.Sprintf("%.3f ± %.3f", s.Mean[i], s.Std[i])
					} else {
						cell = fmt.Sprintf("%.3f", s.Mean[i])
					}
					break
				}
			}
			row = append(row, padRight(cell, 22))
		}
		if _, err := fmt.Fprintln(w, "  "+strings.Join(row, " ")); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

func padRight(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%g", x)
	return s
}
