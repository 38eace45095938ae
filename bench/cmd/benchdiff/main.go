// Command benchdiff compares two sets of pxbench runs, one row per
// (workload, end-to-end metric), each against the metric's own bound.
//
//	go run -C bench ./cmd/benchdiff out/parent.jsonl out/change.jsonl
//
// Each argument is a result file or a history journal; every run in it
// counts as one sample of its side. A row reads
//
//	ok          the second side's median is no worse than the first's by
//	            more than the bound
//	worse       it is
//	unresolved  the run-to-run spread of either side (the distance between
//	            its quartiles as a share of its median) is wider than the
//	            bound, so the medians cannot tell; unless every run of the
//	            second side reads better than every run of the first,
//	            which is ok
//
// The exit code is 1 when any row is worse.
package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"perfxplain/bench/result"
	"perfxplain/bench/stat"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff a.json b.json")
		os.Exit(2)
	}
	a, err := result.Load(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	b, err := result.Load(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	rows := diff(a, b)
	printRows(rows)
	for _, r := range rows {
		if r.verdict == "worse" {
			os.Exit(1)
		}
	}
}

// row is one (workload, metric) comparison.
type row struct {
	workload string
	def      result.Def
	a, b     []float64
	// change is how much worse b's median is than a's, as a share of a's:
	// positive is worse whichever direction the metric improves in.
	change           float64
	spreadA, spreadB float64 // NaN with fewer than two runs
	verdict          string
}

// samples gathers every run's value of each (workload, metric).
func samples(envs []result.Envelope) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, e := range envs {
		for _, w := range e.Workloads {
			for name, v := range w.EndToEnd {
				k := [2]string{w.Name, name}
				out[k] = append(out[k], v.Value)
			}
		}
	}
	return out
}

// diff compares the two sides on every (workload, metric) both measured,
// in the benchmark's own order.
func diff(a, b []result.Envelope) []row {
	sa, sb := samples(a), samples(b)
	var workloads []string
	seen := map[string]bool{}
	for _, e := range a {
		for _, w := range e.Workloads {
			if !seen[w.Name] {
				seen[w.Name] = true
				workloads = append(workloads, w.Name)
			}
		}
	}
	var rows []row
	for _, w := range workloads {
		for _, d := range result.EndToEnd {
			k := [2]string{w, d.Name}
			if len(sa[k]) == 0 || len(sb[k]) == 0 {
				continue
			}
			rows = append(rows, compare(w, d, sa[k], sb[k]))
		}
	}
	return rows
}

func compare(workload string, d result.Def, a, b []float64) row {
	r := row{workload: workload, def: d, a: a, b: b,
		spreadA: stat.Spread(a), spreadB: stat.Spread(b)}
	ma, mb := stat.Median(a), stat.Median(b)
	r.change = (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		r.change = -r.change
	}
	switch {
	case (r.spreadA > d.Bound || r.spreadB > d.Bound) && !allBetter(d, a, b):
		r.verdict = "unresolved"
	case r.change > d.Bound:
		r.verdict = "worse"
	default:
		r.verdict = "ok"
	}
	return r
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(d result.Def, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if d.Better == "higher" && y <= x || d.Better != "higher" && y >= x {
				return false
			}
		}
	}
	return true
}

// share formats a ratio as a percentage, "n/a" when it is unknown.
func share(format string, x float64) string {
	if math.IsNaN(x) {
		return "n/a"
	}
	return fmt.Sprintf(format, x*100)
}

func printRows(rows []row) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median (runs)\tb median (runs)\tworse by\tbound\tspread a\tspread b\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f (%d)\t%.4f (%d)\t%s\t%.0f%%\t%s\t%s\t%s\n",
			r.workload, r.def.Name, r.def.Unit, stat.Median(r.a), len(r.a), stat.Median(r.b), len(r.b),
			share("%+.1f%%", r.change), r.def.Bound*100, share("%.1f%%", r.spreadA), share("%.1f%%", r.spreadB), r.verdict)
	}
	tw.Flush()
}
