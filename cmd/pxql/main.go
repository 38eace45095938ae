// Command pxql answers a PXQL performance query against an execution log:
//
//	pxql -log logs/jobs.csv -query "
//	    FOR J1, J2 WHERE J1.JobID = 'job-0012' AND J2.JobID = 'job-0340'
//	    DESPITE numinstances_issame = T AND pigscript_issame = T
//	    OBSERVED duration_compare = GT
//	    EXPECTED duration_compare = SIM"
//
// The query may also come from a file (-file) or stdin (no -query/-file).
// If the query omits the FOR clause, -pair id1,id2 binds the pair of
// interest, or -find picks one automatically. -technique selects the
// explanation generator (perfxplain, ruleofthumb, simbutdiff), and
// -gen-despite asks PerfXplain to generate a despite extension first.
// The pair walks run on this process's cores (-parallelism); only the
// pxqld server ships them to worker subprocesses.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"perfxplain"
)

func main() {
	logPath := flag.String("log", "", "execution log CSV (required)")
	querySrc := flag.String("query", "", "PXQL query text")
	queryFile := flag.String("file", "", "file containing the PXQL query")
	pair := flag.String("pair", "", "pair of interest as 'id1,id2' (overrides the FOR clause)")
	find := flag.Bool("find", false, "pick a pair of interest satisfying the query automatically")
	width := flag.Int("width", 3, "explanation width")
	level := flag.Int("level", 3, "feature level 1-3")
	seed := flag.Int64("seed", 1, "sampling seed")
	parallelism := flag.Int("parallelism", 0, "worker goroutines for the explanation pipeline (0 = all cores); the answer is identical at every setting")
	technique := flag.String("technique", "perfxplain", "perfxplain | ruleofthumb | simbutdiff")
	genDespite := flag.Bool("gen-despite", false, "generate a despite extension before explaining (perfxplain only)")
	evalPath := flag.String("eval", "", "optional second log CSV to evaluate the explanation against")
	flag.Parse()

	if err := run(cliOpts{
		logPath:     *logPath,
		querySrc:    *querySrc,
		queryFile:   *queryFile,
		pair:        *pair,
		find:        *find,
		width:       *width,
		level:       *level,
		seed:        *seed,
		parallelism: *parallelism,
		technique:   *technique,
		genDespite:  *genDespite,
		evalPath:    *evalPath,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "pxql:", err)
		os.Exit(1)
	}
}

// cliOpts carries the resolved coordinator flags; a struct rather than
// positional parameters so adjacent same-typed flags cannot be swapped
// silently at a call site.
type cliOpts struct {
	logPath, querySrc, queryFile, pair string
	find                               bool
	width, level                       int
	seed                               int64
	parallelism                        int
	technique                          string
	genDespite                         bool
	evalPath                           string
}

func run(o cliOpts) error {
	logPath, querySrc, queryFile, pair := o.logPath, o.querySrc, o.queryFile, o.pair
	find, width, level, seed := o.find, o.width, o.level, o.seed
	parallelism := o.parallelism
	technique, genDespite, evalPath := o.technique, o.genDespite, o.evalPath

	if logPath == "" {
		return fmt.Errorf("-log is required")
	}
	log, err := readLog(logPath)
	if err != nil {
		return err
	}
	src, err := querySource(querySrc, queryFile)
	if err != nil {
		return err
	}
	q, err := perfxplain.ParseQuery(src)
	if err != nil {
		return err
	}
	if pair != "" {
		id1, id2, ok := strings.Cut(pair, ",")
		if !ok {
			return fmt.Errorf("-pair must be 'id1,id2'")
		}
		q.Bind(strings.TrimSpace(id1), strings.TrimSpace(id2))
	}
	if id1, _ := q.Pair(); id1 == "" {
		if !find {
			return fmt.Errorf("no pair of interest: add a FOR clause, -pair, or -find")
		}
		id1, id2, ok := perfxplain.FindPairOfInterestP(log, q, seed, parallelism)
		if !ok {
			return fmt.Errorf("no pair in the log satisfies the query")
		}
		q.Bind(id1, id2)
		fmt.Printf("pair of interest: %s, %s\n", id1, id2)
	}

	opt := perfxplain.Options{Width: width, DespiteWidth: width, FeatureLevel: level,
		Seed: seed, Parallelism: parallelism}
	var x *perfxplain.Explanation
	switch strings.ToLower(technique) {
	case "perfxplain":
		ex, err := perfxplain.NewExplainer(log, opt)
		if err != nil {
			return err
		}
		if genDespite {
			x, err = ex.ExplainWithDespiteContext(context.Background(), q)
		} else {
			x, err = ex.ExplainContext(context.Background(), q)
		}
		if err != nil {
			return err
		}
	case "ruleofthumb":
		x, err = perfxplain.RuleOfThumbExplain(log, q, width, seed)
		if err != nil {
			return err
		}
	case "simbutdiff":
		x, err = perfxplain.SimButDiffExplainP(log, q, width, seed, parallelism)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown technique %q", technique)
	}

	fmt.Print(perfxplain.RenderReport(q, x))

	if evalPath != "" {
		evalLog, err := readLog(evalPath)
		if err != nil {
			return err
		}
		m, err := perfxplain.Evaluate(evalLog, q, x, opt)
		if err != nil {
			return err
		}
		fmt.Printf("held-out:  precision %.3f, generality %.3f, relevance %.3f\n",
			m.Precision, m.Generality, m.Relevance)
	}
	return nil
}

func readLog(path string) (*perfxplain.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return perfxplain.ReadLogCSV(f)
}

func querySource(querySrc, queryFile string) (string, error) {
	switch {
	case querySrc != "" && queryFile != "":
		return "", fmt.Errorf("use only one of -query and -file")
	case querySrc != "":
		return querySrc, nil
	case queryFile != "":
		b, err := os.ReadFile(queryFile)
		if err != nil {
			return "", err
		}
		return string(b), nil
	default:
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
}
