package perfxplain

// Golden regression tests for the columnar execution-log engine: the
// refactor from row-oriented records to interned columns is required to be
// behaviour-preserving, so these tests pin the exact bytes of every
// user-visible artifact — explanation clauses, per-atom training
// diagnostics, training and held-out metrics — across feature levels 1-3,
// parallelism 1, 4 and GOMAXPROCS, and explicit local spec counts (the
// worker transports are pinned equal in internal/shard's equivalence
// suite and the pxql CLI golden test). The
// files under testdata/golden
// were captured from the pre-columnar implementation; regenerate with
//
//	go test -run TestGolden -update
//
// only when an intentional behaviour change is being made.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// goldenParallelisms are the worker counts every golden artifact must be
// identical under (0 = GOMAXPROCS).
var goldenParallelisms = []int{1, 4, 0}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: output diverged from golden\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// renderExplanation dumps every user-visible facet of an explanation with
// full float precision.
func renderExplanation(b *strings.Builder, x *Explanation) {
	fmt.Fprintf(b, "explanation:\n%s\n", x)
	fmt.Fprintf(b, "train: precision=%v generality=%v relevance=%v\n",
		x.TrainPrecision(), x.TrainGenerality(), x.TrainRelevance())
	for i, a := range x.AtomDetails() {
		fmt.Fprintf(b, "atom[%d]: %s precision=%v generality=%v\n", i, a.Atom, a.Precision, a.Generality)
	}
}

type goldenCase struct {
	name       string
	taskLevel  bool
	src        string // PXQL without FOR clause
	pairSeed   int64
	genDespite bool
	target     string // Options.Target override ("" = duration)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "whyslower",
			src: `DESPITE numinstances_issame = T AND pigscript_issame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`,
			pairSeed: 1,
		},
		{
			name: "whyslower_gendespite",
			src: `OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`,
			pairSeed:   1,
			genDespite: true,
		},
		{
			name:      "whylasttaskfaster",
			taskLevel: true,
			src: `DESPITE jobid_issame = T AND inputsize_compare = SIM AND hostname_issame = T
OBSERVED duration_compare = LT
EXPECTED duration_compare = SIM`,
			pairSeed: 2,
		},
		{
			name: "othermetric_cpu",
			src: `DESPITE pigscript_issame = T
OBSERVED cpu_seconds_total_compare = GT
EXPECTED cpu_seconds_total_compare = SIM`,
			pairSeed: 3,
			target:   "cpu_seconds_total",
		},
	}
}

// TestGoldenExplanations pins PerfXplain's explanations, atom details and
// metrics for several queries at feature levels 1-3, asserting the bytes
// are identical at parallelism 1, 4 and GOMAXPROCS.
func TestGoldenExplanations(t *testing.T) {
	jobs, tasks := smallLogs(t)
	for _, gc := range goldenCases() {
		log := jobs
		if gc.taskLevel {
			log = tasks
		}
		q, err := ParseQuery(gc.src)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		id1, id2, ok := FindPairOfInterest(log, q, gc.pairSeed)
		if !ok {
			t.Fatalf("%s: no pair of interest", gc.name)
		}
		q.Bind(id1, id2)
		for level := 1; level <= 3; level++ {
			// One body over execution variants: the default spec count at
			// every parallelism level, then explicit spec counts — 64 far
			// exceeds the pair space, so empty specs are pinned too. All
			// must produce the same bytes.
			type variant struct {
				name        string
				parallelism int
				shards      int
			}
			variants := make([]variant, 0, len(goldenParallelisms)+2)
			for _, p := range goldenParallelisms {
				variants = append(variants, variant{fmt.Sprintf("parallelism=%d", p), p, 0})
			}
			variants = append(variants, variant{"shards=3", 0, 3}, variant{"shards=64", 0, 64})
			outputs := make([]string, len(variants))
			for vi, v := range variants {
				var b strings.Builder
				fmt.Fprintf(&b, "query %s level %d pair (%s, %s)\n", gc.name, level, id1, id2)
				opt := Options{Width: 3, DespiteWidth: 3, FeatureLevel: level,
					Seed: 7, Target: gc.target, Parallelism: v.parallelism, Shards: v.shards}
				ex, err := NewExplainer(log, opt)
				if err != nil {
					t.Fatalf("%s L%d %s: %v", gc.name, level, v.name, err)
				}
				var x *Explanation
				if gc.genDespite {
					x, err = ex.ExplainWithDespite(q)
				} else {
					x, err = ex.Explain(q)
				}
				if err != nil {
					t.Fatalf("%s L%d %s: %v", gc.name, level, v.name, err)
				}
				renderExplanation(&b, x)
				m, err := Evaluate(log, q, x, Options{Seed: 7, Parallelism: v.parallelism})
				if err != nil {
					t.Fatalf("%s L%d %s evaluate: %v", gc.name, level, v.name, err)
				}
				fmt.Fprintf(&b, "heldout: precision=%v generality=%v relevance=%v\n",
					m.Precision, m.Generality, m.Relevance)
				outputs[vi] = b.String()
			}
			for vi := 1; vi < len(outputs); vi++ {
				if outputs[vi] != outputs[0] {
					t.Errorf("%s L%d: %s diverges from %s\n--- %s ---\n%s--- %s ---\n%s",
						gc.name, level, variants[vi].name, variants[0].name,
						variants[vi].name, outputs[vi], variants[0].name, outputs[0])
				}
			}
			checkGolden(t, fmt.Sprintf("%s_L%d", gc.name, level), outputs[0])
		}
	}
}

// TestGoldenBaselines pins the two baseline generators' clauses and their
// held-out metrics; SimButDiff must additionally be identical at every
// parallelism level.
func TestGoldenBaselines(t *testing.T) {
	jobs, _ := smallLogs(t)
	q := boundWhySlower(t, jobs)

	var b strings.Builder
	rot, err := RuleOfThumbExplain(jobs, q, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "ruleofthumb because: %s\n", rot.Because())
	m, err := Evaluate(jobs, q, rot, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "ruleofthumb heldout: precision=%v generality=%v relevance=%v\n",
		m.Precision, m.Generality, m.Relevance)

	outputs := make([]string, len(goldenParallelisms))
	for pi, p := range goldenParallelisms {
		sbd, err := SimButDiffExplainP(jobs, q, 3, 7, p)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := Evaluate(jobs, q, sbd, Options{Seed: 7, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		outputs[pi] = fmt.Sprintf("simbutdiff because: %s\nsimbutdiff heldout: precision=%v generality=%v relevance=%v\n",
			sbd.Because(), sm.Precision, sm.Generality, sm.Relevance)
	}
	for pi := 1; pi < len(outputs); pi++ {
		if outputs[pi] != outputs[0] {
			t.Errorf("simbutdiff: parallelism %d diverges:\n%s\nvs\n%s",
				goldenParallelisms[pi], outputs[pi], outputs[0])
		}
	}
	b.WriteString(outputs[0])
	checkGolden(t, "baselines", b.String())
}
