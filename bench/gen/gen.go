// Package gen makes the benchmark's inputs from a seed: the paper's
// Table-2 sweep as the base log, larger logs as that sweep amplified ×K,
// and the stream of distinct questions each workload asks. The same seed
// yields byte-identical CSVs and question lists; pxqld sees only those.
package gen

import (
	"bytes"
	"fmt"
	"math"

	"perfxplain"
	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// BaseJobs is the size of the paper's sweep, and so of every replica.
const BaseJobs = 540

// jitterSigma is the log-normal spread applied to replicas 1..K-1.
const jitterSigma = 0.08

// configColumns are never jittered: they carry the blocking structure
// (10 groups under numinstances_issame AND pigscript_issame) and the
// ranges the seek and zone templates select on, so every amplified log
// keeps the base log's plan shape.
var configColumns = map[string]bool{
	"numinstances": true, "inputsize": true, "blocksize": true,
	"reducefactor": true, "numreducetasks": true, "iosortfactor": true,
	"nummaptasks": true,
}

// Base is the 540-job sweep for one seed, in both the forms the
// benchmark needs: the public log (for FindPairOfInterestP) and the
// joblog rows (for amplification).
type Base struct {
	Seed int64
	Pub  *perfxplain.Log
	Log  *joblog.Log
}

// NewBase collects the paper's sweep for seed.
func NewBase(seed int64) (*Base, error) {
	pub, _, err := perfxplain.Collect(perfxplain.SweepOptions{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("gen: collect sweep: %w", err)
	}
	var buf bytes.Buffer
	if err := pub.WriteCSV(&buf); err != nil {
		return nil, fmt.Errorf("gen: write base csv: %w", err)
	}
	l, err := joblog.ReadCSV(&buf)
	if err != nil {
		return nil, fmt.Errorf("gen: read base csv: %w", err)
	}
	if l.Len() != BaseJobs {
		return nil, fmt.Errorf("gen: sweep has %d jobs, want %d", l.Len(), BaseJobs)
	}
	return &Base{Seed: seed, Pub: pub, Log: l}, nil
}

// ReplicaID is the ID a base record carries in replica r.
func ReplicaID(id string, r int) string { return fmt.Sprintf("%s-r%04d", id, r) }

// Amplify returns replicas [from, to) of the base log as one log.
// Replica 0 is the base verbatim; later replicas multiply every numeric
// non-configuration cell by exp(σ·z). Each replica draws from its own
// stream, so replica r is the same rows whatever range it is asked in.
func (b *Base) Amplify(from, to int) *joblog.Log {
	out := joblog.NewLog(b.Log.Schema)
	fields := b.Log.Schema.Fields()
	for r := from; r < to; r++ {
		rng := stats.DeriveRand(b.Seed, fmt.Sprintf("bench-replica-%d", r))
		for _, rec := range b.Log.Records {
			c := rec.Clone()
			c.ID = ReplicaID(rec.ID, r)
			if r > 0 {
				for i, f := range fields {
					if c.Values[i].Kind == joblog.Numeric && !configColumns[f.Name] {
						c.Values[i].Num *= math.Exp(jitterSigma * rng.NormFloat64())
					}
				}
			}
			out.MustAppend(c)
		}
	}
	return out
}

// CSV renders replicas [from, to) as the self-describing CSV pxqld loads
// with -log and accepts on /api/ingest.
func (b *Base) CSV(from, to int) ([]byte, error) {
	var buf bytes.Buffer
	if err := b.Amplify(from, to).WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Template is one of the benchmark's query shapes. All ask why a job was
// slower (duration_compare = GT) than expected (SIM).
type Template struct {
	Name       string
	Despite    string
	GenDespite bool
}

const blockedDespite = "numinstances_issame = T AND pigscript_issame = T"

// Templates are the four shapes, by name.
var Templates = []Template{
	{Name: "blocked", Despite: blockedDespite},
	{Name: "seek", Despite: blockedDespite + " AND blocksize > 500000000 AND iosortfactor > 75"},
	{Name: "zone", Despite: "pigscript_issame = T AND numinstances > 12"},
	{Name: "gendespite", Despite: blockedDespite, GenDespite: true},
}

// Query is the template's PXQL source, without a pair.
func (t Template) Query() string {
	return "DESPITE " + t.Despite + "\nOBSERVED duration_compare = GT\nEXPECTED duration_compare = SIM"
}

// Question is one request: a template bound to a pair of interest and a
// sampling seed. Distinct seeds make distinct questions, so each is a
// cache miss the first time it is asked.
type Question struct {
	Template   string
	Query      string
	Pair       [2]string
	Seed       int64
	GenDespite bool
}

// poolSize bounds the pairs of interest kept per template.
const poolSize = 8

// Questioner hands out the seed's question stream.
type Questioner struct {
	seed  int64
	tmpl  map[string]Template
	pools map[string][][2]string
}

// NewQuestioner finds each template's pairs of interest on the base log:
// the salient pair FindPairOfInterestP picks, then up to poolSize-1 more
// drawn from the pairs that satisfy the template's despite and observed
// clauses. Pairs are addressed in replica 0, which every amplified log
// holds verbatim, so no workload searches for a pair while it is timed.
func NewQuestioner(b *Base) (*Questioner, error) {
	qn := &Questioner{seed: b.Seed, tmpl: map[string]Template{}, pools: map[string][][2]string{}}
	for _, t := range Templates {
		qn.tmpl[t.Name] = t
		pq, err := perfxplain.ParseQuery(t.Query())
		if err != nil {
			return nil, fmt.Errorf("gen: template %s: %w", t.Name, err)
		}
		id1, id2, ok := perfxplain.FindPairOfInterestP(b.Pub, pq, b.Seed, 0)
		if !ok {
			return nil, fmt.Errorf("gen: template %s: no pair of interest on the base log", t.Name)
		}
		pool := [][2]string{{id1, id2}}

		q, err := pxql.Parse(t.Query())
		if err != nil {
			return nil, fmt.Errorf("gen: template %s: %w", t.Name, err)
		}
		var cands [][2]string
		for _, p := range core.RelatedPairsP(b.Log, features.Level3, q, 0, b.Seed, 0) {
			if p.Observed && !(p.A.ID == id1 && p.B.ID == id2) {
				cands = append(cands, [2]string{p.A.ID, p.B.ID})
			}
		}
		rng := stats.DeriveRand(b.Seed, "bench-pairs-"+t.Name)
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		if len(cands) > poolSize-1 {
			cands = cands[:poolSize-1]
		}
		qn.pools[t.Name] = append(pool, cands...)
	}
	return qn, nil
}

// Pool returns the template's pairs of interest as base-log IDs.
func (qn *Questioner) Pool(template string) [][2]string { return qn.pools[template] }

// Question returns question i of a workload whose traffic cycles through
// the given templates. It is a pure function of (seed, cycle, i).
func (qn *Questioner) Question(cycle []string, i int) Question {
	t := qn.tmpl[cycle[i%len(cycle)]]
	pool := qn.pools[t.Name]
	p := pool[stats.SplitMix64(uint64(qn.seed)^uint64(i)*0x9e3779b97f4a7c15)%uint64(len(pool))]
	return Question{
		Template:   t.Name,
		Query:      t.Query(),
		Pair:       [2]string{ReplicaID(p[0], 0), ReplicaID(p[1], 0)},
		Seed:       qn.seed*1_000_000 + int64(i) + 1,
		GenDespite: t.GenDespite,
	}
}
