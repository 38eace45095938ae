// Package eval reproduces the paper's evaluation (Section 6): the two
// PXQL benchmark queries, the 2-fold cross-validation protocol, the three
// explanation techniques side by side, and one experiment per figure and
// table. Each experiment returns a Table whose series can be printed or
// asserted against the paper's qualitative shape.
package eval

import (
	"fmt"
	"sync"

	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// QueryTemplate is a PXQL query family: the three predicates without a
// bound pair of interest (the harness binds one per repetition).
type QueryTemplate struct {
	// Name identifies the query in tables ("WhyLastTaskFaster", ...).
	Name string
	// TaskLevel selects the task log instead of the job log.
	TaskLevel bool
	// Despite, Observed, Expected are PXQL predicate sources.
	Despite  string
	Observed string
	Expected string
	// PairFilter optionally narrows pair-of-interest selection to pairs
	// matching the scenario the query describes (the paper's user asks
	// about a specific situation, e.g. "the LAST task was faster", not an
	// arbitrary pair exhibiting the observation). nil accepts any pair
	// satisfying despite ∧ observed.
	PairFilter func(log *joblog.Log, a, b *joblog.Record) bool
}

// Query parses the template into an unbound PXQL query.
func (t QueryTemplate) Query() (*pxql.Query, error) {
	des, err := pxql.ParsePredicate(t.Despite)
	if err != nil {
		return nil, fmt.Errorf("eval: %s despite: %w", t.Name, err)
	}
	obs, err := pxql.ParsePredicate(t.Observed)
	if err != nil {
		return nil, fmt.Errorf("eval: %s observed: %w", t.Name, err)
	}
	exp, err := pxql.ParsePredicate(t.Expected)
	if err != nil {
		return nil, fmt.Errorf("eval: %s expected: %w", t.Name, err)
	}
	return &pxql.Query{Despite: des, Observed: obs, Expected: exp}, nil
}

// WhyLastTaskFaster is the paper's first benchmark query (Section 6.2):
// why did the last task launched on an instance finish faster than the
// earlier tasks of the same job on that instance, despite processing a
// similar amount of input? The pair filter pins the pair of interest to
// the scenario: the faster task must be the last one started on its
// (job, host) group, as in the authors' own observation.
func WhyLastTaskFaster() QueryTemplate {
	t := QueryTemplate{
		Name:      "WhyLastTaskFaster",
		TaskLevel: true,
		Despite:   "jobid_issame = T AND inputsize_compare = SIM AND hostname_issame = T",
		Observed:  "duration_compare = LT",
		Expected:  "duration_compare = SIM",
	}
	t.PairFilter = lastTaskFilter()
	return t
}

// lastTaskFilter accepts map-task pairs whose first member is the last
// map task to start within its (jobid, hostname) group — the scenario of
// the paper's Example 5 ("I expected all map tasks to have similar
// durations. However, [the last] task T2 was faster."). Group maxima are
// memoised per log.
func lastTaskFilter() func(log *joblog.Log, a, b *joblog.Record) bool {
	var mu sync.Mutex
	cache := make(map[*joblog.Log]map[string]float64)
	key := func(log *joblog.Log, r *joblog.Record) string {
		return log.Value(r, "jobid").String() + "\x1f" + log.Value(r, "hostname").String()
	}
	isMap := func(log *joblog.Log, r *joblog.Record) bool {
		return log.Value(r, "tasktype") == joblog.Str("MAP")
	}
	return func(log *joblog.Log, a, b *joblog.Record) bool {
		if !isMap(log, a) || !isMap(log, b) {
			return false
		}
		mu.Lock()
		maxStart, ok := cache[log]
		if !ok {
			maxStart = make(map[string]float64)
			for _, r := range log.Records {
				if !isMap(log, r) {
					continue
				}
				st := log.Value(r, "starttime")
				if st.Kind != joblog.Numeric {
					continue
				}
				k := key(log, r)
				if st.Num > maxStart[k] {
					maxStart[k] = st.Num
				}
			}
			cache[log] = maxStart
		}
		mu.Unlock()
		st := log.Value(a, "starttime")
		return st.Kind == joblog.Numeric && st.Num >= maxStart[key(log, a)]
	}
}

// WhySlowerDespiteSameNumInstances is the paper's second benchmark query
// (Section 6.2): why was a job slower than another running the same Pig
// script on the same number of instances?
func WhySlowerDespiteSameNumInstances() QueryTemplate {
	return QueryTemplate{
		Name:     "WhySlowerDespiteSameNumInstances",
		Despite:  "numinstances_issame = T AND pigscript_issame = T",
		Observed: "duration_compare = GT",
		Expected: "duration_compare = SIM",
	}
}

// Templates returns both benchmark queries in paper order.
func Templates() []QueryTemplate {
	return []QueryTemplate{WhyLastTaskFaster(), WhySlowerDespiteSameNumInstances()}
}
