package perfxplain

// The paper's Section 2.1 motivating scenario, end to end: a user debugs
// a job by re-running it on a much smaller dataset, expecting a big
// speed-up — but both take the same time, because the block size is large
// and neither dataset saturates the cluster. PerfXplain should explain
// the surprise with a block-size (or cluster-capacity) predicate.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"perfxplain/internal/collect"
	"perfxplain/internal/excite"
	"perfxplain/internal/joblog"
	"perfxplain/internal/mapreduce"
	"perfxplain/internal/pig"
)

func TestMotivatingScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-job simulation in -short mode")
	}
	const gb = 1 << 30
	jobSchema := collect.JobSchema()
	logRaw := joblog.NewLog(jobSchema)

	// A background log: jobs at various sizes and block sizes, with three
	// repetitions per configuration so the explainer has enough pairs to
	// separate real causes from monitoring noise.
	idx := 0
	addJob := func(bytes int64, blockMB int64, instances int) string {
		id := fmt.Sprintf("job-%04d", idx)
		idx++
		res, err := mapreduce.Run(mapreduce.JobSpec{
			ID:     id,
			Script: pig.SimpleFilter(),
			Input:  excite.DatasetForBytes("excite", bytes),
			Config: mapreduce.Config{
				NumInstances:      instances,
				BlockSize:         blockMB << 20,
				ReduceTasksFactor: 1,
				IOSortFactor:      10,
				Seed:              int64(1000 + idx),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		logRaw.MustAppend(collect.JobRecord(jobSchema, res, float64(idx)*3600))
		return id
	}

	for rep := 0; rep < 3; rep++ {
		for _, bytes := range []int64{1 * gb, 4 * gb, 16 * gb, 32 * gb} {
			for _, blockMB := range []int64{64, 1024} {
				for _, instances := range []int{4, 16} {
					addJob(bytes, blockMB, instances)
				}
			}
		}
	}
	jobs := &Log{l: logRaw}

	// The surprise must exist in the data: some job processed several
	// times the data of another in the same time, because large blocks on
	// a big cluster leave both jobs bounded by per-block processing time.
	q, err := ParseQuery(`
		DESPITE inputsize_compare = GT
		OBSERVED duration_compare = SIM
		EXPECTED duration_compare = GT`)
	if err != nil {
		t.Fatal(err)
	}
	big, small, ok := FindPairOfInterestP(jobs, q, 1, 0)
	if !ok {
		t.Fatal("the motivating phenomenon did not occur in the simulated log")
	}
	q.Bind(big, small)
	inBig, _ := jobs.Feature(big, "inputsize")
	inSmall, _ := jobs.Feature(small, "inputsize")
	dBig, _ := jobs.Feature(big, "duration")
	dSmall, _ := jobs.Feature(small, "duration")
	t.Logf("big job: %s bytes in %ss; small job: %s bytes in %ss", inBig, dBig, inSmall, dSmall)

	ex, err := NewExplainer(jobs, Options{Width: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explanation: %s", x.Because())

	// The paper's explanation is "because the block size is large"; a
	// cluster-capacity predicate (instances/slots/map tasks) expresses the
	// same cause from the other side.
	found := false
	for _, cause := range []string{"blocksize", "nummaptasks", "numinstances", "mapslots"} {
		if strings.Contains(x.Because(), cause) {
			found = true
		}
	}
	if !found {
		t.Errorf("explanation %q does not mention block size or cluster capacity", x.Because())
	}
	if x.TrainPrecision() < 0.45 {
		t.Errorf("train precision = %v", x.TrainPrecision())
	}
}
