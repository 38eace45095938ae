package collect

import (
	"sort"
	"testing"

	"perfxplain/internal/mapreduce"
)

// TestPhaseModelOverSweep pins the sign of two Table 2 parameters'
// effects in the sized cost model, per the phase model of Hadoop
// Performance Models, over the paper's 540-job sweep. Each cell holds
// every setting fixed but one (job seeds differ, as in the sweep):
//   - as dfs.block.size grows, a job has no more map tasks and its maps
//     take longer on average (180 cells);
//   - as io.sort.factor grows, its reduces pay no more merge passes (90
//     cells, the groupby jobs).
func TestPhaseModelOverSweep(t *testing.T) {
	res, err := DefaultSweep(42).Collect()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("blocksize", func(t *testing.T) {
		cells := cellsVarying(res.Results, func(c *mapreduce.Config) int64 {
			v := c.BlockSize
			c.BlockSize = 0
			return v
		})
		if len(cells) != 180 {
			t.Fatalf("%d block-size cells, want 180", len(cells))
		}
		for _, jobs := range cells {
			for i := 1; i < len(jobs); i++ {
				a, b := jobs[i-1], jobs[i]
				if b.NumMapTasks > a.NumMapTasks {
					t.Errorf("%s → %s: block size %d → %d raised map tasks %d → %d",
						a.ID, b.ID, a.Config.BlockSize, b.Config.BlockSize, a.NumMapTasks, b.NumMapTasks)
				}
				if ma, mb := meanMapDuration(a), meanMapDuration(b); mb <= ma {
					t.Errorf("%s → %s: block size %d → %d, mean map duration %v → %v, want longer",
						a.ID, b.ID, a.Config.BlockSize, b.Config.BlockSize, ma, mb)
				}
			}
		}
	})

	t.Run("iosortfactor", func(t *testing.T) {
		var reducing []*mapreduce.JobResult
		for _, j := range res.Results {
			if j.NumReduceTasks > 0 {
				reducing = append(reducing, j)
			}
		}
		cells := cellsVarying(reducing, func(c *mapreduce.Config) int64 {
			v := c.IOSortFactor
			c.IOSortFactor = 0
			return int64(v)
		})
		if len(cells) != 90 {
			t.Fatalf("%d io.sort.factor cells, want 90", len(cells))
		}
		for _, jobs := range cells {
			for i := 1; i < len(jobs); i++ {
				a, b := jobs[i-1], jobs[i]
				if pa, pb := maxMergePasses(a), maxMergePasses(b); pb > pa {
					t.Errorf("%s → %s: io.sort.factor %d → %d raised merge passes %d → %d",
						a.ID, b.ID, a.Config.IOSortFactor, b.Config.IOSortFactor, pa, pb)
				}
			}
		}
	})
}

// cellsVarying groups jobs that agree on script, input and every config
// setting but the one split off (and the seed), each group ordered by
// that setting. split returns the setting and zeroes it in the key.
func cellsVarying(jobs []*mapreduce.JobResult, split func(*mapreduce.Config) int64) [][]*mapreduce.JobResult {
	type key struct {
		script string
		input  int64
		cfg    mapreduce.Config
	}
	type member struct {
		setting int64
		job     *mapreduce.JobResult
	}
	groups := make(map[key][]member)
	var order []key
	for _, j := range jobs {
		cfg := j.Config
		cfg.Seed = 0
		v := split(&cfg)
		k := key{j.Script, j.Input.Bytes, cfg}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], member{v, j})
	}
	cells := make([][]*mapreduce.JobResult, 0, len(order))
	for _, k := range order {
		ms := groups[k]
		sort.Slice(ms, func(a, b int) bool { return ms[a].setting < ms[b].setting })
		cell := make([]*mapreduce.JobResult, len(ms))
		for i, m := range ms {
			cell[i] = m.job
		}
		cells = append(cells, cell)
	}
	return cells
}

func meanMapDuration(j *mapreduce.JobResult) float64 {
	var sum float64
	n := 0
	for _, t := range j.Tasks {
		if t.Type == "MAP" {
			sum += t.Duration()
			n++
		}
	}
	return sum / float64(n)
}

func maxMergePasses(j *mapreduce.JobResult) int {
	m := 0
	for _, t := range j.Tasks {
		if t.Type == "REDUCE" && t.MergePasses > m {
			m = t.MergePasses
		}
	}
	return m
}
