package mapreduce

import (
	"sort"
	"testing"

	"perfxplain/internal/excite"
	"perfxplain/internal/pig"
)

// Scheduling invariants of the virtual-time executor, checked over a
// spread of configurations: no two tasks ever share a slot, per-type
// concurrency never exceeds the slot count, and reduces respect the map
// barrier.
func TestSchedulingInvariants(t *testing.T) {
	configs := []Config{
		{NumInstances: 1, BlockSize: 16 * mb, ReduceTasksFactor: 2, IOSortFactor: 10, Seed: 1},
		{NumInstances: 3, BlockSize: 32 * mb, ReduceTasksFactor: 1.5, IOSortFactor: 50, Seed: 2},
		{NumInstances: 8, BlockSize: 64 * mb, ReduceTasksFactor: 1, IOSortFactor: 100, Seed: 3},
	}
	for _, cfg := range configs {
		for _, script := range pig.Scripts() {
			res, err := Run(JobSpec{
				ID:     "inv",
				Script: script,
				Input:  excite.DatasetForBytes("x", 400*mb),
				Config: cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkSlotExclusivity(t, res)
			checkMapBarrier(t, res)
			checkConcurrencyBounds(t, res, cfg)
		}
	}
}

func checkSlotExclusivity(t *testing.T, res *JobResult) {
	t.Helper()
	type slotKey struct {
		host string
		typ  string
		slot int
	}
	bySlot := make(map[slotKey][]*TaskResult)
	for _, task := range res.Tasks {
		k := slotKey{task.Host, task.Type, task.Slot}
		bySlot[k] = append(bySlot[k], task)
	}
	for k, tasks := range bySlot {
		sort.Slice(tasks, func(a, b int) bool { return tasks[a].Start < tasks[b].Start })
		for i := 1; i < len(tasks); i++ {
			if tasks[i].Start < tasks[i-1].Finish-eps {
				t.Fatalf("%s: slot %v double-booked: %s [%v,%v] overlaps %s [%v,%v]",
					res.ID, k,
					tasks[i-1].ID, tasks[i-1].Start, tasks[i-1].Finish,
					tasks[i].ID, tasks[i].Start, tasks[i].Finish)
			}
		}
	}
}

func checkMapBarrier(t *testing.T, res *JobResult) {
	t.Helper()
	var lastMap float64
	for _, m := range tasksOfType(res, "MAP") {
		if m.Finish > lastMap {
			lastMap = m.Finish
		}
	}
	for _, r := range tasksOfType(res, "REDUCE") {
		if r.Start < lastMap-eps {
			t.Fatalf("%s: reduce %s started %v before map barrier %v",
				res.ID, r.ID, r.Start, lastMap)
		}
	}
}

// checkConcurrencyBounds sweeps task intervals and verifies per-host,
// per-type concurrency never exceeds the slot counts.
func checkConcurrencyBounds(t *testing.T, res *JobResult, cfg Config) {
	t.Helper()
	type event struct {
		t     float64
		delta int
	}
	byHostType := make(map[string][]event)
	for _, task := range res.Tasks {
		k := task.Host + "/" + task.Type
		byHostType[k] = append(byHostType[k],
			event{task.Start, 1}, event{task.Finish, -1})
	}
	for k, evs := range byHostType {
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].t != evs[b].t {
				return evs[a].t < evs[b].t
			}
			return evs[a].delta < evs[b].delta // finishes before starts at ties
		})
		cur, max := 0, 0
		for _, e := range evs {
			cur += e.delta
			if cur > max {
				max = cur
			}
		}
		if max > 2 { // 2 map slots and 2 reduce slots per instance
			t.Fatalf("%s: %s ran %d concurrent tasks, slots allow 2", res.ID, k, max)
		}
	}
}

// Ganglia sampling must cover every task's execution window: each task's
// averaged metrics must exist and its window must fall inside the sampled
// range.
func TestGangliaCoverage(t *testing.T) {
	res, err := Run(JobSpec{
		ID:     "cov",
		Script: pig.SimpleGroupBy(),
		Input:  excite.DatasetForBytes("x", 300*mb),
		Config: Config{NumInstances: 2, BlockSize: 32 * mb, ReduceTasksFactor: 1, IOSortFactor: 10, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range res.Tasks {
		if task.Ganglia == nil {
			t.Fatalf("task %s has no ganglia window", task.ID)
		}
		if len(task.Ganglia) != 11 {
			t.Errorf("task %s has %d metrics, want 11", task.ID, len(task.Ganglia))
		}
	}
}

// Virtual-time totals must be self-consistent: job duration covers every
// task, and CPU seconds are conserved within contention bounds (a task
// can run at most maxSpeedShare faster than nominal and at least
// minSpeedShare slower).
func TestVirtualTimeConsistency(t *testing.T) {
	res, err := Run(JobSpec{
		ID:     "vt",
		Script: pig.SimpleFilter(),
		Input:  excite.DatasetForBytes("x", 500*mb),
		Config: Config{NumInstances: 4, BlockSize: 64 * mb, ReduceTasksFactor: 1, IOSortFactor: 10, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range res.Tasks {
		if task.Finish > res.Finish+eps {
			t.Errorf("task %s finishes at %v after job end %v", task.ID, task.Finish, res.Finish)
		}
		// Pure-CPU map tasks: duration within the contention envelope of
		// their nominal work (speed factors are clamped to [0.7, 1.3]).
		if task.Type == "MAP" {
			minDur := task.CPUSeconds / (maxSpeedShare * 1.3)
			maxDur := task.CPUSeconds / (minSpeedShare * 0.7)
			if task.Duration() < minDur-eps || task.Duration() > maxDur+eps {
				t.Errorf("task %s duration %v outside contention envelope [%v, %v] for work %v",
					task.ID, task.Duration(), minDur, maxDur, task.CPUSeconds)
			}
		}
	}
}
