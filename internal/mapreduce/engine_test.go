package mapreduce

import (
	"math"
	"testing"

	"perfxplain/internal/excite"
	"perfxplain/internal/pig"
)

func sizedSpec(id string, script *pig.Script, bytes int64, cfg Config) JobSpec {
	return JobSpec{
		ID:     id,
		Script: script,
		Input:  excite.DatasetForBytes("excite", bytes),
		Config: cfg,
	}
}

func baseConfig() Config {
	return Config{
		NumInstances:      4,
		BlockSize:         64 * mb,
		ReduceTasksFactor: 1.0,
		IOSortFactor:      10,
		Seed:              1,
	}
}

func TestConfigValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"instances": func(c *Config) { c.NumInstances = 0 },
		"block":     func(c *Config) { c.BlockSize = 0 },
		"factor":    func(c *Config) { c.ReduceTasksFactor = -1 },
		"sort":      func(c *Config) { c.IOSortFactor = 1 },
	} {
		c := baseConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestNumReduceTasks(t *testing.T) {
	c := baseConfig()
	c.NumInstances = 8
	c.ReduceTasksFactor = 1.5
	if got := c.NumReduceTasks(pig.SimpleGroupBy()); got != 12 {
		t.Errorf("reduce tasks = %d, want 12 (paper's example)", got)
	}
	if got := c.NumReduceTasks(pig.SimpleFilter()); got != 0 {
		t.Errorf("map-only reduce tasks = %d", got)
	}
	c.ReduceTasksFactor = 0.1
	c.NumInstances = 1
	if got := c.NumReduceTasks(pig.SimpleGroupBy()); got != 1 {
		t.Errorf("tiny factor reduce tasks = %d, want 1", got)
	}
}

func TestRunValidatesSpec(t *testing.T) {
	if _, err := Run(JobSpec{ID: "x", Script: pig.SimpleFilter(), Config: Config{}}); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := Run(JobSpec{ID: "x", Config: baseConfig()}); err == nil {
		t.Error("missing script should error")
	}
	if _, err := Run(JobSpec{Script: pig.SimpleFilter(), Config: baseConfig()}); err == nil {
		t.Error("missing ID should error")
	}
	if _, err := Run(sizedSpec("x", pig.SimpleFilter(), 0, baseConfig())); err == nil {
		t.Error("empty input should error")
	}
}

func TestRunSizedFilterJob(t *testing.T) {
	cfg := baseConfig()
	res, err := Run(sizedSpec("job-1", pig.SimpleFilter(), 1300*mb, cfg))
	if err != nil {
		t.Fatal(err)
	}
	wantMaps := int(math.Ceil(1300.0 / 64.0))
	if res.NumMapTasks != wantMaps {
		t.Errorf("map tasks = %d, want %d (input/blocksize)", res.NumMapTasks, wantMaps)
	}
	if res.NumReduceTasks != 0 || len(tasksOfType(res, "REDUCE")) != 0 {
		t.Error("filter job should be map-only")
	}
	if res.Duration() <= 0 {
		t.Errorf("duration = %v", res.Duration())
	}
	for _, task := range res.Tasks {
		if task.Finish <= task.Start {
			t.Errorf("task %s: finish %v <= start %v", task.ID, task.Finish, task.Start)
		}
		if task.Host == "" || task.TrackerName == "" {
			t.Errorf("task %s lacks placement", task.ID)
		}
		if task.Ganglia == nil {
			t.Errorf("task %s lacks ganglia metrics", task.ID)
		}
		if task.HDFSBytesWritten == 0 {
			t.Errorf("map-only task %s wrote nothing to HDFS", task.ID)
		}
	}
	if res.Ganglia["avg_cpu_user"] <= 0 {
		t.Errorf("job cpu_user = %v", res.Ganglia["avg_cpu_user"])
	}
}

func TestRunSizedGroupByJob(t *testing.T) {
	cfg := baseConfig()
	cfg.ReduceTasksFactor = 1.5
	res, err := Run(sizedSpec("job-2", pig.SimpleGroupBy(), 650*mb, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumReduceTasks != 6 {
		t.Fatalf("reduce tasks = %d, want 6", res.NumReduceTasks)
	}
	reds := tasksOfType(res, "REDUCE")
	if len(reds) != 6 {
		t.Fatalf("reduce results = %d", len(reds))
	}
	// Reduces start only after every map finished (the map barrier).
	var lastMapFinish float64
	for _, m := range tasksOfType(res, "MAP") {
		if m.Finish > lastMapFinish {
			lastMapFinish = m.Finish
		}
	}
	var totalShuffle int64
	for _, r := range reds {
		if r.Start < lastMapFinish-eps {
			t.Errorf("reduce %s started at %v before maps finished at %v", r.ID, r.Start, lastMapFinish)
		}
		if r.ShuffleTime <= 0 || r.SortTime <= 0 {
			t.Errorf("reduce %s: shuffle %v sort %v", r.ID, r.ShuffleTime, r.SortTime)
		}
		totalShuffle += r.ShuffleBytes
	}
	// Shuffle volume conservation within rounding.
	var mapOut int64
	for _, tk := range tasksOfType(res, "MAP") {
		mapOut += tk.OutputBytes
	}
	if diff := math.Abs(float64(totalShuffle - mapOut)); diff > float64(res.NumReduceTasks) {
		t.Errorf("shuffle %d vs map output %d", totalShuffle, mapOut)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *JobResult {
		res, err := Run(sizedSpec("job-d", pig.SimpleGroupBy(), 200*mb, baseConfig()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration() != b.Duration() {
		t.Errorf("durations differ: %v vs %v", a.Duration(), b.Duration())
	}
	for i := range a.Tasks {
		if a.Tasks[i].Finish != b.Tasks[i].Finish || a.Tasks[i].Host != b.Tasks[i].Host {
			t.Fatalf("task %d differs between identical runs", i)
		}
	}
	cfg := baseConfig()
	cfg.Seed = 999
	c, err := Run(sizedSpec("job-d", pig.SimpleGroupBy(), 200*mb, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if c.Duration() == a.Duration() {
		t.Error("different seeds gave identical durations (suspicious)")
	}
}

// The paper's motivating scenario: with a large block size, a small and a
// large dataset take about the same time because neither saturates the
// cluster and runtime is the per-block processing time.
func TestBlockSizeFloorPhenomenon(t *testing.T) {
	cfg := baseConfig()
	cfg.NumInstances = 16
	cfg.BlockSize = 1024 * mb
	small, err := Run(sizedSpec("job-s", pig.SimpleFilter(), 1300*mb, cfg))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(sizedSpec("job-l", pig.SimpleFilter(), 2600*mb, cfg))
	if err != nil {
		t.Fatal(err)
	}
	ratio := large.Duration() / small.Duration()
	if ratio > 1.25 {
		t.Errorf("large/small duration ratio = %v; expected near 1 when neither saturates", ratio)
	}

	// And with small blocks on a small cluster the large input dominates.
	cfg2 := baseConfig()
	cfg2.NumInstances = 2
	cfg2.BlockSize = 64 * mb
	small2, err := Run(sizedSpec("job-s2", pig.SimpleFilter(), 1300*mb, cfg2))
	if err != nil {
		t.Fatal(err)
	}
	large2, err := Run(sizedSpec("job-l2", pig.SimpleFilter(), 2600*mb, cfg2))
	if err != nil {
		t.Fatal(err)
	}
	if large2.Duration() < 1.6*small2.Duration() {
		t.Errorf("saturated cluster: large %v not ~2x small %v", large2.Duration(), small2.Duration())
	}
}

// The WhyLastTaskFaster phenomenon: on a saturated instance, tasks in the
// last (underfull) wave run measurably faster than full-wave tasks.
func TestLastWaveSpeedup(t *testing.T) {
	cfg := baseConfig()
	cfg.NumInstances = 2 // 4 map slots
	cfg.BlockSize = 32 * mb
	// 9 blocks of 32MB: waves of 4, 4, then 1 lone task.
	res, err := Run(sizedSpec("job-w", pig.SimpleFilter(), 9*32*mb, cfg))
	if err != nil {
		t.Fatal(err)
	}
	maps := tasksOfType(res, "MAP")
	if len(maps) != 9 {
		t.Fatalf("map count = %d", len(maps))
	}
	var lastStart float64
	for _, m := range maps {
		if m.Start > lastStart {
			lastStart = m.Start
		}
	}
	var lone *TaskResult
	var fullWave []*TaskResult
	for _, m := range maps {
		if m.Start == lastStart {
			lone = m
		} else if m.Start < lastStart {
			fullWave = append(fullWave, m)
		}
	}
	if lone == nil || len(fullWave) == 0 {
		t.Fatal("wave structure not found")
	}
	var meanFull float64
	for _, m := range fullWave {
		meanFull += m.Duration()
	}
	meanFull /= float64(len(fullWave))
	if lone.Duration() > 0.85*meanFull {
		t.Errorf("lone task %v not faster than full-wave mean %v", lone.Duration(), meanFull)
	}
	// And its CPU-user reading should be visibly lower (one demand on two
	// cores ≈ 50-60%% vs ~100%% when both slots are busy).
	if lone.Ganglia["avg_cpu_user"] > 85 {
		t.Errorf("lone task cpu_user = %v, want clearly below saturation", lone.Ganglia["avg_cpu_user"])
	}
}

// io.sort.factor: a reduce over many segments pays extra merge passes at
// low factors; sort time should drop when the factor covers all segments.
func TestIOSortFactorAffectsSortTime(t *testing.T) {
	mk := func(factor int) *JobResult {
		cfg := baseConfig()
		cfg.NumInstances = 4
		cfg.BlockSize = 16 * mb // 2.6GB/16MB ≈ many segments
		cfg.IOSortFactor = factor
		res, err := Run(sizedSpec("job-sort", pig.SimpleGroupBy(), 650*mb, cfg))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lowFactor := mk(10)
	highFactor := mk(100)
	sortOf := func(r *JobResult) float64 {
		return r.SumTasksF(func(tk *TaskResult) float64 { return tk.SortTime })
	}
	if sortOf(lowFactor) <= sortOf(highFactor) {
		t.Errorf("sort time low-factor %v <= high-factor %v", sortOf(lowFactor), sortOf(highFactor))
	}
	if tasksOfType(lowFactor, "REDUCE")[0].MergePasses <= tasksOfType(highFactor, "REDUCE")[0].MergePasses {
		t.Errorf("merge passes: %d vs %d", tasksOfType(lowFactor, "REDUCE")[0].MergePasses,
			tasksOfType(highFactor, "REDUCE")[0].MergePasses)
	}
}

// TestExtraMergePasses checks extraMergePasses on hand-picked cases, then
// against its definition in integers: the smallest k with factor^k >=
// segments, less one. The grid is every factor in 2..200 with every
// segment count up to 2 000 and each side of every power of the factor
// up to 10^6. Exact powers are where a float logarithm rounds a pass up.
func TestExtraMergePasses(t *testing.T) {
	tests := []struct {
		segments, factor, want int
	}{
		{5, 10, 0},
		{10, 10, 0},
		{11, 10, 1},
		{41, 10, 1},
		{101, 10, 2},
		{41, 50, 0},
		{41, 100, 0},
		{9, 3, 1},
		{125, 5, 2},
		{216, 6, 2},
	}
	for _, tt := range tests {
		if got := extraMergePasses(tt.segments, tt.factor); got != tt.want {
			t.Errorf("extraMergePasses(%d, %d) = %d, want %d",
				tt.segments, tt.factor, got, tt.want)
		}
	}

	want := func(segments, factor int) int {
		k := 1
		for pow := factor; pow < segments; pow *= factor {
			k++
		}
		return k - 1
	}
	for factor := 2; factor <= 200; factor++ {
		var grid []int
		for segments := 1; segments <= 2000; segments++ {
			grid = append(grid, segments)
		}
		for pow := factor; pow <= 1_000_000; pow *= factor {
			if pow >= 2000 {
				grid = append(grid, pow-1, pow, pow+1)
			}
		}
		for _, segments := range grid {
			if got, w := extraMergePasses(segments, factor), want(segments, factor); got != w {
				t.Errorf("extraMergePasses(%d, %d) = %d, want %d", segments, factor, got, w)
			}
		}
	}
}

func TestMoreInstancesFasterWhenSaturated(t *testing.T) {
	mk := func(instances int) float64 {
		cfg := baseConfig()
		cfg.NumInstances = instances
		cfg.BlockSize = 64 * mb
		res, err := Run(sizedSpec("job-i", pig.SimpleFilter(), 1300*mb, cfg))
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration()
	}
	d2, d8 := mk(2), mk(8)
	if d8 >= d2 {
		t.Errorf("8 instances (%v) not faster than 2 (%v)", d8, d2)
	}
}

func TestTaskGangliaWindows(t *testing.T) {
	res, err := Run(sizedSpec("job-g", pig.SimpleGroupBy(), 300*mb, baseConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range res.Tasks {
		cpu, ok := task.Ganglia["avg_cpu_user"]
		if !ok {
			t.Fatalf("task %s missing avg_cpu_user", task.ID)
		}
		if cpu < 0 || cpu > 100 {
			t.Errorf("task %s cpu_user = %v", task.ID, cpu)
		}
		if task.Ganglia["avg_boottime"] <= 0 {
			t.Errorf("task %s boottime missing", task.ID)
		}
	}
}

// tasksOfType returns the job's tasks of one type ("MAP" or "REDUCE") in
// index order.
func tasksOfType(j *JobResult, typ string) []*TaskResult {
	var out []*TaskResult
	for _, t := range j.Tasks {
		if t.Type == typ {
			out = append(out, t)
		}
	}
	return out
}
