package mapreduce

import (
	"fmt"
	"math"

	"math/rand"

	"perfxplain/internal/cluster"
	"perfxplain/internal/ganglia"
	"perfxplain/internal/stats"
)

// Cost-model constants. Absolute values are calibrated to the paper-era
// m1.small ballpark (sub-MB/s per core for Pig jobs); the reproduction
// depends on their relative effects, not their absolute accuracy.
const (
	mb = 1 << 20

	taskStartupSec = 1.5  // JVM launch + task setup
	mergeRateMBps  = 80.0 // sort-merge streaming rate at nominal speed
	writeCostPerMB = 0.25 // CPU cost of writing reduce output

	demandCPU  = 1.0  // CPU demand of a map/reduce compute stage
	demandSort = 0.8  // sort-merge is mostly I/O with some CPU
	demandNet  = 0.15 // shuffle fetch burns little CPU

	maxSpeedShare = 1.5 // a lone task on an idle instance gets this boost
	minSpeedShare = 0.2 // floor under extreme contention

	submitLatencySec = 2.0 // job submit → first task launch
	teardownSec      = 2.0 // last task → job completion
	workNoiseSigma   = 0.02
	eps              = 1e-9
)

type stageKind int

const (
	stageCPU stageKind = iota
	stageNet
	stageSort
)

type stage struct {
	kind      stageKind
	remaining float64 // CPU-seconds for cpu/sort stages, bytes for net
}

// taskPlan is a task's counters plus its work profile, built before
// simulation.
type taskPlan struct {
	res    *TaskResult
	stages []stage
}

// Run prices the job from its input's aggregates and simulates it in
// virtual time on a simulated cluster, returning the full log record.
func Run(spec JobSpec) (*JobResult, error) {
	if err := spec.Config.Validate(); err != nil {
		return nil, err
	}
	if spec.Script == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no script", spec.ID)
	}
	if spec.ID == "" {
		return nil, fmt.Errorf("mapreduce: job needs an ID")
	}
	cfg := spec.Config
	rng := stats.DeriveRand(cfg.Seed, "job-"+spec.ID)

	if spec.Input.Bytes <= 0 {
		return nil, fmt.Errorf("mapreduce: job %q has empty input", spec.ID)
	}
	numReduce := cfg.NumReduceTasks(spec.Script)
	maps, reduces := planTasks(spec, numReduce, rng)

	cl, err := cluster.New(cluster.Config{Instances: cfg.NumInstances, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	coll := ganglia.NewCollector()
	s := newSim(cl, coll, rng)
	if err := s.run(maps, reduces); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", spec.ID, err)
	}

	res := &JobResult{
		ID:             spec.ID,
		Script:         spec.Script.Name,
		Config:         cfg,
		Input:          spec.Input,
		NumMapTasks:    len(maps),
		NumReduceTasks: numReduce,
		Start:          0,
	}
	var gm []map[string]float64
	var last float64
	for _, p := range append(append([]*taskPlan{}, maps...), reduces...) {
		t := p.res
		if g, ok := coll.AverageMap(t.Host, t.Start, t.Finish); ok {
			t.Ganglia = g
			gm = append(gm, g)
		}
		t.GCTime = t.Duration() * (0.01 + 0.04*rng.Float64())
		if t.Finish > last {
			last = t.Finish
		}
		res.Tasks = append(res.Tasks, t)
	}
	res.Finish = last + teardownSec
	res.Ganglia = ganglia.MeanOfMaps(gm)
	return res, nil
}

// planTasks builds counters and work profiles for every task from the
// sized-input model: one map per block of input, each priced by the
// script's selectivities, and reduces sharing the map output.
func planTasks(spec JobSpec, numReduce int, rng *rand.Rand) (maps, reduces []*taskPlan) {
	script := spec.Script
	cfg := spec.Config
	input := spec.Input

	byteSel := script.MapByteSelectivity(input)
	recSel := script.MapRecordSelectivity(input)
	var totalMapOutBytes, totalMapOutRecs int64
	for off := int64(0); off < input.Bytes; off += cfg.BlockSize {
		inBytes := min(cfg.BlockSize, input.Bytes-off)
		inRecs := int64(float64(inBytes) / input.AvgRecordLen)
		outBytes := int64(byteSel * float64(inBytes))
		outRecs := int64(recSel * float64(inRecs))
		totalMapOutBytes += outBytes
		totalMapOutRecs += outRecs
		i := len(maps)
		t := &TaskResult{
			ID:            fmt.Sprintf("%s_m_%04d", spec.ID, i),
			JobID:         spec.ID,
			Type:          "MAP",
			Index:         i,
			InputBytes:    inBytes,
			InputRecords:  inRecs,
			OutputBytes:   outBytes,
			OutputRecords: outRecs,
			HDFSBytesRead: inBytes,
		}
		if script.MapOnly {
			t.HDFSBytesWritten = outBytes
			t.FileBytesWritten = int64(rng.Intn(64 << 10)) // task-log dribble
		} else {
			t.FileBytesWritten = outBytes
			t.SpilledRecords = outRecs
			if script.Combiner {
				t.CombineInputRecords = inRecs
				t.CombineOutputRecords = outRecs
			}
		}
		work := taskStartupSec + script.MapCPUPerMB*float64(inBytes)/mb
		work *= noise(rng)
		t.CPUSeconds = work
		maps = append(maps, &taskPlan{res: t, stages: []stage{{stageCPU, work}}})
	}

	if numReduce == 0 {
		return maps, nil
	}

	// Reduce partition shares: mildly skewed deterministic weights (hash
	// partitioning over a Zipf-skewed key population is never perfectly
	// even).
	weights := make([]float64, numReduce)
	var sum float64
	for r := range weights {
		w := 1 + 0.3*rng.NormFloat64()
		if w < 0.15 {
			w = 0.15
		}
		weights[r] = w
		sum += w
	}
	totalOut := script.ReduceOutputBytes(input)

	// One map-output segment per map task.
	passes := extraMergePasses(len(maps), cfg.IOSortFactor)
	for r, w := range weights {
		share := w / sum
		shufBytes := int64(share * float64(totalMapOutBytes))
		inRecs := int64(share * float64(totalMapOutRecs))
		outBytes := int64(share * float64(totalOut))
		t := &TaskResult{
			ID:               fmt.Sprintf("%s_r_%04d", spec.ID, r),
			JobID:            spec.ID,
			Type:             "REDUCE",
			Index:            r,
			InputBytes:       shufBytes,
			InputRecords:     inRecs,
			OutputBytes:      outBytes,
			OutputRecords:    int64(share * float64(input.DistinctUsers)),
			ShuffleBytes:     shufBytes,
			HDFSBytesWritten: outBytes,
			FileBytesWritten: int64(float64(shufBytes) * (1 + 0.5*float64(passes))),
			MergePasses:      passes,
		}
		if passes > 0 {
			t.SpilledRecords = inRecs
		}
		shufMB := float64(shufBytes) / mb
		sortWork := (float64(passes) + 0.3) * shufMB / mergeRateMBps * demandSort
		sortWork = math.Max(sortWork, 0.02) * noise(rng)
		redWork := taskStartupSec + script.ReduceCPUPerMB*shufMB +
			writeCostPerMB*float64(outBytes)/mb
		redWork *= noise(rng)
		t.CPUSeconds = redWork + sortWork
		reduces = append(reduces, &taskPlan{res: t, stages: []stage{
			{stageNet, math.Max(float64(shufBytes), 1)},
			{stageSort, sortWork},
			{stageCPU, redWork},
		}})
	}
	return maps, reduces
}

// extraMergePasses is the number of on-disk merge passes a reduce pays
// beyond the final streaming merge: the smallest k with factor^k >=
// segments, less one, so zero when all segments fit in one merge of width
// io.sort.factor. Each pass merges every factor segments into one. It
// counts in integers: a float log_factor(segments) lands a hair above k
// at exact powers and would round up a pass.
func extraMergePasses(segments, factor int) int {
	passes := 0
	for ; segments > factor; segments = (segments-1)/factor + 1 {
		passes++
	}
	return passes
}

func noise(rng *rand.Rand) float64 {
	return math.Exp(rng.NormFloat64() * workNoiseSigma)
}
