// Package pig describes the two Pig workloads of the paper's evaluation
// (Table 2) as the cost profiles the virtual-time simulator prices them
// by: map and reduce CPU rates plus the selectivities that size each
// phase's output from a dataset's aggregates. No script is executed.
//
// simple-filter.pig loads the Excite log, removes queries that are bare
// URLs, and stores the rest: a map-only job (Pig compiles a pure
// FILTER+STORE pipeline to a job without a reduce phase).
//
// simple-groupby.pig groups queries by user and outputs the count per
// user: a full map-shuffle-reduce job with a combiner.
package pig

import (
	"fmt"

	"perfxplain/internal/excite"
)

// Script is a Pig workload: its shape (map-only or not, combiner or not),
// CPU cost rates, and analytic selectivities over a dataset's aggregates.
type Script struct {
	// Name is the script file name used as the pigscript feature value.
	Name string
	// MapOnly is true when the job has no reduce phase.
	MapOnly bool
	// Combiner is true when map output is pre-aggregated per split
	// before the shuffle.
	Combiner bool

	// MapCPUPerMB is virtual CPU-seconds consumed per MB of map input at
	// full core speed, covering read+parse+apply.
	MapCPUPerMB float64
	// ReduceCPUPerMB is virtual CPU-seconds per MB of reduce input.
	ReduceCPUPerMB float64

	// MapByteSelectivity estimates map output bytes per input byte.
	MapByteSelectivity func(d excite.Dataset) float64
	// MapRecordSelectivity estimates map output records per input record.
	MapRecordSelectivity func(d excite.Dataset) float64
	// ReduceOutputBytes estimates the job's final output size (map-only
	// scripts use MapByteSelectivity instead).
	ReduceOutputBytes func(d excite.Dataset) int64
}

// SimpleFilter returns the simple-filter.pig workload.
func SimpleFilter() *Script {
	return &Script{
		Name:           "simple-filter.pig",
		MapOnly:        true,
		MapCPUPerMB:    1.4,
		ReduceCPUPerMB: 0,
		// The filter keeps the lines whose query is not a bare URL.
		MapByteSelectivity: func(d excite.Dataset) float64 {
			return 1 - d.URLFraction
		},
		MapRecordSelectivity: func(d excite.Dataset) float64 {
			return 1 - d.URLFraction
		},
		ReduceOutputBytes: func(d excite.Dataset) int64 { return 0 },
	}
}

// SimpleGroupBy returns the simple-groupby.pig workload.
func SimpleGroupBy() *Script {
	return &Script{
		Name:           "simple-groupby.pig",
		MapOnly:        false,
		Combiner:       true,
		MapCPUPerMB:    1.8, // grouping pays for key extraction + combiner
		ReduceCPUPerMB: 1.0,
		// Combined map output: one (user, partial count) pair per distinct
		// user per split, approximated globally as a small multiple of the
		// user population relative to input volume.
		MapByteSelectivity: func(d excite.Dataset) float64 {
			if d.Records == 0 {
				return 0
			}
			pairBytes := 14.0 // "AB12CD34\t1234"
			combined := float64(d.DistinctUsers) * 4 * pairBytes
			return minf(1, combined/float64(d.Bytes))
		},
		MapRecordSelectivity: func(d excite.Dataset) float64 {
			if d.Records == 0 {
				return 0
			}
			return minf(1, float64(d.DistinctUsers)*4/float64(d.Records))
		},
		ReduceOutputBytes: func(d excite.Dataset) int64 {
			return d.DistinctUsers * 14
		},
	}
}

// Scripts returns the full workload catalogue in Table 2 order.
func Scripts() []*Script {
	return []*Script{SimpleFilter(), SimpleGroupBy()}
}

// ByName resolves a script by its file name.
func ByName(name string) (*Script, error) {
	for _, s := range Scripts() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("pig: unknown script %q", name)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
