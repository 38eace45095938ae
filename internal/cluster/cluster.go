// Package cluster models the EC2-style shared-nothing cluster the paper's
// jobs ran on: a set of virtual instances, each with a fixed core count,
// per-instance map and reduce slots (two of each, as in the paper's
// Section 2.1 motivating scenario), mild speed heterogeneity, and a
// background-load process standing in for noisy neighbours and OS daemons.
//
// The model is static topology plus deterministic stochastic processes;
// the MapReduce engine owns all dynamic scheduling state.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"perfxplain/internal/stats"
)

// Defaults mirroring an m1.small-era EC2 worker.
const (
	DefaultCores        = 2
	DefaultMapSlots     = 2
	DefaultReduceSlots  = 2
	DefaultMemoryBytes  = 1.7 * 1024 * 1024 * 1024 // 1.7 GB
	DefaultNetBytesPerS = 25 * 1024 * 1024         // 25 MB/s
)

// The cluster's stochastic processes.
const (
	// heterogeneity is the stddev of the instance speed factor around 1.0.
	heterogeneity = 0.04
	// bgMean and bgStd shape the background-load process (in runnable
	// processes).
	bgMean, bgStd = 0.12, 0.25
	// spikeProb is the per-interval probability of a noisy-neighbour
	// spike adding 1-2 runnable processes.
	spikeProb = 0.04
)

// Instance is one virtual machine.
type Instance struct {
	// Index is the instance's position in the cluster, 0-based.
	Index int
	// Hostname in the EC2 internal style, stable per index.
	Hostname string
	// Cores available to tasks.
	Cores int
	// MapSlots and ReduceSlots bound concurrent tasks by type.
	MapSlots, ReduceSlots int
	// SpeedFactor scales task progress; drawn near 1.0 to model hardware
	// heterogeneity and hypervisor steal.
	SpeedFactor float64
	// MemoryBytes is total RAM, feeding the mem_free metric.
	MemoryBytes float64
	// NetBytesPerS is the NIC capacity shared by concurrent shuffles.
	NetBytesPerS float64
	// BootTime is the instance's synthetic boot timestamp (seconds), a
	// constant Ganglia reports.
	BootTime float64

	bg *loadProcess
}

// Cluster is an ordered set of instances.
type Cluster struct {
	Instances []*Instance
}

// Config controls cluster construction.
type Config struct {
	// Instances is the cluster size (required, >= 1).
	Instances int
	// Seed drives heterogeneity and background load.
	Seed int64
}

// New builds a cluster. All randomness derives from cfg.Seed, so the same
// configuration always yields the same cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Instances < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 instance, got %d", cfg.Instances)
	}
	cl := &Cluster{}
	for i := 0; i < cfg.Instances; i++ {
		rng := stats.DeriveRand(cfg.Seed, fmt.Sprintf("instance-%d", i))
		speed := 1 + rng.NormFloat64()*heterogeneity
		speed = stats.Clamp(speed, 0.7, 1.3)
		inst := &Instance{
			Index:        i,
			Hostname:     fmt.Sprintf("ip-10-0-%d-%d.ec2.internal", i/250, i%250+10),
			Cores:        DefaultCores,
			MapSlots:     DefaultMapSlots,
			ReduceSlots:  DefaultReduceSlots,
			SpeedFactor:  speed,
			MemoryBytes:  DefaultMemoryBytes,
			NetBytesPerS: DefaultNetBytesPerS,
			BootTime:     float64(1000000 + rng.Intn(500000)),
			bg:           &loadProcess{rng: stats.DeriveRand(cfg.Seed, fmt.Sprintf("bg-%d", i))},
		}
		cl.Instances = append(cl.Instances, inst)
	}
	return cl, nil
}

// BgLoad returns the instance's background load (in runnable processes)
// at virtual time t. The process is piecewise-constant over fixed
// intervals and fully determined by the cluster seed, so repeated queries
// are consistent and order-independent.
func (i *Instance) BgLoad(t float64) float64 { return i.bg.at(t) }

// BgChangeInterval is the granularity of the background-load process; the
// engine uses it to schedule rate-recomputation events.
const BgChangeInterval = 30.0

// loadProcess lazily materialises a piecewise-constant random process.
// Values are cached per interval index so queries at any order of t are
// consistent.
type loadProcess struct {
	rng    *rand.Rand
	values []float64 // values[i] covers [i*interval, (i+1)*interval)
}

func (p *loadProcess) at(t float64) float64 {
	if t < 0 {
		t = 0
	}
	idx := int(math.Floor(t / BgChangeInterval))
	for len(p.values) <= idx {
		// AR(1) persistence: noisy-neighbour episodes span several
		// intervals, as real contention does, so a task's whole window
		// tends to be coherently loaded or unloaded.
		prev := bgMean
		if n := len(p.values); n > 0 {
			prev = p.values[n-1]
		}
		v := 0.6*prev + 0.4*(bgMean+p.rng.NormFloat64()*bgStd)
		if p.rng.Float64() < spikeProb {
			v += 1 + p.rng.Float64()
		}
		p.values = append(p.values, stats.Clamp(v, 0, 4))
	}
	return p.values[idx]
}
