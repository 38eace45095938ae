package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRoundMeans(t *testing.T) {
	miss := func(life, index int, ms float64) asked {
		return asked{life: life, index: index, timed: true, ans: answer{ms: ms}}
	}
	r := &timedRun{w: workload{cycle: []string{"seek", "zone"}}}
	r.asked = []asked{
		{life: 0, index: reservedIndex, ans: answer{ms: 999}}, // set-up question: not timed
		miss(0, 0, 10), miss(0, 1, 30), // round: 20
		miss(0, 2, 12), miss(0, 3, 32), // round: 22
		miss(0, 4, 50),                 // life 0 ends mid-round
		miss(1, 5, 70),                 // life 1 starts mid-round
		miss(1, 6, 14), miss(1, 7, 34), // round: 24
		{life: 1, index: 8, timed: true, ans: answer{ms: 1, err: errors.New("refused")}},
		miss(1, 9, 90),                   // its round is spoiled
		miss(1, 10, 16), miss(1, 11, 36), // round: 26
		{life: 1, index: 12, timed: true, duo: true, ans: answer{ms: 5}},    // two-client phase
		{life: 1, index: 10, timed: true, repeat: true, ans: answer{ms: 1}}, // cache hit
	}
	if got, want := roundMeans(soloMisses(r), 2), []float64{20, 22, 24, 26}; !reflect.DeepEqual(got, want) {
		t.Errorf("roundMeans = %v, want %v", got, want)
	}

	if got, want := roundMeans([]asked{miss(0, 0, 7), miss(0, 1, 9)}, 1), []float64{7, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("roundMeans on one template = %v, want %v", got, want)
	}
}

func TestBlockRates(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	r := &timedRun{w: workload{cycle: []string{"blocked"}}, lives: []life{{rateStart: at(0)}, {rateStart: at(100)}}}
	// Life 0: five completions by 1 s, five more by 3 s, then two strays.
	for i, s := range []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.4, 1.8, 2.2, 2.6, 3.0, 3.1, 3.2} {
		r.asked = append(r.asked, asked{life: 0, index: i, timed: true, ans: answer{done: at(s)}})
	}
	// Life 1: out of completion order, one failure, one hit, one warm-up.
	for i, s := range []float64{100.5, 100.1, 100.4, 100.2, 100.3} {
		r.asked = append(r.asked, asked{life: 1, index: 20 + i, timed: true, ans: answer{done: at(s)}})
	}
	r.asked = append(r.asked,
		asked{life: 1, index: 30, timed: true, ans: answer{done: at(100.05), err: errors.New("refused")}},
		asked{life: 1, index: 20, timed: true, repeat: true, ans: answer{done: at(100.06)}},
		asked{life: 1, index: reservedIndex, ans: answer{done: at(99)}})
	got := blockRates(r)
	want := []float64{5, 2.5, 10}
	if len(got) != len(want) {
		t.Fatalf("blockRates = %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("blockRates = %v, want %v", got, want)
		}
	}

	// A growing workload's block is one append round.
	g := &timedRun{w: workload{cycle: []string{"blocked"}, grow: true}, lives: []life{{rateStart: at(0)}}}
	for i, s := range []float64{0.5, 1.0, 1.5, 2.5, 3.5, 4.5} {
		g.asked = append(g.asked, asked{index: i, timed: true, ans: answer{done: at(s)}})
	}
	if got := blockRates(g); len(got) != 2 || !near(got[0], 2) || !near(got[1], 1) {
		t.Errorf("blockRates on a growing workload = %v, want [2 1]", got)
	}
}

func TestIngestLatency(t *testing.T) {
	lives := make([][]float64, 3)
	for n := range lives {
		lives[n] = make([]float64, ingestPhase)
		for i := range lives[n] {
			lives[n][i] = 10 + float64(n) // each life a little slower than the last
			if i%4 == 3 {
				lives[n][i] += 30 // the batch that seals
			}
		}
	}
	lives[0][5] = 500 // a stall that hit the fastest life
	if got, want := ingestLatency(lives), (31*10.0+11+8*30)/32; !near(got, want) {
		t.Errorf("ingestLatency = %v, want %v", got, want)
	}
}
