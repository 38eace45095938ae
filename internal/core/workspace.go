package core

import (
	"math/rand"
	"runtime"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
)

// workspace is the working set of one explanation in flight: every
// buffer Algorithm 1 fills per question — the training sample, the pair
// matrix with its gather scratch, the growth state, the candidate slots
// and the scoring scratch — recycled whole
// between questions, so a warm explanation allocates little beyond what
// it returns and what a walk builds. The despite and because phases of one explanation run one after
// the other over the same workspace, and nothing an Explanation keeps
// points into it.
type workspace struct {
	// sample is the training sample; rank is a rank draw's state beside it.
	sample pairPlanes
	rank   rankDraw
	// rng draws a walked related set's sample, reseeded per phase.
	rng *rand.Rand
	// want is the scorable mask of the pair of interest.
	want bitset.Set
	m    features.PairMatrix
	g    growScratch
	// flipped is despite generation's labels: performed as expected.
	flipped []bool
}

// workFree holds the idle workspaces, at most one per processor the
// process started with: a workspace is made only when every idle one is
// taken, so the list never holds more than the process has run at once,
// and with no more than GOMAXPROCS explanations running side by side each
// finds one. A workspace that has served three 2 000-pair despite and
// because phases holds about 1.15 MB of slice capacity over a 27 000-job
// log (the matrix with its gather scratch and value indexes 1.06 MB; the
// rest 0.09 MB) and 0.97 MB over the 540-job sweep (0.88 MB and
// 0.09 MB).
var workFree = make(chan *workspace, runtime.GOMAXPROCS(0))

// takeWorkspace returns an idle workspace, or a new one when none is
// idle.
func takeWorkspace() *workspace {
	select {
	case ws := <-workFree:
		return ws
	default:
		return new(workspace)
	}
}

// release hands the workspace back once nothing reads it; it is dropped
// when the free list is full. Under the race detector every buffer is
// poisoned first, so a read after release changes an answer the -race
// legs compare.
func (ws *workspace) release() {
	if raceEnabled {
		ws.poison()
	}
	select {
	case workFree <- ws:
	default:
	}
}

// poison overwrites what the workspace holds with values that change an
// answer when read: every matrix column and code triple split on
// alternate rows, the sample's pairs reversed, every label negated and
// alternate bits of every bitmap flipped. The rank draw's skip tables are left as they are: each is a
// pure function of the rate it records.
func (ws *workspace) poison() {
	if d := ws.m.D; d != nil {
		ws.m.PoisonSkipped(bitset.Make(d.Schema().Len()))
	}
	for _, p := range [2]*pairPlanes{&ws.sample, &ws.rank.exp} {
		a, b, l := p.a[:cap(p.a)], p.b[:cap(p.b)], p.labels[:cap(p.labels)]
		for i := range a[:min(len(a), len(b))] {
			a[i], b[i] = b[i], a[i]
		}
		negate(l)
	}
	negate(ws.flipped[:cap(ws.flipped)])
	for _, s := range [...]bitset.Set{ws.want, ws.g.cur, ws.g.pos, ws.g.sel} {
		s = s[:cap(s)]
		for w := range s {
			s[w] ^= 0x5555555555555555
		}
	}
}

func negate(bs []bool) {
	for i, b := range bs {
		bs[i] = !b
	}
}

// resized returns s with length n, keeping its backing array when it has
// room; the elements it keeps are not cleared.
func resized[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}
