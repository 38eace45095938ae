package bitset

import (
	"math/rand"
	"testing"
)

// refBits is the boolean-slice model every word-wise operation is
// checked against.
func refBits(n int, rng *rand.Rand) ([]bool, Set) {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = rng.Intn(2) == 0
	}
	return bs, FromBools(bs)
}

func TestOpsMatchBoolModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		as, a := refBits(n, rng)
		bs, b := refBits(n, rng)
		cs, c := refBits(n, rng)

		if len(a) != Words(n) {
			t.Fatalf("n=%d: %d words, want %d", n, len(a), Words(n))
		}
		for i := 0; i < n; i++ {
			if a.Get(i) != as[i] {
				t.Fatalf("n=%d: Get(%d) = %v, want %v", n, i, a.Get(i), as[i])
			}
		}

		wantCount := 0
		wantAnd, wantAnd3 := 0, 0
		for i := 0; i < n; i++ {
			if as[i] {
				wantCount++
			}
			if as[i] && bs[i] {
				wantAnd++
			}
			if as[i] && bs[i] && cs[i] {
				wantAnd3++
			}
		}
		if got := a.Count(); got != wantCount {
			t.Errorf("n=%d: Count = %d, want %d", n, got, wantCount)
		}
		if got := a.Any(); got != (wantCount > 0) {
			t.Errorf("n=%d: Any = %v with %d bits set", n, got, wantCount)
		}
		if ab, abc := AndCounts(a, b, c); ab != wantAnd || abc != wantAnd3 {
			t.Errorf("n=%d: AndCounts = %d, %d, want %d, %d", n, ab, abc, wantAnd, wantAnd3)
		}

		and := Make(n)
		and.CopyFrom(a)
		and.AndWith(b)
		or := Make(n)
		or.CopyFrom(a)
		or.OrWith(b)
		for i := 0; i < n; i++ {
			if and.Get(i) != (as[i] && bs[i]) {
				t.Fatalf("n=%d: And bit %d wrong", n, i)
			}
			if or.Get(i) != (as[i] || bs[i]) {
				t.Fatalf("n=%d: Or bit %d wrong", n, i)
			}
		}
	}
}

func TestOnesClearsTail(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := Make(n)
		s.Zero()
		s.Ones(n)
		if got := s.Count(); got != n {
			t.Errorf("Ones(%d).Count = %d, want %d", n, got, n)
		}
		for i := 0; i < n; i++ {
			if !s.Get(i) {
				t.Fatalf("Ones(%d): bit %d clear", n, i)
			}
		}
	}
}

func TestForEachOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bs, s := refBits(300, rng)
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	var want []int
	for i, b := range bs {
		if b {
			want = append(want, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("ForEach[%d] = %d, want %d (order must be ascending)", k, got[k], want[k])
		}
	}
}

func TestB2u(t *testing.T) {
	if B2u(true) != 1 || B2u(false) != 0 {
		t.Fatal("B2u broken")
	}
}

// TestBlitFromMatchesBoolModel checks the aligned fast path and the
// unaligned fallback against the boolean model: the first n bits of src
// land at off, and every bit outside [off, off+n) survives untouched.
func TestBlitFromMatchesBoolModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, total := range []int{1, 64, 65, 130, 300} {
		for _, off := range []int{0, 1, 63, 64, 65, 128, 129} {
			for _, n := range []int{0, 1, 63, 64, 65, 127, 130} {
				if off >= total || off+n > total {
					continue
				}
				for _, from := range []int{0, 1, 37, 64, 100} {
					dsts, dst := refBits(total, rng)
					srcs, src := refBits(from+n, rng)
					want := append([]bool(nil), dsts...)
					copy(want[off:off+n], srcs[from:])

					dst.BlitFrom(src, from, off, n)
					for i := 0; i < total; i++ {
						if dst.Get(i) != want[i] {
							t.Fatalf("total=%d from=%d off=%d n=%d: bit %d = %v, want %v",
								total, from, off, n, i, dst.Get(i), want[i])
						}
					}
				}
			}
		}
	}
}
