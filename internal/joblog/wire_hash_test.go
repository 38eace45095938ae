package joblog

import (
	"math"
	"strings"
	"testing"
)

// TestHashSliceInjective pins the canonical encoding behind the content
// address: equal content hashes equal, and the length-prefixing keeps
// adversarially similar inputs — strings shuffled across the id/value
// boundary, strings that concatenate identically — from aliasing.
func TestHashSliceInjective(t *testing.T) {
	schema := NewSchema([]Field{
		{Name: "a", Kind: Nominal},
		{Name: "b", Kind: Numeric},
	})
	log := NewLog(schema)
	log.MustAppend(&Record{ID: "r1", Values: []Value{Str("xy"), Num(1)}})
	log.MustAppend(&Record{ID: "r2", Values: []Value{None(), Num(2)}})

	base := HashSlice(log.Wire())
	if base != HashSlice(log.Wire()) {
		t.Fatal("equal content produced different hashes")
	}
	if len(base) != 64 {
		t.Fatalf("hash %q is not hex sha-256", base)
	}

	cases := map[string]string{}
	add := func(name, h string) {
		if other, dup := cases[h]; dup {
			t.Errorf("%s aliases %s: %s", name, other, h)
		}
		cases[h] = name
	}
	add("base", base)

	// Same concatenated bytes, split differently between ID and value.
	ws := log.Wire()
	ws.Records[0].ID, ws.Records[0].Values[0].Str = "r1x", "y"
	add("id/value split", HashSlice(ws))

	w := log.Wire()
	w.Records[0].Values[1].Num = 3
	add("value changed", HashSlice(w))

	w2 := log.Wire()
	w2.Records[0].ID = "r1x"
	add("id changed", HashSlice(w2))

	w3 := log.Wire()
	w3.Fields[0].Name = "aa"
	add("field renamed", HashSlice(w3))

	w4 := log.Wire()
	w4.Records[0].Values[0].Str = "x" + strings.Repeat("y", 1)
	if h := HashSlice(w4); h != base {
		t.Errorf("identical content after rebuild hashed differently")
	}

	// Missing vs empty nominal: same Str payload, different kind.
	w5 := log.Wire()
	w5.Records[1].Values[0].Kind = Nominal.String()
	add("missing→nominal", HashSlice(w5))
}

// TestHashSlicePinned pins the content address itself: the digest of a
// fixed slice (a missing cell, a NaN, a non-ASCII nominal) is a literal
// taken from the commit before HashSlice fed SHA-256 from a reused
// buffer. Workers resolve slice references by this value, so an encoding change
// must show up here and come with a shard.Version bump.
func TestHashSlicePinned(t *testing.T) {
	schema := NewSchema([]Field{
		{Name: "site", Kind: Nominal},
		{Name: "secs", Kind: Numeric},
	})
	recs := []*Record{
		{ID: "job-1", Values: []Value{None(), Num(1.5)}},
		{ID: "job-2", Values: []Value{Str("west"), Num(math.NaN())}},
		{ID: "jöb-3", Values: []Value{Str("zürich-北"), Num(math.Copysign(0, -1))}},
	}
	const want = "82b99463305ef1d55492f5c68894ee2cd7721add9f1eed08558e8beedf415554"
	if got := HashSlice(WireSlice(schema, recs)); got != want {
		t.Errorf("HashSlice = %s, want %s", got, want)
	}
}
