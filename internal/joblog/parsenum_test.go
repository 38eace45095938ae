package joblog

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// checkParseNumeric holds one string to the parser's contract: accepted,
// it is strconv's float64 to the bit and strconv raised no error;
// either way ParseValue answers as strconv.ParseFloat behind ParseValue's
// wrapping always has. It reports whether the fast path took s.
func checkParseNumeric(t testing.TB, s string) bool {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 64)
	x, ok := parseNumeric(s)
	if ok && (wantErr != nil || math.Float64bits(x) != math.Float64bits(want)) {
		t.Fatalf("parseNumeric(%q) = %v (%#x), strconv %v (%#x), error %v",
			s, x, math.Float64bits(x), want, math.Float64bits(want), wantErr)
	}
	if xb, okb := parseNumeric([]byte(s)); okb != ok || math.Float64bits(xb) != math.Float64bits(x) {
		t.Fatalf("parseNumeric(%q) = %v, %v as a string and %v, %v as bytes", s, x, ok, xb, okb)
	}
	v, err := ParseValue(Numeric, s)
	switch {
	case s == "":
		if err != nil || v != None() {
			t.Fatalf("ParseValue of the empty cell = %#v, %v", v, err)
		}
	case wantErr != nil:
		if msg := fmt.Sprintf("joblog: parse numeric %q: %v", s, wantErr); err == nil || err.Error() != msg || v != None() {
			t.Fatalf("ParseValue(%q) = %#v, %v; want the error %s", s, v, err, msg)
		}
	default:
		if err != nil || v.Kind != Numeric || v.Str != "" || math.Float64bits(v.Num) != math.Float64bits(want) {
			t.Fatalf("ParseValue(%q) = %#v, %v; want %v", s, v, err, want)
		}
	}
	return ok
}

func FuzzParseNumeric(f *testing.F) {
	for _, seed := range []string{
		"", "0", "-0", "+0", "0.0", "-0e5", "1", "-1.5", "00012.500", "1.", ".5", "1.e2",
		"9007199254740991", "9007199254740992", "9007199254740993", // 2^53 - 1, 2^53, 2^53 + 1
		"9007199254740993e1", "0.9007199254740993",
		"1234567890123456789", "12345678901234567890", // 19 and 20 digits
		"0.0000000000000000001234567890123456789", "1234567890123456789000",
		"9999999999999999999", "18446744073709551615", "18446744073709551616",
		"1e22", "1e23", "8.5e22", "1e-22", "1e-23", "123456789e-30", "1e64", "1e65", "1e-64", "1e-65",
		// Ties at the 53rd bit: round half to even, and just off the tie.
		"9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5",
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203126",
		"0.30000000000000004", "0.1", "123456.789e3",
		"4.9e-324", "2.2250738585072014e-308", "2.2250738585072011e-308", "1.7976931348623157e308", "1.8e308",
		"1e", "1e+", "1e-", "e5", ".", "+", "-", "+.", "1_0", "1e1_0", "0x1p-2", "0X10", "1e5x", " 1", "1 ", "1,2",
		"Inf", "-inf", "+Infinity", "NaN", "nan", "1E5", "1e+05", "1e-05", "1e99999", "0e99999999999999999999",
		"1..2", "1.2.3", "--1", "+-1", "１２", "1\x00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) { checkParseNumeric(t, s) })
}

// TestParseNumericTable recomputes every power-of-ten entry with
// math/big: the top 128 bits of 10^q, rounded down, and the binary
// exponent the multiplier-and-shift stands for.
func TestParseNumericTable(t *testing.T) {
	one := big.NewInt(1)
	for q := pow10Min; q <= pow10Max; q++ {
		abs := q
		if q < 0 {
			abs = -q
		}
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs)), nil)
		var m *big.Int
		floorLog2 := p.BitLen() - 1
		if q >= 0 {
			m = new(big.Int).Lsh(p, 256)
			m.Rsh(m, uint(m.BitLen()-128))
		} else {
			// 1/p lies strictly between two powers of two.
			floorLog2 = -p.BitLen()
			m = new(big.Int).Div(new(big.Int).Lsh(one, uint(127+p.BitLen())), p)
		}
		if m.BitLen() != 128 {
			t.Fatalf("1e%d: the reference mantissa has %d bits", q, m.BitLen())
		}
		got := new(big.Int).Lsh(new(big.Int).SetUint64(pow10Mantissa[q-pow10Min][0]), 64)
		got.Or(got, new(big.Int).SetUint64(pow10Mantissa[q-pow10Min][1]))
		if got.Cmp(m) != 0 {
			t.Errorf("1e%d: table %#x, math/big %#x", q, got, m)
		}
		if e := 217706 * q >> 16; e != floorLog2 {
			t.Errorf("1e%d: 217706*q>>16 = %d, floor(log2) = %d", q, e, floorLog2)
		}
	}
	for i, x := range exactPow10 {
		if want, _ := strconv.ParseFloat(fmt.Sprintf("1e%d", i), 64); x != want {
			t.Errorf("exactPow10[%d] = %v", i, x)
		}
		if f, acc := new(big.Float).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(i)), nil)).Float64(); f != x || acc != big.Exact {
			t.Errorf("1e%d is not exactly %v", i, x)
		}
	}
}

// TestParseNumericRoundTrip formats over a million seeded float64s the
// ways a log writer might — shortest 'g', 'f' and 'e' — and holds every
// string to the contract. Half the values are raw bit patterns, which
// mostly land outside the table and must be declined correctly; half
// have the exponents logs do, which the fast path must take.
func TestParseNumericRoundTrip(t *testing.T) {
	n := 180000
	if testing.Short() {
		n = 20000
	}
	rng := rand.New(rand.NewSource(24))
	var tried, took [2]int
	for i := 0; i < n; i++ {
		raw := math.Float64frombits(rng.Uint64())
		// Sign and mantissa at random, exponent within 2^±60.
		near := math.Float64frombits(rng.Uint64()&^(0x7FF<<52) | uint64(1023-60+rng.Intn(121))<<52)
		for k, x := range [2]float64{raw, near} {
			for _, format := range []byte{'g', 'f', 'e'} {
				tried[k]++
				if checkParseNumeric(t, strconv.FormatFloat(x, format, -1, 64)) {
					took[k]++
				}
			}
		}
	}
	t.Logf("fast path took %d of %d strings of raw bit patterns, %d of %d of log-sized values", took[0], tried[0], took[1], tried[1])
	// About one in a hundred is an exact binary fraction of 17 digits,
	// which Eisel–Lemire sees as a possible tie and leaves to strconv.
	if took[1] < tried[1]*98/100 {
		t.Errorf("fast path took %d of %d strings of log-sized values, want at least 98%%", took[1], tried[1])
	}

	// Fixed-precision renderings are not shortest: ties and near-ties.
	for i := 0; i < n/10; i++ {
		x := math.Float64frombits(rng.Uint64()&^(0x7FF<<52) | uint64(1023-60+rng.Intn(121))<<52)
		for prec := 15; prec <= 18; prec++ {
			checkParseNumeric(t, strconv.FormatFloat(x, 'e', prec, 64))
		}
		// The midpoint between x and its successor, in full.
		mid := new(big.Float).SetPrec(200).SetFloat64(x)
		mid.Add(mid, new(big.Float).SetPrec(200).SetFloat64(math.Nextafter(x, math.Inf(1))))
		mid.Quo(mid, big.NewFloat(2))
		checkParseNumeric(t, mid.Text('f', -1))
		checkParseNumeric(t, mid.Text('e', 18))
	}
}
