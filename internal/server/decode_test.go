package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// fastRequests makes a fresh value of each request type decodeFast
// serves, keyed by its route.
var fastRequests = []struct {
	route string
	new   func() fastRequest
}{
	{"/v1/search", func() fastRequest { return new(searchRequest) }},
	{"/v1/search/batch", func() fastRequest { return new(searchBatchRequest) }},
	{"/v1/ball", func() fastRequest { return new(ballRequest) }},
	{"/v1/insert", func() fastRequest { return new(insertRequest) }},
}

// sameBits reports whether a and b hold the same value with floats
// compared bit for bit (so -0 differs from 0) and nil slices differing
// from empty ones.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return sameBits(a.Elem(), b.Elem())
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unexpected kind " + a.Kind().String())
}

// checkDecodeAgreement asserts, for every fast request type, that a
// body decodeFast accepts is accepted by encoding/json too, with the
// same value. It returns how many types accepted the body.
func checkDecodeAgreement(t *testing.T, body []byte) int {
	t.Helper()
	accepted := 0
	for _, fr := range fastRequests {
		fast := fr.new()
		if !decodeFast(body, fast) {
			continue
		}
		accepted++
		ref := fr.new()
		if err := decodeJSON(body, ref); err != nil {
			t.Fatalf("%s: decodeFast accepted %q, encoding/json rejects it: %v", fr.route, body, err)
		}
		if !sameBits(reflect.ValueOf(fast), reflect.ValueOf(ref)) {
			t.Fatalf("%s: body %q decodes to %+v, encoding/json gives %+v", fr.route, body, fast, ref)
		}
	}
	return accepted
}

// decodeSeeds are bodies built the way perfbench and loadgen build
// them, plus edge cases on both sides of the canonical subset.
func decodeSeeds() []string {
	rng := rand.New(rand.NewSource(3))
	vec := func(d int) []float64 {
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		return v
	}
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	encode := func(v any) string { // json.Encoder, as loadgen sends: trailing newline
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			panic(err)
		}
		return buf.String()
	}
	q := marshal(vec(8))
	return []string{
		marshal(map[string]any{"q": vec(8), "k": 10, "ratio": 1.5}),
		marshal(map[string]any{"p": vec(8)}),
		encode(map[string]any{"q": vec(8), "k": 3}),
		encode(map[string]any{"p": vec(8)}),
		`{"qs":[` + q + `,` + q + `],"k":4,"budget":50,"alpha1":0.3,"timeout_ms":2000}`,
		`{"q":` + q + `,"r":2.5,"ratio":2}`,
		"\t{ \"q\" : [ 1 , 2 ,3,4,5,6,7,8 ] ,\n\"k\":1 }\r\n",
		`{"q":[1e5,-0,0.5E-3,1E+2,-1.25e-7,0e-999,-0.0,5e0],"k":2}`,
		`{"q":[2.2250738585072011e-308,4.9e-324,1.7976931348623157e308,9007199254740993,1.00000000000000000000001,0.1,1e-400,123456789012345678901234567890],"k":1}`,
		`{"q":[1e400,0,0,0,0,0,0,0],"k":1}`,
		`{"q":[01,0,0,0,0,0,0,0],"k":1}`,
		`{"q":[.5,0,0,0,0,0,0,0],"k":1}`,
		`{"q":[1.,0,0,0,0,0,0,0],"k":1}`,
		`{"q":[+1,0,0,0,0,0,0,0],"k":1}`,
		`{"Q":` + q + `,"k":1}`,
		`{"\u0071":` + q + `,"k":1}`,
		`{"q":` + q + `,"q":` + q + `,"k":1}`,
		`{"q":null,"k":1}`,
		`{"q":[1,null,0,0,0,0,0,0],"k":1}`,
		`null`,
		`{}`,
		`{"q":[],"k":1}`,
		`{"qs":[],"k":1}`,
		`{"qs":[[]],"k":1}`,
		`{"q":` + q + `,"k":4611686018427387904}`,
		`{"q":` + q + `,"k":9223372036854775807}`,
		`{"q":` + q + `,"k":9223372036854775808}`,
		`{"q":` + q + `,"k":1.0}`,
		`{"q":` + q + `,"k":1e2}`,
		`{"q":` + q + `,"k":-0}`,
		`{"q":` + q + `,"k":5}]`,
		`{"q":` + q + `,"k":5}}`,
		`{"q":` + q + `,"k":5} {"k":1}`,
		`{"q":` + q + `,"k":5,}`,
		`{"q":` + q + `,"k":"5"}`,
		`{"p":[1,2,3]`,
	}
}

// TestDecodeFastAgreesWithEncodingJSON runs the fuzz seeds: every body
// decodeFast accepts decodes identically under encoding/json, and the
// canonical bodies senders actually produce are accepted.
func TestDecodeFastAgreesWithEncodingJSON(t *testing.T) {
	seeds := decodeSeeds()
	for _, s := range seeds {
		checkDecodeAgreement(t, []byte(s))
	}
	for _, s := range seeds[:9] {
		if checkDecodeAgreement(t, []byte(s)) == 0 {
			t.Errorf("canonical body declined by every request type: %s", s)
		}
	}
	for _, s := range []string{
		`{"Q":[1],"k":1}`, `{"\u0071":[1],"k":1}`, `{"q":[1],"q":[2],"k":1}`,
		`{"q":null}`, `{"q":[1e400]}`, `{"q":[01]}`, `{"k":1.0}`, `{"k":9223372036854775808}`,
		`{"q":[1]}]`, `{"q":[1]}}`, `null`,
	} {
		if checkDecodeAgreement(t, []byte(s)) != 0 {
			t.Errorf("non-canonical body accepted: %s", s)
		}
	}
}

// TestParseFloatMatchesStrconv: the number parser returns exactly the
// float64 strconv.ParseFloat does, on random bit patterns in the
// formats float encoders emit and on digit strings longer than a
// uint64 mantissa holds.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(s string) {
		t.Helper()
		want, err := strconv.ParseFloat(s, 64)
		p := parser{b: []byte(s)}
		got, ok := p.float()
		if err != nil {
			if ok {
				t.Fatalf("%q: parser gave %v, strconv rejects it: %v", s, got, err)
			}
			return
		}
		if !ok || p.i != len(s) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: parser gave %v (ok %v, read %d of %d bytes), strconv %v",
				s, got, ok, p.i, len(s), want)
		}
	}
	n := 100000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(strconv.FormatFloat(f, 'g', -1, 64))
		check(strconv.FormatFloat(f, 'e', 20, 64))
		check(strconv.FormatFloat(f, 'f', -1, 64))
		check(strconv.FormatFloat(f, 'g', 17, 64))
		// Short decimals near the common magnitudes of vector data.
		check(strconv.FormatFloat(rng.NormFloat64(), 'g', 1+rng.Intn(17), 64))
	}
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	for i := 0; i < n/4; i++ {
		s := fmt.Sprintf("%d%s.%se%d", 1+rng.Intn(9), digits(rng.Intn(30)), digits(1+rng.Intn(30)), rng.Intn(700)-350)
		check(s)
		check("-0.000" + digits(20+rng.Intn(10)))
	}
}

// TestPow10Table: every entry is the top 128 bits of 10^e, rounded
// down, and 217706·e>>16 — the binary exponent eiselLemire64 derives
// from e — is ⌊log2 10^e⌋ over the whole table.
func TestPow10Table(t *testing.T) {
	for e := pow10MinExp; e <= pow10MaxExp; e++ {
		x := new(big.Float).SetPrec(2048).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil))
		if e < 0 {
			x.Quo(new(big.Float).SetPrec(2048).SetInt64(1), x)
		}
		exp2 := x.MantExp(nil) - 1 // x = m·2^exp2, m in [1,2)
		if got := 217706 * e >> 16; got != exp2 {
			t.Fatalf("e=%d: 217706·e>>16 = %d, ⌊log2 10^e⌋ = %d", e, got, exp2)
		}
		want, _ := new(big.Float).SetMantExp(x, 127-exp2).Int(nil) // truncates
		entry := pow10Table[e-pow10MinExp]
		got := new(big.Int).Lsh(new(big.Int).SetUint64(entry[1]), 64)
		got.Or(got, new(big.Int).SetUint64(entry[0]))
		if got.Cmp(want) != 0 {
			t.Fatalf("e=%d: table %x, want %x", e, got, want)
		}
	}
}

// FuzzDecodeRequest checks the single-pass parser against encoding/json
// and the handlers against 5xx. For each of the four vector-carrying
// request types, a body decodeFast accepts must be one encoding/json
// (with the server's strict settings) accepts too, with a bitwise-equal
// result. Every body is then posted to the four routes of a 4-shard
// server: none may answer 5xx, apart from the documented 504 of a
// request whose own timeout_ms expired.
//
// Run with: go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s ./internal/server
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	eng, err := core.BuildEngine(testData(200, 8, 42), core.Config{Shards: 4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Engine: eng, Logger: testLogger()})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAgreement(t, body)
		for _, fr := range fastRequests {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", fr.route, bytes.NewReader(body)))
			if rec.Code < 500 {
				continue
			}
			var opts struct {
				TimeoutMS int64 `json:"timeout_ms"`
			}
			_ = json.Unmarshal(body, &opts)
			if rec.Code != 504 || opts.TimeoutMS <= 0 {
				t.Fatalf("%s answered %d to %q: %s", fr.route, rec.Code, body, rec.Body)
			}
		}
	})
}

// BenchmarkDecodeRequest is the per-layer benchmark of request
// decoding: bodies encoded as perfbench encodes them (json.Marshal of a
// map, vectors from the benchmark's data generators), parsed by the
// server's decoder ("fast") and by encoding/json alone ("json", the
// path a body the parser declines takes).
func BenchmarkDecodeRequest(b *testing.B) {
	lowdim, err := dataset.Generate(dataset.Spec{Name: "lowdim", N: 200, D: 64, Clusters: 20, SubspaceDim: 8, RCTarget: 2.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := dataset.SpecByName("Trevi", 0.1, 200)
	if err != nil {
		b.Fatal(err)
	}
	spec.Seed = 1
	trevi, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	marshal := func(v any) []byte {
		body, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	for _, bc := range []struct {
		name string
		body []byte
		new  func() fastRequest
	}{
		{"search-d64", marshal(map[string]any{"q": lowdim.Queries(1, 2)[0], "k": 50, "ratio": 1.5}), func() fastRequest { return new(searchRequest) }},
		{"search-d4096", marshal(map[string]any{"q": trevi.Queries(1, 2)[0], "k": 10, "ratio": 1.5}), func() fastRequest { return new(searchRequest) }},
		{"insert-d4096", marshal(map[string]any{"p": trevi.Queries(1, 3)[0]}), func() fastRequest { return new(insertRequest) }},
	} {
		for _, path := range []struct {
			name   string
			decode func([]byte, any) error
		}{{"fast", decodeBody}, {"json", decodeJSON}} {
			b.Run(bc.name+"/"+path.name, func(b *testing.B) {
				b.SetBytes(int64(len(bc.body)))
				b.ReportAllocs()
				for b.Loop() {
					if err := path.decode(bc.body, bc.new()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
