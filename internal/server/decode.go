package server

import (
	"strconv"
	"sync"
)

// Single-pass decoding of the vector-carrying requests (/v1/search,
// /v1/search/batch, /v1/ball, /v1/insert). Their bodies are almost all
// digits — 4096 numbers per query at d=4096 — and encoding/json spends
// more time on them than the engine's tree walk does. decodeFast
// accepts only a canonical subset of JSON and converts every number to
// exactly the float64 (or integer) encoding/json would store. Anything
// outside the subset is declined, and Server.decode hands the same
// bytes to encoding/json, so rejections keep their status and message.
//
// The canonical subset is one object whose keys are the request's
// lowercase json tags, unescaped, each at most once; values are
// RFC 8259 numbers, arrays of numbers ([]float64) or arrays of such
// arrays ([][]float64); integer fields take integer literals that fit
// the field's type; only JSON whitespace may follow the object.

// fastRequest is a request decodeFast can fill. field returns a pointer
// to the field whose json tag is name — a *[]float64, *[][]float64,
// *float64, *int or *int64 — or nil when there is none.
type fastRequest interface {
	field(name []byte) any
}

func (o *queryOptions) field(name []byte) any {
	switch string(name) {
	case "ratio":
		return &o.Ratio
	case "alpha1":
		return &o.Alpha1
	case "budget":
		return &o.Budget
	case "timeout_ms":
		return &o.TimeoutMS
	}
	return nil
}

func (r *searchRequest) field(name []byte) any {
	switch string(name) {
	case "q":
		return &r.Q
	case "k":
		return &r.K
	}
	return r.queryOptions.field(name)
}

func (r *searchBatchRequest) field(name []byte) any {
	switch string(name) {
	case "qs":
		return &r.Qs
	case "k":
		return &r.K
	}
	return r.queryOptions.field(name)
}

func (r *ballRequest) field(name []byte) any {
	switch string(name) {
	case "q":
		return &r.Q
	case "r":
		return &r.R
	}
	return r.queryOptions.field(name)
}

func (r *insertRequest) field(name []byte) any {
	if string(name) == "p" {
		return &r.P
	}
	return nil
}

// decodeFast parses body into dst and reports whether body was in the
// canonical subset. On false, dst may be partly written.
func decodeFast(body []byte, dst fastRequest) bool {
	p := parser{b: body}
	p.space()
	if !p.eat('{') {
		return false
	}
	p.space()
	if p.eat('}') {
		return p.end()
	}
	var seen [8]any // every fast request has at most 6 fields
	nseen := 0
	for {
		key, ok := p.key()
		if !ok {
			return false
		}
		p.space()
		if !p.eat(':') {
			return false
		}
		p.space()
		target := dst.field(key)
		if target == nil {
			return false
		}
		for _, s := range seen[:nseen] {
			if s == target {
				return false
			}
		}
		seen[nseen] = target
		nseen++
		switch t := target.(type) {
		case *[]float64:
			*t, ok = p.vector()
		case *[][]float64:
			*t, ok = p.matrix()
		case *float64:
			*t, ok = p.float()
		case *int:
			var v int64
			v, ok = p.integer(strconv.IntSize)
			*t = int(v)
		case *int64:
			*t, ok = p.integer(64)
		default:
			ok = false
		}
		if !ok {
			return false
		}
		p.space()
		if p.eat(',') {
			p.space()
			continue
		}
		return p.eat('}') && p.end()
	}
}

// parser is a cursor over a request body.
type parser struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *parser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (p *parser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (p *parser) end() bool {
	p.space()
	return p.i == len(p.b)
}

// key reads a string without escapes or control characters and
// returns its bytes.
func (p *parser) key() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// vecScratch holds the buffers vector parses into, so a d-dimensional
// vector costs one exact-size allocation instead of a chain of
// regrowths.
var vecScratch = sync.Pool{New: func() any { return new([]float64) }}

// vector reads [n, n, ...]; an empty array yields an empty, non-nil
// slice, as encoding/json does.
func (p *parser) vector() ([]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	p.space()
	if p.eat(']') {
		return []float64{}, true
	}
	sp := vecScratch.Get().(*[]float64)
	defer vecScratch.Put(sp)
	v := (*sp)[:0]
	for {
		f, ok := p.float()
		if !ok {
			return nil, false
		}
		v = append(v, f)
		p.space()
		if p.eat(']') {
			*sp = v
			return append([]float64(nil), v...), true
		}
		if !p.eat(',') {
			return nil, false
		}
		p.space()
	}
}

// matrix reads [[...], [...], ...].
func (p *parser) matrix() ([][]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	p.space()
	m := [][]float64{}
	if p.eat(']') {
		return m, true
	}
	for {
		v, ok := p.vector()
		if !ok {
			return nil, false
		}
		m = append(m, v)
		p.space()
		if p.eat(']') {
			return m, true
		}
		if !p.eat(',') {
			return nil, false
		}
		p.space()
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// integer reads an integer literal -?(0|[1-9][0-9]*) that fits in
// bitSize bits. A fraction or exponent is left unread, so the caller's
// next delimiter check declines it: encoding/json rejects those for
// integer fields.
func (p *parser) integer(bitSize int) (int64, bool) {
	start := p.i
	p.eat('-')
	switch {
	case p.eat('0'):
	case p.i < len(p.b) && isDigit(p.b[p.i]):
		for p.i < len(p.b) && isDigit(p.b[p.i]) {
			p.i++
		}
	default:
		return 0, false
	}
	v, err := strconv.ParseInt(string(p.b[start:p.i]), 10, bitSize)
	return v, err == nil
}

// maxMantDigits is the most significant decimal digits a uint64
// mantissa holds exactly.
const maxMantDigits = 19

// float reads one RFC 8259 number and returns the float64
// strconv.ParseFloat gives for it. The digits are gathered into a
// uint64 mantissa and a decimal exponent in one pass and converted by
// eiselLemire64; strconv.ParseFloat decides the rare rest (more than
// 19 significant digits, an exponent outside the table, the half-way
// ambiguity, subnormal or overflowing results). Out-of-range numbers,
// which encoding/json rejects, are declined.
func (p *parser) float() (float64, bool) {
	b, i := p.b, p.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp := 0, 0 // mantissa digits; value = man·10^exp
	trunc := false  // a nonzero digit did not fit in man
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				man = man*10 + uint64(c)
				nd++
			} else {
				exp++
				trunc = trunc || c != 0
			}
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 { // leading zeros are not significant
			for i < len(b) && b[i] == '0' {
				i++
			}
			exp -= i - frac
		}
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				man = man*10 + uint64(c)
				nd++
				exp--
			} else {
				trunc = trunc || c != 0
			}
		}
		if i == frac {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return 0, false
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1e5 { // far outside the table either way
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	p.i = i
	if !trunc {
		if f, ok := eiselLemire64(man, exp, neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, err == nil
}
