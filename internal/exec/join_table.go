package exec

import (
	"math/bits"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// joinTable is the hash table under HashJoin: the build
// rows laid out bucket-contiguous by a counting sort over a power-of-two slot
// array — slot s holds rows[off[s]:off[s+1]], in build order — with one
// 64-bit word per row beside them, so that a probe rejects a candidate
// without dereferencing its row. How the build side is stored is invisible to
// the paper's model of work: no GetNext call, ledger credit, batch boundary
// or output position depends on it (DESIGN §21).
type joinTable struct {
	buildKeys, probeKeys []expr.Expr
	// exact reports the integer fast path: one bare-column key per side and
	// every non-NULL build key a KindInt. A word is then the key itself and
	// word equality is key equality; otherwise a word is the hashKeys hash,
	// checked before keysEqual.
	exact      bool
	bcol, pcol int
	src        []schema.Row // build side less its NULL-keyed rows, build order
	shift      uint         // slot = word*slotMul >> shift (multiply-shift)
	off        []int32      // a build side is memory-resident: far below 2^31 rows
	rows       []schema.Row
	words      []uint64
}

const slotMul = 0x9E3779B97F4A7C15

func slotOf(word uint64, shift uint) uint64 { return word * slotMul >> shift }

// build lays src out over a power of two of slots, at least two per row. It
// takes ownership of src, which it compacts in place: a row with a NULL key
// matches nothing in any join mode and is dropped here.
func (t *joinTable) build(src []schema.Row) {
	words := t.keyWords(src)
	t.src = src[:len(words)]
	t.fill(words, 1<<bits.Len(uint(max(2*len(words), 1)-1)))
}

// fill is the counting sort: count each slot's rows, turn the counts into
// offsets, scatter in build order.
func (t *joinTable) fill(words []uint64, slots int) {
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	// Slot s counts into off[s+2]; after the prefix sum off[s+1] is where
	// slot s starts, and the scatter advances it to where slot s ends.
	off := make([]int32, slots+2)
	t.rows, t.words = make([]schema.Row, len(words)), make([]uint64, len(words))
	for _, w := range words {
		off[slotOf(w, t.shift)+2]++
	}
	for s := 2; s < len(off); s++ {
		off[s] += off[s-1]
	}
	for i, w := range words {
		at := &off[slotOf(w, t.shift)+1]
		t.rows[*at], t.words[*at] = t.src[i], w
		*at++
	}
	t.off = off[:slots+1]
}

// release drops the table's storage.
func (t *joinTable) release() { t.src, t.off, t.rows, t.words = nil, nil, nil, nil }

// keyWords evaluates the build keys, moving the rows whose key is not NULL to
// the front of src, and returns their words; it decides t.exact.
func (t *joinTable) keyWords(src []schema.Row) []uint64 {
	words := make([]uint64, len(src))
	n, rest := 0, src
	bc, bok := t.buildKeys[0].(expr.Col)
	pc, pok := t.probeKeys[0].(expr.Col)
	t.exact = len(t.buildKeys) == 1 && bok && pok
	if t.exact {
		t.bcol, t.pcol = bc.Index, pc.Index
		for i, row := range src {
			v := row[bc.Index]
			if v.Kind() == sqlval.KindInt {
				src[n], words[n] = row, uint64(v.AsInt())
				n++
			} else if !v.IsNull() {
				// A key of another kind: hash everything, the rows kept so
				// far included.
				t.exact = false
				rest = src[:n+copy(src[n:], src[i:])]
				n = 0
				break
			}
		}
		if t.exact {
			return words[:n]
		}
	}
	for _, row := range rest {
		if h, ok := hashKeys(t.buildKeys, row); ok {
			src[n], words[n] = row, h
			n++
		}
	}
	return words[:n]
}

// lookup returns the build rows whose key equals probe's, in build order:
// the bucket itself when every row in it matches, otherwise the matches
// collected in *buf (reused across calls). Either result is valid until the
// next lookup with the same buf. Equality is sqlval.Compare's, and NULL
// equals nothing.
func (t *joinTable) lookup(probe schema.Row, buf *[]schema.Row) []schema.Row {
	var word uint64
	if t.exact {
		switch v := probe[t.pcol]; v.Kind() {
		case sqlval.KindInt:
			word = uint64(v.AsInt())
		case sqlval.KindFloat:
			// Compare sets an integer beside a float as float64(k): below
			// 2^53 that is exact, so only the float's own integer can match.
			f := v.AsFloat()
			if !(f > -(1<<53) && f < 1<<53) {
				return t.scanFloat(f, buf)
			}
			if f != float64(int64(f)) {
				return nil
			}
			word = uint64(int64(f))
		default:
			return nil // NULL, or a kind no integer compares equal to
		}
	} else {
		h, ok := hashKeys(t.probeKeys, probe)
		if !ok {
			return nil
		}
		word = h
	}
	s := slotOf(word, t.shift)
	lo, hi := t.off[s], t.off[s+1]
	rows, words := t.rows[lo:hi], t.words[lo:hi]
	for i := range words {
		if !t.match(probe, word, words[i], rows[i]) {
			out := append((*buf)[:0], rows[:i]...)
			for k := i + 1; k < len(words); k++ {
				if t.match(probe, word, words[k], rows[k]) {
					out = append(out, rows[k])
				}
			}
			*buf = out
			return out
		}
	}
	return rows
}

// probe looks every row of in up and appends the join's output for mode to
// out: the probe row itself for a semi or anti join; otherwise joined(p, m)
// for each match m, and joined(p, pad) for a left outer join's miss. It
// returns how many rows it appended.
func (t *joinTable) probe(mode JoinMode, in []schema.Row, out *Batch, buf *[]schema.Row, pad schema.Row, joined func(probe, build schema.Row) schema.Row) int {
	before := out.Len()
	for _, p := range in {
		found := t.lookup(p, buf)
		switch {
		case mode == SemiJoin || mode == AntiJoin:
			if (len(found) > 0) == (mode == SemiJoin) {
				out.Append(p)
			}
		case mode == LeftOuterJoin && len(found) == 0:
			out.Append(joined(p, pad))
		default:
			for _, m := range found {
				out.Append(joined(p, m))
			}
		}
	}
	return out.Len() - before
}

func (t *joinTable) match(probe schema.Row, word, bword uint64, b schema.Row) bool {
	return word == bword && (t.exact || keysEqual(t.probeKeys, probe, t.buildKeys, b))
}

// scanFloat is the integer table's path for a float probe key at or beyond
// ±2^53 (or NaN), where several integers round to one float64 and so share
// no slot: a scan of the build side in build order.
func (t *joinTable) scanFloat(f float64, buf *[]schema.Row) []schema.Row {
	out := (*buf)[:0]
	for _, row := range t.src {
		if float64(row[t.bcol].AsInt()) == f {
			out = append(out, row)
		}
	}
	*buf = out
	return out
}
