package sqlval

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// AppendBinary serializes the value into buf (kind tag + payload) and
// returns the extended slice. The format is stable and self-delimiting; it
// is what the database snapshot writer uses.
func (v Value) AppendBinary(buf []byte) []byte {
	k := v.Kind()
	buf = append(buf, byte(k))
	switch k {
	case KindNull:
	case KindInt, KindDate:
		buf = binary.AppendVarint(buf, v.i)
	case KindBool:
		buf = append(buf, byte(v.i))
	case KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.AsFloat()))
		buf = append(buf, b[:]...)
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(v.i))
		buf = append(buf, v.str()...)
	}
	return buf
}

// DecodeRow decodes one encoded row — cols values in their AppendBinary
// encodings, back to back — in a single pass. The values at positions keep
// (strictly ascending) go to dst[:len(keep)], or all cols of them to
// dst[:cols] when keep is nil; the others are stepped over without being
// built, an integer's or a date's varint without computing its value. Every
// value is checked the same way whether it is kept or not, so a damaged row
// fails with the same error at the same column whichever values are kept. It
// returns the bytes after the row's cols values; on error, col is the
// position of the value that failed.
//
// A kept string shares buf's bytes, which the caller therefore may not
// overwrite while the value is in use; Detach gives the strings their own.
func DecodeRow(dst []Value, buf []byte, cols int, keep []int) (rest []byte, col int, err error) {
	p, k := 0, 0 // the next byte of buf; values stored in dst so far
	for c := 0; c < cols; c++ {
		if p >= len(buf) {
			return nil, c, fmt.Errorf("sqlval: empty buffer")
		}
		kind := Kind(buf[p])
		p++
		kept := keep == nil || (k < len(keep) && keep[k] == c)
		var v Value
		switch kind {
		case KindNull:
		case KindInt, KindDate:
			if !kept {
				n := varintLen(buf[p:])
				if n <= 0 {
					return nil, c, fmt.Errorf("sqlval: bad varint")
				}
				p += n
				continue
			}
			i, n := binary.Varint(buf[p:])
			if n <= 0 {
				return nil, c, fmt.Errorf("sqlval: bad varint")
			}
			p += n
			v = tagged(kind, i)
		case KindBool:
			if p >= len(buf) {
				return nil, c, fmt.Errorf("sqlval: truncated bool")
			}
			v = Bool(buf[p] != 0)
			p++
		case KindFloat:
			if len(buf)-p < 8 {
				return nil, c, fmt.Errorf("sqlval: truncated float")
			}
			v = tagged(KindFloat, int64(binary.LittleEndian.Uint64(buf[p:])))
			p += 8
		case KindString:
			l, n := binary.Uvarint(buf[p:])
			if n <= 0 || uint64(len(buf)-p-n) < l {
				return nil, c, fmt.Errorf("sqlval: truncated string")
			}
			p += n
			if kept && l > 0 {
				v = Value{p: unsafe.Pointer(&buf[p]), i: int64(l)}
			} else {
				v = String("")
			}
			p += int(l)
		default:
			return nil, c, fmt.Errorf("sqlval: unknown kind tag %d", kind)
		}
		if kept {
			dst[k] = v
			k++
		}
	}
	return buf[p:], cols, nil
}

// varintLen is the n binary.Varint returns for buf — the varint's length, 0
// when buf ends inside it, negative when it overflows 64 bits — without the
// value.
func varintLen(buf []byte) int {
	for i, b := range buf {
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return -(i + 1)
			}
			return i + 1
		}
		if i == binary.MaxVarintLen64-1 {
			return -(i + 1)
		}
	}
	return 0
}

// Detach copies the bytes of every string in vals into one new slab of
// exactly their total size and points the values at it, so that vals share
// no memory with whatever their strings pointed into before: a decoded page,
// a row being cloned. Values of other kinds are left as they are.
func Detach(vals []Value) {
	n := 0
	for _, v := range vals {
		if v.Kind() == KindString {
			n += int(v.i)
		}
	}
	if n == 0 {
		return
	}
	slab := make([]byte, n)
	for j := range vals {
		if v := &vals[j]; v.i > 0 && v.Kind() == KindString {
			copy(slab, v.str())
			v.p = unsafe.Pointer(&slab[0])
			slab = slab[v.i:]
		}
	}
}
