package sqlval

import (
	"encoding/binary"
	"fmt"
	"math"
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

// DecodeValue reads one value from buf, returning it and the remaining
// bytes.
func DecodeValue(buf []byte) (Value, []byte, error) {
	if len(buf) == 0 {
		return Null(), nil, fmt.Errorf("sqlval: empty buffer")
	}
	kind := Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case KindNull:
		return Null(), buf, nil
	case KindInt, KindDate:
		i, n := binary.Varint(buf)
		if n <= 0 {
			return Null(), nil, fmt.Errorf("sqlval: bad varint")
		}
		if kind == KindDate {
			return Date(i), buf[n:], nil
		}
		return Int(i), buf[n:], nil
	case KindBool:
		if len(buf) < 1 {
			return Null(), nil, fmt.Errorf("sqlval: truncated bool")
		}
		return Bool(buf[0] != 0), buf[1:], nil
	case KindFloat:
		if len(buf) < 8 {
			return Null(), nil, fmt.Errorf("sqlval: truncated float")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		return Float(f), buf[8:], nil
	case KindString:
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return Null(), nil, fmt.Errorf("sqlval: truncated string")
		}
		s := string(buf[n : n+int(l)])
		return String(s), buf[n+int(l):], nil
	default:
		return Null(), nil, fmt.Errorf("sqlval: unknown kind tag %d", kind)
	}
}

// SkipValue steps over one encoded value without building it: it returns
// the bytes after the value, having made every check DecodeValue makes (and
// failing with the same error), but allocates nothing and copies no string
// payload. It is how a reader that wants only some of a row's values gets
// past the others.
func SkipValue(buf []byte) ([]byte, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("sqlval: empty buffer")
	}
	kind := Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case KindNull:
		return buf, nil
	case KindInt, KindDate:
		_, n := binary.Varint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("sqlval: bad varint")
		}
		return buf[n:], nil
	case KindBool:
		if len(buf) < 1 {
			return nil, fmt.Errorf("sqlval: truncated bool")
		}
		return buf[1:], nil
	case KindFloat:
		if len(buf) < 8 {
			return nil, fmt.Errorf("sqlval: truncated float")
		}
		return buf[8:], nil
	case KindString:
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return nil, fmt.Errorf("sqlval: truncated string")
		}
		return buf[n+int(l):], nil
	default:
		return nil, fmt.Errorf("sqlval: unknown kind tag %d", kind)
	}
}
