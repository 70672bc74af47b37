package monitor

import (
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"

	"hades/internal/vtime"
)

// A kept record's detail is stored typed and rendered only when read.
// Its bytes in the chunk's text are empty for an empty detail;
// otherwise they open with the uvarint index of a form in the log's
// table — a format and the types of the arguments one call site passes
// — and hold each argument after it:
//
//   - signed integers, vtime.Duration and vtime.Time as zigzag varints;
//   - unsigned integers as uvarints;
//   - float64 as its 8 bytes, little-endian;
//   - a string as the uvarint of twice its length and its bytes or, when
//     the text already holds the bytes before the detail and that is
//     shorter, the uvarint of twice its length plus one and how far back
//     from the detail's start they begin.
//
// Form 0 is the literal form: the rendered bytes follow as they are. A
// detail with no arguments, one handed to Record ready-made, and one
// with an argument outside the set above (a slice, a nil, any other
// type) are stored so, rendered at once through AppendDetail.
//
// Reading rebuilds each argument with the dynamic type it was passed
// with and renders the form's format through AppendDetail, so a reader
// gets the bytes an eager render would have given, bad-verb notes
// included.

// Argument codes: the types a form records, one byte each.
const (
	argInt byte = iota + 1
	argInt8
	argInt16
	argInt32
	argInt64
	argUint
	argUint8
	argUint16
	argUint32
	argUint64
	argUintptr
	argFloat64
	argDuration
	argTime
	argString
)

const (
	literal   = 0              // the form index of a detail stored rendered
	maxArgs   = 32             // a detail with more arguments is stored rendered
	maxForms  = 1 << 12        // past this many forms a new one is stored rendered
	formSlots = 256            // formTable.slot entries
	seenSlots = 256            // Log.seen entries
	longSubj  = math.MaxUint16 // the subjLen of a subject stored behind its length
)

// form is one call site's detail: its format and the code of each
// argument it passes.
type form struct {
	format string
	codes  string
}

// formTable is a log's forms, list[0] the literal form. slot finds a
// form by its format's address, checked before use; index finds it by
// its codes, a 0xff and its format when slot misses.
type formTable struct {
	list  []form
	slot  [formSlots]uint32
	index map[string]uint32
	key   []byte // scratch for index lookups
}

// of returns the index of the form of format and codes, adding the form
// if it is new, or literal if the table is full.
func (t *formTable) of(format string, codes []byte) uint32 {
	s := &t.slot[uint8(uint64(uintptr(unsafe.Pointer(unsafe.StringData(format))))*0x9E3779B97F4A7C15>>56)]
	if *s != literal {
		if f := &t.list[*s]; f.format == format && f.codes == string(codes) {
			return *s
		}
	}
	t.key = append(append(append(t.key[:0], codes...), 0xff), format...)
	i, ok := t.index[string(t.key)]
	if !ok {
		if t.list == nil {
			t.list, t.index = []form{{}}, map[string]uint32{}
		}
		if len(t.list) == maxForms {
			return literal
		}
		i = uint32(len(t.list))
		t.list = append(t.list, form{format: format, codes: string(codes)})
		t.index[string(t.key)] = i
	}
	*s = i
	return i
}

// span is where a string lies in the open chunk's text.
type span struct{ off, n uint32 }

// slotOf returns s's slot in the subject cache: a hash of the address
// and the length of its bytes. A record site passes the same string
// for the same subject, mostly, and the address costs nothing to read;
// find compares the bytes either way.
func slotOf(s string) uint8 {
	return uint8((uint64(uintptr(unsafe.Pointer(unsafe.StringData(s)))) ^ uint64(len(s))) * 0x9E3779B97F4A7C15 >> 56)
}

// find returns s's slot in the subject cache and whether it holds
// bytes of text equal to s.
func (l *Log) find(text []byte, s string) (*span, bool) {
	e := &l.seen[slotOf(s)]
	return e, int(e.n) == len(s) && int(e.off)+len(s) <= len(text) && string(text[e.off:int(e.off)+len(s)]) == s
}

// detail appends to b, the open chunk's text, the detail format
// rendered with args would give (see AppendDetail), stored typed where
// it can be.
func (l *Log) detail(b []byte, format string, args []any) []byte {
	switch {
	case len(args) == 0 && format == "":
		return b // an empty detail takes no bytes
	case len(args) == 0:
		return append(append(b, literal), format...)
	case len(args) > maxArgs:
		return appendLiteral(b, format, args)
	}
	d := len(b)
	var codes [maxArgs]byte
	// The form is known only once the arguments' types are: one byte is
	// kept for its index, enough below 0x80; a form past that stores the
	// arguments again behind its longer index.
	b, ok := l.appendArgs(append(b, 0), args, &codes, d)
	f := uint32(literal)
	if ok {
		f = l.forms.of(format, codes[:len(args)])
	}
	switch {
	case f == literal:
		return appendLiteral(b[:d], format, args)
	case f < 0x80:
		b[d] = byte(f)
		return b
	}
	b, _ = l.appendArgs(binary.AppendUvarint(b[:d], uint64(f)), args, &codes, d)
	return b
}

// appendLiteral appends a detail stored rendered: the literal form's
// index and the rendered bytes.
func appendLiteral(b []byte, format string, args []any) []byte {
	return AppendDetail(append(b, literal), format, args)
}

// appendArgs appends args as the detail starting at d stores them,
// with their codes, and reports whether every one is of the typed set;
// it stops at the first that is not.
func (l *Log) appendArgs(b []byte, args []any, codes *[maxArgs]byte, d int) ([]byte, bool) {
	for i, a := range args {
		switch x := a.(type) {
		case int:
			codes[i], b = argInt, appendZigzag(b, int64(x))
		case int8:
			codes[i], b = argInt8, appendZigzag(b, int64(x))
		case int16:
			codes[i], b = argInt16, appendZigzag(b, int64(x))
		case int32:
			codes[i], b = argInt32, appendZigzag(b, int64(x))
		case int64:
			codes[i], b = argInt64, appendZigzag(b, x)
		case uint:
			codes[i], b = argUint, binary.AppendUvarint(b, uint64(x))
		case uint8:
			codes[i], b = argUint8, binary.AppendUvarint(b, uint64(x))
		case uint16:
			codes[i], b = argUint16, binary.AppendUvarint(b, uint64(x))
		case uint32:
			codes[i], b = argUint32, binary.AppendUvarint(b, uint64(x))
		case uint64:
			codes[i], b = argUint64, binary.AppendUvarint(b, x)
		case uintptr:
			codes[i], b = argUintptr, binary.AppendUvarint(b, uint64(x))
		case float64:
			codes[i], b = argFloat64, binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		case vtime.Duration:
			codes[i], b = argDuration, appendZigzag(b, int64(x))
		case vtime.Time:
			codes[i], b = argTime, appendZigzag(b, int64(x))
		case string:
			codes[i], b = argString, l.appendString(b, x, d)
		default:
			return b, false
		}
	}
	return b, true
}

// appendString appends string argument s of the detail starting at d:
// a reference to bytes the text holds before d when that is shorter,
// else its length and bytes, which the subject cache then holds.
func (l *Log) appendString(b []byte, s string, d int) []byte {
	n := uint64(len(s)) << 1
	if s == "" {
		return append(b, 0)
	}
	e, ok := l.find(b[:d], s)
	if back := uint64(d) - uint64(e.off); ok && uvarintLen(back) < len(s) {
		return binary.AppendUvarint(binary.AppendUvarint(b, n|1), back)
	}
	b = binary.AppendUvarint(b, n)
	if !ok {
		*e = span{off: uint32(len(b)), n: uint32(len(s))}
	}
	return append(b, s...)
}

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// uvarintLen returns how many bytes the uvarint of x takes.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// appendDetail appends the detail stored in text from from to its end,
// rendered.
func (rd *reader) appendDetail(b, text []byte, from int) []byte {
	f, p := binary.Uvarint(text[from:])
	p += from
	if f == literal {
		return append(b, text[p:]...)
	}
	fm := &rd.l.forms.list[f]
	args := rd.args[:0]
	for i := range len(fm.codes) {
		var a any
		switch code := fm.codes[i]; code {
		case argString:
			v, k := binary.Uvarint(text[p:])
			p += k
			at, n := p, int(v>>1)
			if v&1 == 0 {
				p += n
			} else {
				back, k := binary.Uvarint(text[p:])
				p += k
				at = from - int(back)
			}
			a = view(text, at, at+n)
		case argFloat64:
			a = math.Float64frombits(binary.LittleEndian.Uint64(text[p:]))
			p += 8
		default:
			v, k := binary.Uvarint(text[p:])
			p += k
			a = unbox(code, v)
		}
		args = append(args, a)
	}
	rd.args = args
	return AppendDetail(b, fm.format, args)
}

// unbox rebuilds an integer argument stored as v with the type its
// code records.
func unbox(code byte, v uint64) any {
	s := int64(v>>1) ^ -int64(v&1)
	switch code {
	case argInt:
		return int(s)
	case argInt8:
		return int8(s)
	case argInt16:
		return int16(s)
	case argInt32:
		return int32(s)
	case argInt64:
		return s
	case argUint:
		return uint(v)
	case argUint8:
		return uint8(v)
	case argUint16:
		return uint16(v)
	case argUint32:
		return uint32(v)
	case argUint64:
		return v
	case argUintptr:
		return uintptr(v)
	case argDuration:
		return vtime.Duration(s)
	}
	return vtime.Time(s)
}
