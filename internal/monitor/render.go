package monitor

import (
	"reflect"
	"strconv"
	"unicode/utf8"

	"hades/internal/vtime"
)

// AppendDetail appends to b the bytes fmt.Sprintf(format, args...)
// would produce, for the closed set of argument types the record sites
// pass:
//
//   - unnamed integers under %d and %v, float64 under %g and %v,
//     strings under %s, %v and %q;
//   - vtime.Duration and vtime.Time under %s and %v (their String form)
//     and %d;
//   - []int, []string and [][]int, element by element under the verb,
//     as fmt prints a slice;
//   - %% for a literal percent sign.
//
// It never hands an argument to fmt, and it calls no method on one —
// either would make the arguments escape, and every record site would
// then box its arguments on the heap even when the log refuses the
// event. A site with a fmt.Stringer or an error calls String or Error
// itself. Flags, widths and precisions are not parsed. Anything outside
// the set renders a visible marker and never panics: a known type under
// a verb it does not take prints fmt's own "%!verb(type=value)", an
// unknown type "%!verb(type)", and missing or extra arguments print
// fmt's MISSING and EXTRA notes. A format with no arguments is appended
// as it stands.
func AppendDetail(b []byte, format string, args []any) []byte {
	if len(args) == 0 {
		return append(b, format...)
	}
	next := 0
	for i := 0; i < len(format); {
		if format[i] != '%' {
			j := i + 1
			for j < len(format) && format[j] != '%' {
				j++
			}
			b = append(b, format[i:j]...)
			i = j
			continue
		}
		if i+1 == len(format) {
			b = append(b, "%!(NOVERB)"...)
			break
		}
		verb, size := utf8.DecodeRuneInString(format[i+1:])
		i += 1 + size
		switch {
		case verb == '%':
			b = append(b, '%')
		case next == len(args):
			b = append(utf8.AppendRune(append(b, "%!"...), verb), "(MISSING)"...)
		default:
			b = appendArg(b, verb, args[next])
			next++
		}
	}
	if next < len(args) {
		b = append(b, "%!(EXTRA "...)
		for k, a := range args[next:] {
			if k > 0 {
				b = append(b, ", "...)
			}
			if a == nil {
				b = append(b, "<nil>"...)
				continue
			}
			b = appendArg(append(append(b, reflect.TypeOf(a).String()...), '='), 'v', a)
		}
		b = append(b, ')')
	}
	return b
}

// appendArg appends one argument under one verb. Nothing it calls
// calls it back: a recursive cycle makes the escape analysis move the
// arguments to the heap.
func appendArg(b []byte, verb rune, a any) []byte {
	switch x := a.(type) {
	case nil:
		if verb == 'v' {
			return append(b, "<nil>"...)
		}
		return append(utf8.AppendRune(append(b, "%!"...), verb), "(<nil>)"...)
	case string:
		return appendString(b, verb, x, a)
	case int:
		return appendInt(b, verb, int64(x), a)
	case int8:
		return appendInt(b, verb, int64(x), a)
	case int16:
		return appendInt(b, verb, int64(x), a)
	case int32:
		return appendInt(b, verb, int64(x), a)
	case int64:
		return appendInt(b, verb, x, a)
	case uint:
		return appendUint(b, verb, uint64(x), a)
	case uint8:
		return appendUint(b, verb, uint64(x), a)
	case uint16:
		return appendUint(b, verb, uint64(x), a)
	case uint32:
		return appendUint(b, verb, uint64(x), a)
	case uint64:
		return appendUint(b, verb, x, a)
	case uintptr:
		return appendUint(b, verb, uint64(x), a)
	case float64:
		if verb == 'g' || verb == 'v' {
			return strconv.AppendFloat(b, x, 'g', -1, 64)
		}
		return append(strconv.AppendFloat(badVerb(b, verb, a), x, 'g', -1, 64), ')')
	case vtime.Duration:
		if verb == 's' || verb == 'v' {
			return x.Append(b)
		}
		return appendInt(b, verb, int64(x), a)
	case vtime.Time:
		if verb == 's' || verb == 'v' {
			// Infinity and Forever share one bit pattern: "+inf" either way.
			return vtime.Duration(x).Append(b)
		}
		return appendInt(b, verb, int64(x), a)
	case []int:
		return appendInts(b, verb, x)
	case []string:
		b = append(b, '[')
		for i, e := range x {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendString(b, verb, e, e)
		}
		return append(b, ']')
	case [][]int:
		b = append(b, '[')
		for i, e := range x {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendInts(b, verb, e)
		}
		return append(b, ']')
	}
	b = utf8.AppendRune(append(b, "%!"...), verb)
	return append(append(append(b, '('), reflect.TypeOf(a).String()...), ')')
}

// appendInt appends an integer under %d or %v, and fmt's bad-verb note
// under any other verb. A vtime value lands here with its bare integer:
// fmt prints it so under %d and inside the note.
func appendInt(b []byte, verb rune, v int64, a any) []byte {
	if verb == 'd' || verb == 'v' {
		return strconv.AppendInt(b, v, 10)
	}
	return append(strconv.AppendInt(badVerb(b, verb, a), v, 10), ')')
}

func appendUint(b []byte, verb rune, v uint64, a any) []byte {
	if verb == 'd' || verb == 'v' {
		return strconv.AppendUint(b, v, 10)
	}
	return append(strconv.AppendUint(badVerb(b, verb, a), v, 10), ')')
}

func appendString(b []byte, verb rune, s string, a any) []byte {
	switch verb {
	case 's', 'v':
		return append(b, s...)
	case 'q':
		return strconv.AppendQuote(b, s)
	}
	return append(append(badVerb(b, verb, a), s...), ')')
}

// appendInts appends s as fmt prints a slice, "[e0 e1 …]", each element
// under the verb.
func appendInts(b []byte, verb rune, s []int) []byte {
	b = append(b, '[')
	for i, e := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendInt(b, verb, int64(e), e)
	}
	return append(b, ']')
}

// badVerb opens fmt's note for a known type under a verb it does not
// take, "%!verb(type=": the caller appends the value and the ")".
func badVerb(b []byte, verb rune, a any) []byte {
	b = utf8.AppendRune(append(b, "%!"...), verb)
	return append(append(append(b, '('), reflect.TypeOf(a).String()...), '=')
}
