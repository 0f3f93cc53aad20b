package entity

import (
	"strconv"
	"unicode/utf8"
)

// Trace renders the history as a human-readable audit trail: the paper's
// negative-inventory example requires being able to show "the history that
// resulted in negative inventory levels" (principle 2.1).
func (h *History) Trace() []string {
	out := make([]string, 0, len(h.Versions))
	var line []byte
	for _, v := range h.Versions {
		line = appendTraceLine(line[:0], v)
		out = append(out, string(line))
	}
	return out
}

// AppendTraceJSON appends the trace as the exact bytes encoding/json's
// Encoder produces for Trace() under SetIndent("", "  "): the same indented
// array layout ("[]" when empty), the same string escaping (HTML-safe,
// invalid UTF-8 as U+FFFD, U+2028/U+2029 escaped) and the trailing newline.
// No line is materialised as a string; when dst has room it does not
// allocate at all.
func (h *History) AppendTraceJSON(dst []byte) []byte {
	if len(h.Versions) == 0 {
		return append(dst, "[]\n"...)
	}
	dst = append(dst, '[')
	for i, v := range h.Versions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n  \""...)
		start := len(dst)
		dst = appendTraceLine(dst, v)
		dst = escapeJSONTail(dst, start)
		dst = append(dst, '"')
	}
	return append(dst, "\n]\n"...)
}

// appendTraceLine appends v's trace line,
// "#<seq> <stamp> by <origin>: <op>; <op>[ [obsolete]| [tentative]]",
// where each op renders as its Describe text, or Op.String without one.
// Trace and AppendTraceJSON both build on it, so the format lives here only.
func appendTraceLine(dst []byte, v *Version) []byte {
	dst = append(dst, '#')
	dst = strconv.AppendUint(dst, v.Seq, 10)
	dst = append(dst, ' ')
	dst = v.Stamp.Append(dst)
	dst = append(dst, " by "...)
	dst = append(dst, v.Origin...)
	dst = append(dst, ": "...)
	for i := range v.Ops {
		if i > 0 {
			dst = append(dst, "; "...)
		}
		if d := v.Ops[i].Describe; d != "" {
			dst = append(dst, d...)
		} else {
			dst = append(dst, v.Ops[i].String()...)
		}
	}
	if v.Obsolete {
		dst = append(dst, " [obsolete]"...)
	} else if v.Tentative {
		dst = append(dst, " [tentative]"...)
	}
	return dst
}

// escapeJSONTail rewrites dst[start:] in place as the contents of a JSON
// string, escaped exactly as encoding/json escapes with HTML escaping on.
// The common all-safe line returns untouched; otherwise the escaped form is
// appended behind the raw bytes and moved down over them, so the rewrite
// allocates only if dst has to grow.
func escapeJSONTail(dst []byte, start int) []byte {
	raw := dst[start:len(dst):len(dst)]
	safe := true
	for _, b := range raw {
		if !jsonSafe[b] {
			safe = false
			break
		}
	}
	if safe {
		return dst
	}
	end := len(dst)
	dst = appendJSONEscaped(dst, raw)
	n := copy(dst[start:], dst[end:])
	return dst[:start+n]
}

// jsonSafe holds the bytes encoding/json's HTML-escaping string encoder
// passes through unchanged: ASCII from the space up, except the quote,
// backslash, < > and &. Every byte at or above utf8.RuneSelf is false, so a
// scan also stops at the first multi-byte sequence.
var jsonSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONEscaped appends src escaped as encoding/json escapes string
// contents (without the surrounding quotes). src must not overlap the bytes
// appended to dst.
func appendJSONEscaped(dst, src []byte) []byte {
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRune(src[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, src[start:]...)
}
