package srm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"fbcache/internal/bundle"
)

// The wire codec: Request and Response as JSON lines, without reflection.
// The encoders write exactly the bytes json.Encoder.Encode writes for the
// same value (struct field order, the omitempty rules, HTML escaping, a
// trailing '\n'), so the protocol is unchanged for every peer. The decoder
// parses the one flat object a line holds and rejects, never misparses,
// what it does not model; FuzzWireEncodeMatchesJSON and
// FuzzWireDecodeNeverMisparses hold both halves to encoding/json. The one
// reflective leg left is Response.Stats, the admin snapshot: it carries
// floats and a nested struct, is sent once per stats call, and goes through
// encoding/json both ways.

// maxLine bounds one protocol line, its '\n' included. A longer line is an
// error, which closes the connection (and so releases its leases).
const maxLine = 1 << 20

var (
	errLineTooLong = errors.New("srm: wire: line longer than 1 MiB")
	errMalformed   = errors.New("srm: wire: not a protocol message")
)

// appendRequest appends r's wire line to dst.
func appendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, r.Op)
	if r.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendString(dst, r.Name)
	}
	if r.Size != 0 {
		dst = append(dst, `,"size":`...)
		dst = strconv.AppendInt(dst, r.Size, 10)
	}
	if len(r.Files) > 0 {
		dst = append(dst, `,"files":[`...)
		for i, f := range r.Files {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, f)
		}
		dst = append(dst, ']')
	}
	if r.Token != "" {
		dst = append(dst, `,"token":`...)
		dst = appendString(dst, r.Token)
	}
	if r.Req != 0 {
		dst = append(dst, `,"req":`...)
		dst = strconv.AppendUint(dst, r.Req, 10)
	}
	if r.Span != 0 {
		dst = append(dst, `,"span":`...)
		dst = strconv.AppendUint(dst, r.Span, 10)
	}
	return append(dst, '}', '\n')
}

// appendResponse appends r's wire line to dst. It fails only when
// encoding/json cannot encode r.Stats (a NaN or infinite ratio).
func appendResponse(dst []byte, r *Response) ([]byte, error) {
	dst = append(dst, `{"ok":`...)
	dst = strconv.AppendBool(dst, r.OK)
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, r.Error)
	}
	if r.Retryable {
		dst = append(dst, `,"retryable":true`...)
	}
	if r.RetryAfterMs != 0 {
		dst = append(dst, `,"retry_after_ms":`...)
		dst = strconv.AppendInt(dst, r.RetryAfterMs, 10)
	}
	if r.Token != "" {
		dst = append(dst, `,"token":`...)
		dst = appendString(dst, r.Token)
	}
	if r.Hit {
		dst = append(dst, `,"hit":true`...)
	}
	if r.BytesLoaded != 0 {
		dst = append(dst, `,"bytes_loaded":`...)
		dst = strconv.AppendInt(dst, int64(r.BytesLoaded), 10)
	}
	if r.Stats != nil {
		st, err := json.Marshal(r.Stats)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"stats":`...)
		dst = append(dst, st...)
	}
	if r.Req != 0 {
		dst = append(dst, `,"req":`...)
		dst = strconv.AppendUint(dst, r.Req, 10)
	}
	return append(dst, '}', '\n'), nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it with HTML escaping on: '"' and '\\' take a
// backslash, \b \f \n \r \t their short forms, other control bytes and
// '<' '>' '&' a \u00XX escape; an invalid UTF-8 byte becomes \ufffd, and
// U+2028 and U+2029 are escaped.
//
//fbvet:noescape
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
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
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// wireReader reads one connection's protocol lines and decodes them.
type wireReader struct {
	r     *bufio.Reader
	spill []byte // gathers a line longer than r's buffer, up to maxLine
	sc    scanner
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{r: bufio.NewReader(r)}
}

// readRequest decodes the next request line into req. req.Files aliases
// the reader's backing array, which the next call overwrites.
func (w *wireReader) readRequest(req *Request) error {
	line, err := w.line()
	if err != nil {
		return err
	}
	return w.sc.request(line, req)
}

// readResponse decodes the next response line into resp.
func (w *wireReader) readResponse(resp *Response) error {
	line, err := w.line()
	if err != nil {
		return err
	}
	return w.sc.response(line, resp)
}

// line returns the next line that is not all whitespace, '\n' included.
// It aliases the reader's buffers until the next call. A line cut short by
// EOF is an error.
func (w *wireReader) line() ([]byte, error) {
	for {
		line, err := w.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			line, err = w.gather(line)
		}
		if err != nil {
			return nil, err
		}
		if len(bytes.TrimLeft(line, " \t\r\n")) > 0 {
			return line, nil
		}
	}
}

// gather continues a line that overflowed the bufio buffer into w.spill.
func (w *wireReader) gather(head []byte) ([]byte, error) {
	w.spill = append(w.spill[:0], head...)
	for {
		more, err := w.r.ReadSlice('\n')
		if len(w.spill)+len(more) > maxLine {
			return nil, errLineTooLong
		}
		w.spill = append(w.spill, more...)
		if err != bufio.ErrBufferFull {
			return w.spill, err
		}
	}
}

// scanner parses one line holding one flat JSON object. Its key loop
// (open, next, close) is shared by the two messages; each value reader
// consumes one value of the type the key's field has. The first mismatch
// marks the line bad, which ends the loop, and close reports it.
//
// Accepted: whitespace anywhere JSON allows it, members in any order,
// duplicate members (the last wins, as in encoding/json), strings with any
// JSON escape, and integers without fraction or exponent that fit the
// field. Rejected: an unknown, case-variant or escaped key, null, a value
// of the wrong type, and anything after the closing brace.
type scanner struct {
	buf  []byte
	pos  int
	key  []byte // the current member's key, set by next
	n    int    // members read so far
	bad  bool
	done bool // the closing brace was read

	esc   []byte   // decoded strings that had an escape or invalid UTF-8
	files []string // Request.Files backing array, reused across lines
}

// request decodes line into req, reusing s.files as req.Files's backing.
func (s *scanner) request(line []byte, req *Request) error {
	*req = Request{}
	for s.open(line); s.next(); {
		switch string(s.key) {
		case "op":
			req.Op = s.op()
		case "name":
			req.Name = string(s.text())
		case "size":
			req.Size = s.int()
		case "files":
			req.Files = s.names()
		case "token":
			req.Token = string(s.text())
		case "req":
			req.Req = s.uint()
		case "span":
			req.Span = s.uint()
		default:
			s.bad = true
		}
	}
	return s.close()
}

// response decodes line into resp.
func (s *scanner) response(line []byte, resp *Response) error {
	*resp = Response{}
	for s.open(line); s.next(); {
		switch string(s.key) {
		case "ok":
			resp.OK = s.bool()
		case "error":
			resp.Error = string(s.text())
		case "retryable":
			resp.Retryable = s.bool()
		case "retry_after_ms":
			resp.RetryAfterMs = s.int()
		case "token":
			resp.Token = string(s.text())
		case "hit":
			resp.Hit = s.bool()
		case "bytes_loaded":
			resp.BytesLoaded = bundle.Size(s.int())
		case "stats":
			s.stats(&resp.Stats)
		case "req":
			resp.Req = s.uint()
		default:
			s.bad = true
		}
	}
	return s.close()
}

func (s *scanner) open(line []byte) {
	s.buf, s.pos, s.n, s.bad, s.done = line, 0, 0, false, false
	s.space()
	if s.peek() != '{' {
		s.bad = true
	}
	s.pos++
}

// next moves past the separator before the next member and reads its key
// and colon. It reports false at the closing brace or once the line is bad.
func (s *scanner) next() bool {
	if s.bad {
		return false
	}
	s.space()
	switch c := s.peek(); {
	case c == '}':
		s.pos++
		s.done = true
		return false
	case s.n == 0:
	case c == ',':
		s.pos++
		s.space()
	default:
		s.bad = true
		return false
	}
	if s.peek() != '"' {
		s.bad = true
		return false
	}
	start := s.pos + 1
	end := bytes.IndexByte(s.buf[start:], '"')
	if end < 0 {
		s.bad = true
		return false
	}
	s.key = s.buf[start : start+end]
	s.pos = start + end + 1
	s.space()
	if s.peek() != ':' || bytes.IndexByte(s.key, '\\') >= 0 {
		s.bad = true
		return false
	}
	s.pos++
	s.space()
	s.n++
	return true
}

// close reports whether the line held exactly one well-formed object.
func (s *scanner) close() error {
	if !s.bad && s.done {
		s.space()
		if s.pos == len(s.buf) {
			return nil
		}
	}
	return errMalformed
}

// peek returns the byte at the cursor, or 0 at the end of the line.
func (s *scanner) peek() byte {
	if s.pos < len(s.buf) {
		return s.buf[s.pos]
	}
	return 0
}

func (s *scanner) space() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// op reads the op string, interned to the four operations.
func (s *scanner) op() string {
	t := s.text()
	switch string(t) {
	case "stage":
		return "stage"
	case "release":
		return "release"
	case "addfile":
		return "addfile"
	case "stats":
		return "stats"
	}
	return string(t)
}

// names reads an array of strings into s.files's backing. An empty array
// decodes to an empty, non-nil slice, as encoding/json decodes it.
func (s *scanner) names() []string {
	if s.peek() != '[' {
		s.bad = true
		return nil
	}
	s.pos++
	out := s.files[:0]
	if out == nil {
		out = []string{}
	}
	s.space()
	if s.peek() == ']' {
		s.pos++
		return out
	}
	for !s.bad {
		out = append(out, string(s.text()))
		s.space()
		switch s.peek() {
		case ',':
			s.pos++
			s.space()
		case ']':
			s.pos++
			s.files = out
			return out
		default:
			s.bad = true
		}
	}
	return nil
}

// text reads a string value. The result is a view of the line when the
// string holds no escape and is valid UTF-8, else of s.esc; either way it
// is valid until the next call.
//
//fbvet:noescape
func (s *scanner) text() []byte {
	if s.peek() != '"' {
		s.bad = true
		return nil
	}
	s.pos++
	start := s.pos
	for s.pos < len(s.buf) {
		c := s.buf[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.buf[start : s.pos-1]
		case c == '\\' || c < ' ':
			return s.unescape(start)
		case c < utf8.RuneSelf:
			s.pos++
		default:
			r, size := utf8.DecodeRune(s.buf[s.pos:])
			if r == utf8.RuneError && size == 1 {
				return s.unescape(start)
			}
			s.pos += size
		}
	}
	s.bad = true
	return nil
}

// unescape finishes the string text began at start, from the first byte
// that does not stand for itself, decoding into s.esc as encoding/json
// does: each invalid UTF-8 byte and each unpaired surrogate escape becomes
// U+FFFD, and a raw control byte or an unknown escape rejects the line.
func (s *scanner) unescape(start int) []byte {
	out := append(s.esc[:0], s.buf[start:s.pos]...)
	for s.pos < len(s.buf) {
		c := s.buf[s.pos]
		switch {
		case c == '"':
			s.pos++
			s.esc = out
			return out
		case c < ' ':
			s.bad = true
			return nil
		case c == '\\':
			if s.pos+1 == len(s.buf) {
				s.bad = true
				return nil
			}
			e := s.buf[s.pos+1]
			s.pos += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s.buf[s.pos:])
				if r < 0 {
					s.bad = true
					return nil
				}
				s.pos += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if rest := s.buf[s.pos:]; len(rest) >= 2 && rest[0] == '\\' && rest[1] == 'u' {
						r2 = hex4(rest[2:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						s.pos += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				s.bad = true
				return nil
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			s.pos++
		default:
			r, size := utf8.DecodeRune(s.buf[s.pos:])
			out = utf8.AppendRune(out, r)
			s.pos += size
		}
	}
	s.bad = true
	return nil
}

// hex4 decodes the four hex digits that open b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func (s *scanner) bool() bool {
	switch rest := s.buf[s.pos:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.pos += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.pos += 5
		return false
	}
	s.bad = true
	return false
}

// int reads an integer that fits an int64.
func (s *scanner) int() int64 {
	neg := s.peek() == '-'
	if neg {
		s.pos++
	}
	m := s.digits()
	switch {
	case neg && m <= 1<<63:
		return -int64(m)
	case !neg && m <= math.MaxInt64:
		return int64(m)
	}
	s.bad = true
	return 0
}

// uint reads an unsigned integer; a sign rejects it, as strconv.ParseUint
// does for encoding/json.
func (s *scanner) uint() uint64 { return s.digits() }

// digits reads a JSON integer's digits. A leading zero before another
// digit is a JSON syntax error; a fraction or exponent is valid JSON that
// encoding/json refuses for an integer field; both reject the line, as
// does overflow.
func (s *scanner) digits() uint64 {
	start := s.pos
	var n uint64
	for ; s.pos < len(s.buf) && '0' <= s.buf[s.pos] && s.buf[s.pos] <= '9'; s.pos++ {
		d := uint64(s.buf[s.pos] - '0')
		if n > (math.MaxUint64-d)/10 {
			s.bad = true
			return 0
		}
		n = n*10 + d
	}
	switch c := s.peek(); {
	case s.pos == start, s.buf[start] == '0' && s.pos-start > 1, c == '.', c == 'e', c == 'E':
		s.bad = true
		return 0
	}
	return n
}

// stats decodes the admin snapshot object with encoding/json, into *dst
// (allocated on first use, so a repeated member merges as it does in
// encoding/json).
func (s *scanner) stats(dst **Snapshot) {
	end := objectEnd(s.buf[s.pos:])
	if end < 0 {
		s.bad = true
		return
	}
	if *dst == nil {
		*dst = new(Snapshot)
	}
	if err := json.Unmarshal(s.buf[s.pos:s.pos+end], *dst); err != nil {
		s.bad = true
		return
	}
	s.pos += end
}

// objectEnd returns the length of the object that opens b, found by
// bracket depth outside strings, or -1. On malformed input the span may
// be wrong, but then it is not one valid JSON value and json.Unmarshal
// rejects it.
func objectEnd(b []byte) int {
	if len(b) == 0 || b[0] != '{' {
		return -1
	}
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}
