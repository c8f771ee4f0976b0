package srm

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/metrics"
)

// jsonLine is what json.Encoder.Encode writes for v, the codec's oracle.
func jsonLine(t testing.TB, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// The protocol comment's four request examples and its stage response.
func TestWireEncodeDocumentedExamples(t *testing.T) {
	reqs := map[string]Request{
		`{"op":"addfile","name":"evt-energy","size":1048576}`:  {Op: "addfile", Name: "evt-energy", Size: 1048576},
		`{"op":"stage","files":["evt-energy","evt-momentum"]}`: {Op: "stage", Files: []string{"evt-energy", "evt-momentum"}},
		`{"op":"release","token":"t1"}`:                        {Op: "release", Token: "t1"},
		`{"op":"stats"}`:                                       {Op: "stats"},
	}
	for line, req := range reqs {
		want, _ := jsonLine(t, req)
		if got := appendRequest(nil, &req); string(got) != line+"\n" || !bytes.Equal(got, want) {
			t.Errorf("%s: encoded %q, encoding/json %q", line, got, want)
		}
		var back Request
		if err := new(scanner).request([]byte(line+"\n"), &back); err != nil || !reflect.DeepEqual(back, req) {
			t.Errorf("%s: decoded %+v, %v", line, back, err)
		}
	}
	resp := Response{OK: true, Token: "t1", BytesLoaded: 2097152}
	want, _ := jsonLine(t, resp)
	if got, err := appendResponse(nil, &resp); err != nil || string(got) != `{"ok":true,"token":"t1","bytes_loaded":2097152}`+"\n" || !bytes.Equal(got, want) {
		t.Errorf("stage response: encoded %q (%v), encoding/json %q", got, err, want)
	}
}

func TestWireDecodeAcceptsAndRejects(t *testing.T) {
	accept := map[string]Request{
		" { \"files\" : [ \"b\" , \"a\" ] ,\t\"op\":\"stage\" } \r\n":           {Op: "stage", Files: []string{"b", "a"}},
		`{"op":"stats","op":"release","token":"t1","token":"t2"}`:               {Op: "release", Token: "t2"},
		`{"op":"stage","files":[]}`:                                             {Op: "stage", Files: []string{}},
		`{"op":"addfile","name":"a\"b\\c\/<é😀","size":-0}`:                      {Op: "addfile", Name: "a\"b\\c/<é😀"},
		`{"op":"x","name":"\ud800","token":"\udc00\ud800x"}`:                    {Op: "x", Name: "\ufffd", Token: "\ufffd\ufffdx"},
		`{"op":"stats","req":18446744073709551615,"size":-9223372036854775808}`: {Op: "stats", Req: math.MaxUint64, Size: math.MinInt64},
		`{}`: {},
	}
	for line, want := range accept {
		var got Request
		if err := new(scanner).request([]byte(line), &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: decoded %+v, %v; want %+v", line, got, err, want)
		}
	}
	reject := []string{
		`garbage`, ``, `{`, `{"op":"stats"`, `{"op":"stats"}{"op":"stats"}`, `{"op":"stats"} x`,
		`{"OP":"stats"}`, `{"op":"stats","extra":1}`, `{"o\u0070":"stats"}`, `{"op":null}`,
		`{"op":"stage","files":null}`, `{"op":"stage","files":["a",null]}`, `{"op":"stage","files":["a",]}`,
		`{"op":"addfile","size":1e3}`, `{"op":"addfile","size":1.0}`, `{"op":"addfile","size":01}`,
		`{"op":"addfile","size":9223372036854775808}`, `{"op":"stats","req":-1}`, `{"op":"stats","req":-0}`,
		`{"op":"stats","req":18446744073709551616}`, `{"op":"addfile","size":"5"}`, `{"op":"a` + "\n" + `"}`,
		`{"op":"stats",}`, `{,"op":"stats"}`, `{"op":"\x"}`, `{"op":"\u12"}`, `{"op":"\ud800\u12"}`, `["op"]`,
		`{"op":"stats","size":-}`, `{"op":"stats" "name":"a"}`,
	}
	for _, line := range reject {
		var req Request
		if err := new(scanner).request([]byte(line), &req); err == nil {
			t.Errorf("%q: accepted as %+v", line, req)
		}
	}
	var resp Response
	if err := new(scanner).response([]byte(`{"ok":true,"hit":tru}`), &resp); err == nil {
		t.Errorf("bad literal accepted as %+v", resp)
	}
	if err := new(scanner).response([]byte(`{"ok":true,"stats":null}`), &resp); err == nil {
		t.Errorf("null stats accepted as %+v", resp)
	}
}

// A stats response encodes as encoding/json encodes it, floats in exponent
// form included, and decodes back to the same value.
func TestWireStatsRoundTrip(t *testing.T) {
	resp := Response{OK: true, Req: 7, Stats: &Snapshot{
		Jobs: 3, HitRatio: 1.0 / 3, ByteMissRatio: 1e-7, BytesLoaded: 1 << 40,
		ActiveJobs: 2, WaitingJobs: 1, PinnedBytes: 10, CacheUsed: 90, CacheCapacity: 100,
		Policy:     "optfilebundle<&>",
		Resilience: metrics.Resilience{Retries: 4, Timeouts: 2, FailedJobs: 1},
	}}
	want, err := jsonLine(t, resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendResponse(nil, &resp)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("encoded %q (%v), encoding/json %q", got, err, want)
	}
	if !bytes.Contains(got, []byte(`"ByteMissRatio":1e-7`)) {
		t.Errorf("exponent form not exercised: %s", got)
	}
	var back Response
	if err := new(scanner).response(got, &back); err != nil || !reflect.DeepEqual(back, resp) {
		t.Errorf("decoded %+v (%v), want %+v", back, err, resp)
	}
	resp.Stats.HitRatio = math.NaN()
	if _, err := appendResponse(nil, &resp); err == nil {
		t.Error("NaN ratio encoded; encoding/json refuses it")
	}
}

// splitFiles turns a fuzzed string into Files: "" is nil, else the
// NUL-separated parts.
func splitFiles(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\x00")
}

// FuzzWireEncodeMatchesJSON holds both encoders to encoding/json byte for
// byte on fuzzed values, and the decoder to accepting what they write.
// Seeds (testdata/fuzz) cover zero and omitted fields, negative and
// maximal integers, "<>&", control bytes, invalid UTF-8, U+2028/2029 and
// a stats snapshot.
func FuzzWireEncodeMatchesJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, name string, size int64, files, token string, reqID, spanID uint64,
		ok bool, msg string, retryable bool, retryAfter int64, respToken string, hit bool, loaded int64,
		withStats bool, hitRatio, byteMiss float64, retries int64) {
		req := Request{Op: op, Name: name, Size: size, Files: splitFiles(files), Token: token, Req: reqID, Span: spanID}
		want, _ := jsonLine(t, req)
		got := appendRequest(nil, &req)
		if !bytes.Equal(got, want) {
			t.Fatalf("request %+v: encoded %q, encoding/json %q", req, got, want)
		}
		if isReq, _ := checkDecodesLikeJSON(t, got); !isReq {
			t.Fatalf("request line %q rejected", got)
		}

		resp := Response{OK: ok, Error: msg, Retryable: retryable, RetryAfterMs: retryAfter, Token: respToken,
			Hit: hit, BytesLoaded: bundle.Size(loaded), Req: reqID}
		if withStats {
			resp.Stats = &Snapshot{Jobs: size, HitRatio: hitRatio, ByteMissRatio: byteMiss, Policy: name,
				Resilience: metrics.Resilience{Retries: retries}}
		}
		want, jerr := jsonLine(t, resp)
		got, err := appendResponse(nil, &resp)
		if (err != nil) != (jerr != nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("response %+v: encoded %q (%v), encoding/json %q (%v)", resp, got, err, want, jerr)
		}
		if err != nil {
			return
		}
		if _, isResp := checkDecodesLikeJSON(t, got); !isResp {
			t.Fatalf("response line %q rejected", got)
		}
	})
}

// FuzzWireDecodeNeverMisparses: any line the decoder accepts, as either
// message, encoding/json accepts too and decodes to the same value; and
// every line encoding/json writes for a value built from the input is
// accepted. Seeds (testdata/fuzz) hold the protocol comment's examples, a
// hand-typed line, duplicate and escaped members, surrogates, and integers
// encoding/json refuses.
func FuzzWireDecodeNeverMisparses(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodesLikeJSON(t, line)
		s := string(line)
		enc, _ := jsonLine(t, Request{Op: s, Name: s, Files: []string{s, ""}, Token: s})
		if isReq, _ := checkDecodesLikeJSON(t, enc); !isReq {
			t.Fatalf("encoding/json's request line %q rejected", enc)
		}
		enc, _ = jsonLine(t, Response{Error: s, Token: s, Stats: &Snapshot{Policy: s}})
		if _, isResp := checkDecodesLikeJSON(t, enc); !isResp {
			t.Fatalf("encoding/json's response line %q rejected", enc)
		}
	})
}

// checkDecodesLikeJSON decodes line as each message, the request with a
// fresh scanner and with one whose Files backing is warm, and fails the
// test if an accepted decode is one encoding/json would not produce. It
// reports which messages accepted line.
func checkDecodesLikeJSON(t *testing.T, line []byte) (isReq, isResp bool) {
	t.Helper()
	warm := new(scanner)
	var prev Request
	if err := warm.request([]byte(`{"op":"stage","files":["1","2","3"]}`), &prev); err != nil {
		t.Fatal(err)
	}
	isReq = true
	for _, s := range []*scanner{new(scanner), warm} {
		var req, want Request
		if err := s.request(line, &req); err != nil {
			isReq = false
		} else if jerr := json.Unmarshal(line, &want); jerr != nil || !reflect.DeepEqual(req, want) {
			t.Fatalf("request line %q: decoded %#v, encoding/json %#v (%v)", line, req, want, jerr)
		}
	}
	var resp, want Response
	if err := new(scanner).response(line, &resp); err == nil {
		if jerr := json.Unmarshal(line, &want); jerr != nil || !reflect.DeepEqual(resp, want) {
			t.Fatalf("response line %q: decoded %#v, encoding/json %#v (%v)", line, resp, want, jerr)
		}
		isResp = true
	}
	return isReq, isResp
}

// BenchmarkWire times the codec on srm-hit's messages: a six-file stage
// request, its response, and a release. make bench-guard gates the exact
// allocs/op: encodes allocate nothing, and a decode allocates one string
// per name or token it returns.
func BenchmarkWire(b *testing.B) {
	files := []string{"evt-energy-0001", "evt-momentum-0002", "evt-charge-0003", "evt-vertex-0004", "evt-track-0005", "evt-calo-0006"}
	stage := Request{Op: "stage", Files: files, Span: 123456}
	staged := Response{OK: true, Token: "t123", Hit: true, Req: 98765}
	release := Request{Op: "release", Token: "t123", Span: 123457}
	stageLine := appendRequest(nil, &stage)
	stagedLine, _ := appendResponse(nil, &staged)
	releaseLine := appendRequest(nil, &release)

	b.Run("encode/stage_request", func(b *testing.B) {
		buf := appendRequest(nil, &stage)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendRequest(buf[:0], &stage)
		}
	})
	b.Run("encode/stage_response", func(b *testing.B) {
		buf, _ := appendResponse(nil, &staged)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, _ = appendResponse(buf[:0], &staged)
		}
	})
	decodeRequest := func(line []byte) func(*testing.B) {
		return func(b *testing.B) {
			var s scanner
			var req Request
			if err := s.request(line, &req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.request(line, &req)
			}
		}
	}
	b.Run("decode/stage_request", decodeRequest(stageLine))
	b.Run("decode/release_request", decodeRequest(releaseLine))
	b.Run("decode/stage_response", func(b *testing.B) {
		var s scanner
		var resp Response
		if err := s.response(stagedLine, &resp); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.response(stagedLine, &resp)
		}
	})
}
