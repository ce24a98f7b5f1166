package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bgpc/internal/gen"
	"bgpc/internal/mtx"
)

// FuzzColorRequestDifferential holds DecodeColorRequest to
// json.Unmarshal, the decoder it replaced: for every input both accept
// with the same ColorRequest field by field (and the same cache key),
// or both reject with the same "bad JSON: …" text. resolve must then
// give the same jobSpec for both, or the same status and error.
func FuzzColorRequestDifferential(f *testing.F) {
	mtxDoc := "%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 1\n2 3\n"
	marshaled := []ColorRequest{
		{Matrix: mtxDoc, Algorithm: "V-V", Threads: 2},
		{Matrix: mtxDoc, Mode: "d2", Balance: "B1", TimeoutMS: 250},
		{Preset: "channel", Scale: 0.1, Algorithm: "N1-N2"},
		{Preset: "channel", Scale: 0.25, Mode: "d2", Algorithm: "N1-N2", Balance: "B2", TimeoutMS: 500},
		{Preset: "<a&b>"}, // json.Marshal writes <, &, >
		{},
	}
	for _, r := range marshaled {
		body, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, s := range []string{
		// The short escapes, each one, plus ones the fast path leaves.
		`{"matrix":"a\"b\\c\/d\be\ff\ng\rh\ti","preset":"x"}`,
		`{"preset":"ch\/annel","algorithm":"N1\-N2"}`,
		`{"preset":"channel","mode":"d2"}`,
		// Case-folded and duplicate keys: json folds, and the last wins.
		`{"MATRIX":"` + strings.ReplaceAll(mtxDoc, "\n", `\n`) + `"}`,
		`{"Matrix":"x"}`,
		`{"PRESET":"channel","Scale":0.5}`,
		`{"preset":"channel","preset":"copapers"}`,
		`{"matrix":"x","matrix":""}`,
		`{"matrix":"x","Matrix":"y"}`,
		`{"scale":1,"scale":0.5,"preset":"channel"}`,
		`{"matrix":"x"}`,
		// null: a no-op for every field, and for the whole body.
		`null`,
		`{"matrix":null,"preset":"channel"}`,
		`{"preset":"channel","threads":null,"scale":null,"timeout_ms":null}`,
		// Unknown fields, flat and nested.
		`{"preset":"channel","extra":1}`,
		`{"preset":"channel","extra":{"a":[1,{"b":null}],"c":"é"}}`,
		// \u escapes: BMP, surrogate pairs, lone and reversed surrogates.
		`{"preset":"ch\u0061nnel"}`,
		`{"algorithm":"\ud83d\ude00"}`,
		`{"algorithm":"😀"}`,
		`{"algorithm":"\ud800"}`,
		`{"algorithm":"\udc00\ud800x"}`,
		`{"matrix":"%%MatrixMarket matrix coordinate pattern general\u000a1 1 1\u000a1 1\u000a"}`,
		// Non-ASCII: valid UTF-8, and invalid bytes json turns into U+FFFD.
		"{\"preset\":\"chännel\"}",
		"{\"preset\":\"\xff\"}",
		"{\"algorithm\":\"N1\xc3\"}",
		"{\"matrix\":\"1 1\xe2\x82\"}",
		// Numbers in every field: fractions and exponents in integer
		// fields, negative zero, out-of-range and overflowing values.
		`{"preset":"channel","threads":1.0}`,
		`{"preset":"channel","threads":1e2}`,
		`{"preset":"channel","threads":-0,"timeout_ms":-0,"scale":-0}`,
		`{"preset":"channel","scale":0.25}`,
		`{"preset":"channel","scale":1e400}`,
		`{"preset":"channel","scale":1E-2}`,
		`{"preset":"channel","scale":-1.5e+3}`,
		`{"preset":"channel","threads":9223372036854775807}`,
		`{"preset":"channel","threads":9223372036854775808}`,
		`{"preset":"channel","timeout_ms":-9223372036854775808}`,
		`{"preset":"channel","timeout_ms":-9223372036854775809}`,
		`{"preset":"channel","timeout_ms":123456789012345678}`,
		`{"preset":"channel","timeout_ms":1e400}`,
		`{"preset":"channel","threads":01}`,
		`{"preset":"channel","threads":-}`,
		`{"preset":"channel","threads":"2"}`,
		`{"preset":"channel","scale":.5}`,
		// Whitespace, garbage and truncation.
		" \t\r\n{ \"preset\" : \"channel\" , \"scale\" : 0.5 }\n\t ",
		`{"preset":"channel"}x`,
		`{"preset":"channel"}{}`,
		`{"preset":"channel",}`,
		`{"preset":"channel"`,
		`{"matrix":"%%Matrix`,
		`{"matrix":"abc\`,
		`{"matrix":"a\qb"}`,
		"{\"matrix\":\"a\tb\"}",
		`{}`,
		`[]`,
		`"matrix"`,
		``,
		`{"matrix": 3}`,
		`{"matrix":""}`,
	} {
		f.Add([]byte(s))
	}

	cfg := Config{}
	srv := &Server{cfg: cfg.withDefaults()}
	f.Fuzz(func(t *testing.T, raw []byte) {
		orig := append([]byte(nil), raw...)
		got, gotErr := DecodeColorRequest(raw)
		if !bytes.Equal(raw, orig) {
			t.Fatalf("decoder wrote to its input: %q became %q", orig, raw)
		}
		var want ColorRequest
		wantErr := json.Unmarshal(raw, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decoder err %v, json err %v", gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != "bad JSON: "+wantErr.Error() {
				t.Fatalf("error %q, want %q", gotErr, "bad JSON: "+wantErr.Error())
			}
			return
		}
		if got.ColorRequest.Matrix != "" {
			t.Fatalf("embedded Matrix string set: %q", got.ColorRequest.Matrix)
		}
		gotReq := got.ColorRequest
		gotReq.Matrix = string(got.Matrix)
		if gotReq != want {
			t.Fatalf("decoded %+v, json gives %+v", gotReq, want)
		}
		if k, wk := got.CacheKey(), CacheKey(&want); k != wk {
			t.Fatalf("cache key %s, json's request gives %s", k, wk)
		}

		wantBody := colorBody(want)
		gs, gst, gerr := srv.resolve(&got)
		ws, wst, werr := srv.resolve(&wantBody)
		if gst != wst || (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("resolve: status %d err %v, json's request gives %d %v", gst, gerr, wst, werr)
		}
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("resolve: spec %+v, json's request gives %+v", gs, ws)
		}
	})
}

// mtxBody is a valid MatrixMarket pattern document of about size
// bytes: an n×n matrix with one entry per row.
func mtxBody(size int) string {
	var sb strings.Builder
	n := size / 12
	fmt.Fprintf(&sb, "%%%%MatrixMarket matrix coordinate pattern general\n%d %d %d\n", n, n, n)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, n+1-i)
	}
	return sb.String()
}

// TestDecodeFastPathCoversCommonBodies: the bodies the clients in this
// repository send — json.Marshal of a ColorRequest, and the sorted-key
// map bodies of hand-rolled clients — must decode on the fast path, so
// small preset bodies never pay for a failed attempt first.
func TestDecodeFastPathCoversCommonBodies(t *testing.T) {
	bodies := []string{
		`{"algorithm":"N1-N2","preset":"channel","scale":0.1}`,
		`{"algorithm":"N1-N2","mode":"d2","preset":"channel","scale":0.1}`,
		`{"algorithm":"V-V-64D","preset":"copapers","scale":1}`,
		`{"algorithm":"N1-N2","matrix":"` + strings.ReplaceAll(tinyMtx, "\n", `\n`) + `"}`,
	}
	for _, r := range []ColorRequest{
		{Matrix: mtxBody(8 << 10), Algorithm: "N1-N2", Threads: 2, TimeoutMS: 500},
		{Preset: "movielens", Scale: 0.05, Mode: "d2", Balance: "B1"},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(b))
	}
	for _, body := range bodies {
		if _, ok := decodeColorFast([]byte(body)); !ok {
			t.Errorf("fast path refused %.120q", body)
		}
	}
}

// TestDecodeColorRequestAllocs pins the decoder's cost: a small
// constant number of allocations whatever the matrix size, of which
// exactly one is matrix-sized (the unescaped matrix itself).
func TestDecodeColorRequestAllocs(t *testing.T) {
	var counts []float64
	for _, size := range []int{8 << 10, 512 << 10} {
		m := mtxBody(size)
		raw, err := json.Marshal(ColorRequest{Matrix: m, Algorithm: "N1-N2", Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		var req ColorBody
		allocs := testing.AllocsPerRun(20, func() {
			req, err = DecodeColorRequest(raw)
		})
		if err != nil || string(req.Matrix) != m {
			t.Fatalf("%d B: decode err %v, matrix intact %v", size, err, string(req.Matrix) == m)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			DecodeColorRequest(raw)
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%d B matrix (%d B body): %.0f allocs, %d B per decode", len(m), len(raw), allocs, perOp)
		if allocs > 4 {
			t.Errorf("%d B: %.0f allocations per decode, want a small constant (≤ 4)", size, allocs)
		}
		if perOp > uint64(len(raw))+16<<10 || perOp >= uint64(2*len(m)) {
			t.Errorf("%d B: %d bytes per decode, want at most one body-sized buffer (%d B)", size, perOp, len(raw))
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("allocation count grows with the matrix: %v", counts)
	}
}

// TestColorBodyLengthMismatch: the body, not its Content-Length, is
// what gets decoded. A header that is short, long, absent (chunked) or
// zero only changes how the buffer is sized; every variant colors the
// same graph.
func TestColorBodyLengthMismatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	body, err := json.Marshal(ColorRequest{Matrix: mtxBody(4 << 10), Algorithm: "N1-N2"})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(body))
	var fp string
	for _, cl := range []int64{n, n + 100, n / 2, 1, 0, -1} {
		r := httptest.NewRequest("POST", "/color", bytes.NewReader(body))
		r.ContentLength = cl
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("Content-Length %d: status %d: %s", cl, w.Code, w.Body)
		}
		got := decode(t, w).Fingerprint
		if fp == "" {
			fp = got
		} else if got != fp {
			t.Fatalf("Content-Length %d: fingerprint %s, want %s", cl, got, fp)
		}
	}
}

// TestColorBodyOverCap: a body past MaxRequestBytes is a 413 whatever
// its header claims. A declared length past the cap is refused before
// anything is read, allocating far less than the cap; an undeclared or
// understated one is read up to the cap and no further, into a buffer
// that never outgrows it.
func TestColorBodyOverCap(t *testing.T) {
	const limit = 1 << 20
	s := newTestServer(t, Config{Workers: 1, MaxRequestBytes: limit})
	over := bytes.Repeat([]byte{' '}, 4*limit)
	for _, tc := range []struct {
		name     string
		cl       int64
		maxAlloc uint64
	}{
		{"declared over cap", 1 << 40, limit / 4},
		{"declared at cap+1", limit + 1, limit / 4},
		{"chunked", -1, 2*limit + 256<<10},
		{"understated", 1000, 2*limit + 256<<10},
	} {
		r := httptest.NewRequest("POST", "/color", bytes.NewReader(over))
		r.ContentLength = tc.cl
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s.ServeHTTP(w, r)
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %s", tc.name, w.Code, w.Body)
		}
		if alloc > tc.maxAlloc {
			t.Errorf("%s: allocated %d bytes, want ≤ %d", tc.name, alloc, tc.maxAlloc)
		}
	}
}

// TestReadBodyStopsAtCap: readBody never reads more than limit+1 bytes
// from the body, whatever the header says.
func TestReadBodyStopsAtCap(t *testing.T) {
	const limit = 5000
	for _, cl := range []int64{-1, 0, 10, limit, limit + 1} {
		src := &countingReader{r: bytes.NewReader(make([]byte, 3*limit))}
		raw, tooLarge, err := readBody(src, cl, limit)
		if err != nil || !tooLarge {
			t.Fatalf("Content-Length %d: tooLarge=%v err=%v", cl, tooLarge, err)
		}
		if src.n > limit+1 || cap(raw) > limit+1 {
			t.Fatalf("Content-Length %d: read %d bytes into cap %d, want ≤ %d", cl, src.n, cap(raw), limit+1)
		}
	}
	raw, tooLarge, err := readBody(strings.NewReader("exactly"), 7, 7)
	if err != nil || tooLarge || string(raw) != "exactly" {
		t.Fatalf("body at the cap: %q tooLarge=%v err=%v", raw, tooLarge, err)
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// BenchmarkDecodeColorRequest times the decoder against the
// json.Unmarshal it replaced, on inline-matrix bodies of the preset
// graphs the ingest benchmark posts.
func BenchmarkDecodeColorRequest(b *testing.B) {
	for _, c := range []struct {
		preset string
		scale  float64
	}{{"channel", 0.1}, {"copapers", 0.1}, {"channel", 0.5}} {
		g, err := gen.Preset(c.preset, c.scale)
		if err != nil {
			b.Fatal(err)
		}
		var doc bytes.Buffer
		if err := mtx.Write(&doc, g); err != nil {
			b.Fatal(err)
		}
		raw, err := json.Marshal(ColorRequest{Matrix: doc.String(), Algorithm: "N1-N2"})
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("%s@%g", c.preset, c.scale)
		b.Run(name+"/decoder", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, err := DecodeColorRequest(raw)
				if err != nil {
					b.Fatal(err)
				}
				req.CacheKey()
			}
		})
		b.Run(name+"/json", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req ColorRequest
				if err := json.Unmarshal(raw, &req); err != nil {
					b.Fatal(err)
				}
				CacheKey(&req)
			}
		})
	}
}
