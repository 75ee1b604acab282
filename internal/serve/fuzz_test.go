package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzServeRequestDecode fuzzes the request codec: no input may panic the
// decoder, and any input it accepts must satisfy two round-trip laws —
// re-encoding an accepted request decodes back to the same value, and
// resolution (the cache-identity normalizer) is idempotent with a stable
// cache key. Together these pin the property the whole cache leans on:
// the bytes on the wire fully determine the content address.
func FuzzServeRequestDecode(f *testing.F) {
	f.Add([]byte(`{"scenario":"cpm-default"}`))
	f.Add([]byte(`{"scenario":"budget-60","seed":7,"budget_frac":0.55,"warm_epochs":3,"measure_epochs":8,"stream":true}`))
	f.Add([]byte(`{"scenario":"thermal-policy","seed":18446744073709551615}`))
	f.Add([]byte(`{"scenario":"cpm-default","sead":2}`))
	f.Add([]byte(`{"scenario":"cpm-default"} {}`))
	f.Add([]byte(`{"scenario":"x","budget_frac":1e999}`))
	f.Add([]byte(`[{"scenario":"cpm-default"}]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"scenario":"cpm-default","budget_frac":-0.25,"warm_epochs":-3}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if req.Validate() != nil {
			return
		}

		// Law 1: encode/decode round-trip is the identity on accepted
		// requests (Request is a comparable struct, so == is exact).
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request failed to re-encode: %v\ninput: %q", err, data)
		}
		back, err := DecodeRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v\nencoded: %s", err, enc)
		}
		if back != req {
			t.Fatalf("round trip changed the request:\n  got  %+v\n  want %+v", back, req)
		}

		// Law 2: resolution is idempotent and keeps the cache key.
		res, _, err := req.Resolve()
		if err != nil {
			return // e.g. a syntactically fine but unknown scenario name
		}
		res2, _, err := res.Resolve()
		if err != nil {
			t.Fatalf("resolved request failed to re-resolve: %v\nresolved: %+v", err, res)
		}
		// Stream is presentation, not identity; ignore it for idempotence.
		res2.Stream = res.Stream
		if res2 != res {
			t.Fatalf("resolve is not idempotent:\n  once  %+v\n  twice %+v", res, res2)
		}
		if req.CacheKey() != res.CacheKey() || res.CacheKey() != res2.CacheKey() {
			t.Fatalf("cache key unstable across resolves: %s, %s, %s", req.CacheKey(), res.CacheKey(), res2.CacheKey())
		}
		if res.CacheKey() == "" || len(res.CacheKey()) != 16 {
			t.Fatalf("cache key %q is not a 16-hex-digit address", res.CacheKey())
		}
	})
}
