package index

import (
	"reflect"
	"testing"
)

// FuzzDecodePath feeds arbitrary bytes to the on-disk path decoder: it
// must never panic, and any path it accepts must survive a re-encode
// (compared as paths — varints have non-canonical spellings, so the
// bytes may differ). The seed corpus under testdata/fuzz/FuzzDecodePath
// is EncodePath of every source-to-sink path of the Figure 1 graph.
func FuzzDecodePath(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := DecodePath(buf)
		if err != nil {
			return
		}
		back, err := DecodePath(EncodePath(p))
		if err != nil {
			t.Fatalf("re-encoded path does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the path:\n got %v\nwant %v", back, p)
		}
	})
}
