package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTraceDecode feeds arbitrary bytes through the record decoder, the
// reader for trace files the CLIs write. Decode must never panic; a
// record it accepts must cover every round it claims — History and View
// both Rounds long — and survive an encode/decode round trip unchanged.
// The seed corpus lives under testdata/fuzz/FuzzTraceDecode.
func FuzzTraceDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		v := rec.View()
		if h := rec.History().Len(); h != rec.Rounds || len(v.Rounds) != rec.Rounds {
			t.Fatalf("accepted record of %d rounds reconstructs %d states and %d views", rec.Rounds, h, len(v.Rounds))
		}
		var buf bytes.Buffer
		if err := rec.Encode(&buf); err != nil {
			t.Fatalf("encode accepted record: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode of an encoded record: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("round trip changed the record:\n%+v\n%+v", rec, back)
		}
	})
}
