package dialect

import (
	"testing"

	"repro/internal/comm"
)

func FuzzWordRoundTrip(f *testing.F) {
	fam, err := NewWordFamily([]string{"PRINT", "STATUS", "ACK", "READY"}, 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("PRINT doc with spaces", uint8(2))
	f.Add("w3_0 payload", uint8(3))
	f.Fuzz(func(t *testing.T, s string, idx uint8) {
		d := fam.Dialect(int(idx) % fam.Size())
		m := comm.Message(s)
		if got := d.Decode(d.Encode(m)); got != m {
			t.Fatalf("round trip broke: %q → %q", m, got)
		}
	})
}
