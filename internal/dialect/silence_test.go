package dialect_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/goals/control"
)

// TestSilenceMapsToSilence pins the Dialect contract's silence clause on
// every implementation: Encode and Decode map the empty message to
// itself. server.Dialected skips translating silence on the strength of
// it, so a dialect that broke it would be served wrong replies.
func TestSilenceMapsToSilence(t *testing.T) {
	t.Parallel()

	ds := []dialect.Dialect{dialect.Identity(0), dialect.Identity(7)}
	for _, n := range []int{4, 256} {
		fam, err := dialect.NewWordFamily([]string{"PRINT", "STATUS", "ACK", "READY"}, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fam.Size(); i++ {
			ds = append(ds, fam.Dialect(i))
		}
	}
	for _, off := range []int{0, 1, -1, 5, -control.MaxForce, control.MaxForce} {
		ds = append(ds, control.Units{Off: off})
	}
	for _, d := range ds {
		if got := d.Encode(""); got != "" {
			t.Errorf("%s: Encode(\"\") = %q", d.Name(), got)
		}
		if got := d.Decode(comm.Message("")); got != "" {
			t.Errorf("%s: Decode(\"\") = %q", d.Name(), got)
		}
	}
}
