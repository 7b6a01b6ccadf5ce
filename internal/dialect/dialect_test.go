package dialect

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/comm"
)

func wordFamily(t *testing.T, n int) *Family {
	t.Helper()

	fam, err := NewWordFamily([]string{"PRINT", "STATUS", "ACK"}, n)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func TestRoundTripAllFamilies(t *testing.T) {
	t.Parallel()

	msgs := []comm.Message{
		"", "PRINT hello world 123", "STATUS", "ACK doc42",
		"Mixed CASE and 0123456789", "payload-not-in-vocab",
	}
	fam := wordFamily(t, 8)
	for i := 0; i < fam.Size(); i++ {
		d := fam.Dialect(i)
		for _, m := range msgs {
			if got := d.Decode(d.Encode(m)); got != m {
				t.Errorf("words[%d]: Decode(Encode(%q)) = %q", i, m, got)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	t.Parallel()

	fam := wordFamily(t, 16)
	f := func(raw []byte, idx uint8) bool {
		d := fam.Dialect(int(idx) % fam.Size())
		m := comm.Message(raw)
		return d.Decode(d.Encode(m)) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDialectZeroIsIdentity(t *testing.T) {
	t.Parallel()

	d := wordFamily(t, 8).Dialect(0)
	m := comm.Message("PRINT abc 123")
	if got := d.Encode(m); got != m {
		t.Errorf("words[0].Encode changed message: %q", got)
	}
}

func TestDialectsMutuallyUnintelligible(t *testing.T) {
	t.Parallel()

	// For every pair i != j, encoding with i and decoding with j must
	// not recover the plain command (otherwise the class collapses).
	m := comm.Message("PRINT document")
	fam := wordFamily(t, 8)
	collisions := 0
	for i := 0; i < fam.Size(); i++ {
		for j := 0; j < fam.Size(); j++ {
			if i == j {
				continue
			}
			got := fam.Dialect(j).Decode(fam.Dialect(i).Encode(m))
			if got == m {
				collisions++
			}
		}
	}
	if collisions > 0 {
		t.Errorf("words: %d cross-dialect collisions on %q", collisions, m)
	}
}

func TestWordFamilyPreservesPayload(t *testing.T) {
	t.Parallel()

	fam, err := NewWordFamily([]string{"PRINT"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := fam.Dialect(2)
	enc := d.Encode("PRINT report.txt")
	if !strings.HasSuffix(string(enc), " report.txt") {
		t.Fatalf("payload token was transformed: %q", enc)
	}
	if strings.HasPrefix(string(enc), "PRINT") {
		t.Fatalf("verb not transformed: %q", enc)
	}
}

func TestFamilyIndexWraps(t *testing.T) {
	t.Parallel()

	fam := wordFamily(t, 4)
	if fam.Dialect(4).ID() != fam.Dialect(0).ID() {
		t.Error("positive wrap failed")
	}
	if fam.Dialect(-1).ID() != fam.Dialect(3).ID() {
		t.Error("negative wrap failed")
	}
}

func TestNewFamilyValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewFamily("empty", nil); err == nil {
		t.Error("empty family accepted")
	}
	if _, err := NewWordFamily(nil, 3); err == nil {
		t.Error("word family without vocabulary accepted")
	}
	if _, err := NewWordFamily([]string{"A"}, 0); err == nil {
		t.Error("word family of size 0 accepted")
	}
}

func TestIdentityDialect(t *testing.T) {
	t.Parallel()

	d := Identity(3)
	if d.ID() != 3 {
		t.Fatal("wrong id")
	}
	if d.Encode("x") != "x" || d.Decode("y") != "y" {
		t.Fatal("identity transformed a message")
	}
}
