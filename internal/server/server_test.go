package server

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/commtest"
	"repro/internal/dialect"
	"repro/internal/xrand"
)

func step(t *testing.T, s comm.Strategy, in comm.Inbox) comm.Outbox {
	t.Helper()
	out, err := s.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func wordFam(t *testing.T, n int) *dialect.Family {
	t.Helper()
	fam, err := dialect.NewWordFamily([]string{"HELLO", "WELCOME"}, n)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func TestDialectedUnderstandsOwnDialect(t *testing.T) {
	t.Parallel()

	fam := wordFam(t, 4)
	d := fam.Dialect(2)
	s := Dialected(&commtest.GreetServer{}, d)
	s.Reset(xrand.New(1))

	out := step(t, s, comm.Inbox{FromUser: d.Encode("HELLO")})
	if out.ToWorld != "greeted" {
		t.Fatalf("server did not act on its own dialect: %+v", out)
	}
	if got := d.Decode(out.ToUser); got != "WELCOME" {
		t.Fatalf("reply decodes to %q, want WELCOME", got)
	}
}

func TestDialectedRejectsPlainProtocol(t *testing.T) {
	t.Parallel()

	fam := wordFam(t, 4)
	s := Dialected(&commtest.GreetServer{}, fam.Dialect(3))
	s.Reset(xrand.New(1))

	out := step(t, s, comm.Inbox{FromUser: "HELLO"})
	if out.ToWorld == "greeted" {
		t.Fatal("mismatched dialect server understood the plain command")
	}
}

func TestDialectedWorldChannelUntouched(t *testing.T) {
	t.Parallel()

	fam := wordFam(t, 4)
	d := fam.Dialect(1)
	s := Dialected(&commtest.GreetServer{}, d)
	s.Reset(xrand.New(1))

	out := step(t, s, comm.Inbox{FromUser: d.Encode("HELLO")})
	// "greeted" must reach the world in plain form even though the user
	// channel is dialected.
	if out.ToWorld != "greeted" {
		t.Fatalf("world channel transformed: %q", out.ToWorld)
	}
}

func TestNoisyExtremes(t *testing.T) {
	t.Parallel()

	always := Noisy(&commtest.Echo{}, 1.0)
	always.Reset(xrand.New(1))
	for i := 0; i < 20; i++ {
		if out := step(t, always, comm.Inbox{FromUser: "x"}); !out.ToUser.Empty() {
			t.Fatal("p=1 server let a message through")
		}
	}

	never := Noisy(&commtest.Echo{}, 0.0)
	never.Reset(xrand.New(1))
	for i := 0; i < 20; i++ {
		if out := step(t, never, comm.Inbox{FromUser: "x"}); out.ToUser != "x" {
			t.Fatal("p=0 server dropped a message")
		}
	}
}

func TestNoisyIntermediate(t *testing.T) {
	t.Parallel()

	s := Noisy(&commtest.Echo{}, 0.5)
	s.Reset(xrand.New(7))
	through := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if out := step(t, s, comm.Inbox{FromUser: "x"}); !out.ToUser.Empty() {
			through++
		}
	}
	if through < n/3 || through > 2*n/3 {
		t.Fatalf("p=0.5 passed %d/%d messages", through, n)
	}
}

func TestNoisyClampsProbability(t *testing.T) {
	t.Parallel()

	s := Noisy(&commtest.Echo{}, -3)
	s.Reset(xrand.New(1))
	if out := step(t, s, comm.Inbox{FromUser: "x"}); out.ToUser != "x" {
		t.Fatal("negative p should clamp to 0")
	}
}

func TestNoisyNilRandSafe(t *testing.T) {
	t.Parallel()

	s := Noisy(&commtest.Echo{}, 0.5)
	s.Reset(nil)
	step(t, s, comm.Inbox{FromUser: "x"})
}

func TestObstinateIgnoresEverything(t *testing.T) {
	t.Parallel()

	s := Obstinate()
	s.Reset(xrand.New(1))
	out := step(t, s, comm.Inbox{FromUser: "HELLO", FromWorld: "urgent"})
	if out != (comm.Outbox{}) {
		t.Fatalf("obstinate server responded: %+v", out)
	}
}

func TestDialectClass(t *testing.T) {
	t.Parallel()

	// Over a dialect family, Dialected(base, d_i) is the class's server
	// i: it must understand dialect i and only dialect i.
	fam := wordFam(t, 5)
	for i := 0; i < fam.Size(); i++ {
		for j := 0; j < fam.Size(); j++ {
			s := Dialected(&commtest.GreetServer{}, fam.Dialect(i))
			s.Reset(xrand.New(1))
			out := step(t, s, comm.Inbox{FromUser: fam.Dialect(j).Encode("HELLO")})
			understood := out.ToWorld == "greeted"
			if (i == j) != understood {
				t.Fatalf("server %d vs dialect %d: understood=%v", i, j, understood)
			}
		}
	}
}

func TestSlowDelaysWholeOutbox(t *testing.T) {
	t.Parallel()

	s := Slow(&commtest.GreetServer{}, 2)
	s.Reset(xrand.New(1))

	out := step(t, s, comm.Inbox{FromUser: "HELLO"})
	if out != (comm.Outbox{}) {
		t.Fatalf("round 0 output not delayed: %+v", out)
	}
	out = step(t, s, comm.Inbox{})
	if out != (comm.Outbox{}) {
		t.Fatalf("round 1 output not delayed: %+v", out)
	}
	out = step(t, s, comm.Inbox{})
	if out.ToWorld != "greeted" || out.ToUser != "WELCOME" {
		t.Fatalf("round 2 should deliver the delayed outbox: %+v", out)
	}
}

func TestSlowZeroTransparent(t *testing.T) {
	t.Parallel()

	s := Slow(&commtest.GreetServer{}, 0)
	s.Reset(xrand.New(1))
	out := step(t, s, comm.Inbox{FromUser: "HELLO"})
	if out.ToWorld != "greeted" {
		t.Fatalf("zero slowness altered timing: %+v", out)
	}
}

func TestSlowResetClearsQueue(t *testing.T) {
	t.Parallel()

	s := Slow(&commtest.GreetServer{}, 1)
	s.Reset(xrand.New(1))
	step(t, s, comm.Inbox{FromUser: "HELLO"})
	s.Reset(xrand.New(1))
	if out := step(t, s, comm.Inbox{}); out != (comm.Outbox{}) {
		t.Fatalf("stale outbox leaked across Reset: %+v", out)
	}
}

// silenceCounter wraps a dialect and counts the times it is asked to
// translate the empty message.
type silenceCounter struct {
	dialect.Dialect
	silent, spoken *int
}

func (d silenceCounter) count(m comm.Message) {
	if m.Empty() {
		*d.silent++
	} else {
		*d.spoken++
	}
}

func (d silenceCounter) Encode(m comm.Message) comm.Message {
	d.count(m)
	return d.Dialect.Encode(m)
}

func (d silenceCounter) Decode(m comm.Message) comm.Message {
	d.count(m)
	return d.Dialect.Decode(m)
}

// TestDialectedNeverTranslatesSilence pins the consumer side of the
// dialect silence contract: the dialect wrappers pass empty messages
// through without consulting the dialect, in both directions, while
// still translating what is said. The traffic is a retrying user's —
// a command every other round, silence in between — against a server
// that echoes, so silence flows both ways.
func TestDialectedNeverTranslatesSilence(t *testing.T) {
	t.Parallel()

	base := wordFam(t, 4)
	var silent, spoken int
	ds := make([]dialect.Dialect, base.Size())
	for i := range ds {
		ds[i] = silenceCounter{Dialect: base.Dialect(i), silent: &silent, spoken: &spoken}
	}
	fam, err := dialect.NewFamily("counted", ds)
	if err != nil {
		t.Fatal(err)
	}
	cmd := base.Dialect(1).Encode("HELLO")
	msgs := make([]comm.Message, 200)
	for i := 0; i < len(msgs); i += 2 {
		msgs[i] = cmd
	}
	for _, tc := range []struct {
		name string
		s    comm.Strategy
	}{
		{"Dialected", Dialected(&commtest.Echo{}, fam.Dialect(1))},
		{"DriftingDialected p=0", DriftingDialected(&commtest.Echo{}, fam, 1, 0)},
		{"DriftingDialected p=0.5", DriftingDialected(&commtest.Echo{}, fam, 1, 0.5)},
	} {
		silent, spoken = 0, 0
		outs := transcript(t, tc.s, 5, msgs)
		if silent != 0 {
			t.Errorf("%s: dialect asked to translate silence %d times", tc.name, silent)
		}
		if spoken == 0 {
			t.Errorf("%s: dialect never asked to translate a command", tc.name)
		}
		for i, out := range outs {
			if msgs[i].Empty() != out.ToUser.Empty() {
				t.Fatalf("%s round %d: echo of %q came back as %q", tc.name, i, msgs[i], out.ToUser)
			}
		}
	}
}
