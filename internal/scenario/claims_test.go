package scenario

import (
	"strings"
	"testing"
)

// TestClaimsOracleIsOutside checks that Theorem 1 promises nothing for an
// oracle user, even one that succeeds, while the universal user against
// the same server holds; and that Claims refuses a window the certifier
// does not judge at.
func TestClaimsOracleIsOutside(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(&Spec{Name: "oracle", Axes: []Axis{
		{Name: "goal", Values: []string{"printing"}},
		{Name: "class", Values: Ints(4)},
		{Name: "server", Values: Ints(2)},
		{Name: "user", Values: []string{"universal", "oracle"}},
		{Name: "rounds", Values: Ints(300)},
	}, Seeds: 2, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	claims, err := m.Claims(nil, SweepConfig{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"universal": Holds, "oracle": Outside + ": user not universal; succeeded anyway"}
	for _, c := range claims {
		user, _ := findAxis(c.Axes, "user")
		got := c.Verdict
		if c.Why != "" {
			got += ": " + c.Why
		}
		if got != want[user] {
			t.Errorf("user %s: verdict %q, want %q", user, got, want[user])
		}
	}

	if _, err := m.Claims(nil, SweepConfig{Window: 5}); err == nil || !strings.Contains(err.Error(), "window 5") {
		t.Fatalf("Claims at window 5: error %v, want it refused", err)
	}
}
