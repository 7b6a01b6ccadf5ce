package harness

// ServerVerdict is one server's helpfulness verdict within a
// certification report.
type ServerVerdict struct {
	// Server labels the class member ("class[3]") or probe
	// ("probe:obstinate").
	Server string `json:"server"`

	// Probe marks known-unhelpful strategies that must not certify.
	Probe bool `json:"probe,omitempty"`

	// Helpful is the verdict; Witness is the first candidate index that
	// achieves the goal with this server, or -1.
	Helpful bool `json:"helpful"`
	Witness int  `json:"witness"`
}

// CertReport is the machine-readable form of a certification run: the
// helpfulness sweep over a server class plus the sensing function's safety
// and viability verdicts. It is fully deterministic given the
// configuration (no timings), so reports can be diffed across commits.
type CertReport struct {
	Goal    string `json:"goal"`
	Class   int    `json:"class"`
	Horizon int    `json:"horizon"`
	Seed    uint64 `json:"seed"`

	Servers []ServerVerdict `json:"servers"`

	// Safety and Viability list the sensing violations found; both
	// empty means Certified.
	Safety    []Violation `json:"safetyViolations"`
	Viability []Violation `json:"viabilityViolations"`

	// Certified reports whether sensing proved safe and viable and no
	// probe certified helpful — the empirical precondition of Theorem 1.
	Certified bool `json:"certified"`
}
