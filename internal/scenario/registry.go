package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/goals/control"
	"repro/internal/goals/fsm"
	"repro/internal/goals/printing"
	"repro/internal/goals/transfer"
	"repro/internal/goals/treasure"
	"repro/internal/sensing"
	"repro/internal/server"
	"repro/internal/universal"
)

// The axes the registry interprets. A scenario using any other axis name
// is rejected, so typos in specs fail loudly instead of silently running
// the default.
//
//	goal      (required) registered goal name
//	class     server class size (default 8)
//	server    class member index, negative counts from the end
//	          (default -1, the worst-case member), or "obstinate"
//	param     goal-specific size: transfer chunk count, control span,
//	          printing paper budget (default 0 = the goal's default)
//	env       world environment choice in [0, the goal's EnvChoices)
//	          (default 0)
//	patience  sensing patience in rounds (default 0 = the goal's default)
//	noise     per-message drop probability on the user channel (default 0)
//	slow      whole-profile slowdown in rounds (default 0)
//	user      "universal" (default), "shuffled:<seed>" for a universal
//	          user over a shuffled enumeration, or "oracle" for the
//	          candidate matching the server index
//	rounds    execution horizon (default 0 = the engine default)
//	byzantine corrupted-round budget of the Byzantine adversary wrapper
//	          (default 0 = honest)
//	mislead   per-round probability the server suppresses its action
//	          while claiming past progress (default 0 = honest)
//	drift     per-round probability the server re-draws its dialect —
//	          Markov-switching dialects (default 0 = fixed dialect;
//	          only dialect-class goals accept it)
//	space     fsm goals only: machine space as "NxAxB" (states x inputs
//	          x outputs)
//	machine   fsm goals only: machine index within the space
var knownAxes = map[string]bool{
	"goal": true, "class": true, "server": true, "param": true,
	"env": true, "patience": true, "noise": true,
	"slow": true, "user": true, "rounds": true,
	"byzantine": true, "mislead": true, "drift": true,
	"space": true, "machine": true,
}

// Axes holds the parsed values of the registry's common axes, handed to
// goal builders so they construct families and sensing once.
type Axes struct {
	Class     int
	Param     int
	Patience  int
	Env       int
	Rounds    int
	Slow      int
	Byzantine int
	Noise     float64
	Mislead   float64
	Drift     float64
	Server    string
	User      string
	Space     string
	Machine   string
}

// Parts is a goal builder's output: everything goal-specific the registry
// needs to assemble a scenario's parties.
type Parts struct {
	// Goal is the compact goal instance.
	Goal goal.CompactGoal

	// Enum enumerates the candidate user strategies (stateless; shared
	// across trials).
	Enum enumerate.Enumerator

	// Sense returns a fresh sensing function per call — senses are
	// stateful and must not be shared across trials.
	Sense func() sensing.Sense

	// Member instantiates the i-th server class member (before Bind
	// applies the adversary and transform wrappers).
	Member func(i int) comm.Strategy

	// Drift instantiates the i-th member with a Markov-switching dialect
	// of the given per-round switch probability, replacing Member when
	// the drift axis is positive. Nil means the goal's class has no
	// dialect to drift — such goals reject a positive drift axis.
	Drift func(i int, p float64) comm.Strategy
}

// Builder resolves the goal-specific parts of a scenario. A sweep binds
// the next chunk's scenarios while the trials of earlier ones run, so a
// builder must share no unsynchronized state with the parts it built
// before.
type Builder func(ax Axes) (*Parts, error)

// Binding is a scenario resolved into executable parties plus the
// execution horizon. Factories are safe to call once per trial, from any
// goroutine.
type Binding struct {
	Goal      goal.CompactGoal
	User      func() (comm.Strategy, error)
	Server    func() comm.Strategy
	World     func() goal.World
	MaxRounds int
}

// Registry maps goal names to builders.
type Registry struct {
	builders map[string]Builder
	version  string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{builders: make(map[string]Builder)}
}

// Register installs a builder for the named goal, replacing any previous
// one. Registering resets the registry's version to "" (uncacheable):
// builders are code, so the registry cannot tell whether the change
// preserves the meaning of previously stored aggregates. Only Builtin
// versions a registry.
func (r *Registry) Register(name string, b Builder) {
	r.builders[name] = b
	r.version = ""
}

// Version identifies the registry's binding semantics for result caching
// and sweep fingerprints. The empty string means unversioned: sweeps
// still run, but bypass the cache, and fingerprints distinguish the
// registry from every versioned one.
func (r *Registry) Version() string { return r.version }

// builtinVersion keys the stock registry's cache entries; bump it when
// any builtin binding changes behavior. The fsm family carries its own
// version (fsm.FamilyVersion), composed in below, so a semantic change
// to generated goals invalidates cached aggregates without touching the
// stock goals' identity — the registry analogue of a versioned
// sub-registry.
const builtinVersion = "builtin/1"

// Builtin returns a fresh registry of the stock goals — printing,
// treasure, transfer and control over their standard dialect classes and
// stock sensing — plus the generated fsm goal family (one goal per
// machine of a declared fst space, selected by the space/machine axes).
func Builtin() *Registry {
	r := NewRegistry()
	// The stock goals predate the generated-family axes; a spec that sets
	// them on a stock goal is a mistake, not a default.
	fsmAxes := func(name string, ax Axes) error {
		if ax.Space != "" || ax.Machine != "" {
			return fmt.Errorf("%s has no space/machine axes", name)
		}
		return nil
	}
	r.Register("printing", func(ax Axes) (*Parts, error) {
		if err := fsmAxes("printing", ax); err != nil {
			return nil, err
		}
		fam, err := dialect.NewWordFamily(printing.Vocabulary(), ax.Class)
		if err != nil {
			return nil, err
		}
		return dialectClass(&Parts{
			Goal:  &printing.Goal{Paper: ax.Param},
			Enum:  printing.Enum(fam),
			Sense: func() sensing.Sense { return printing.Sense(ax.Patience) },
		}, fam, func() comm.Strategy { return &printing.Server{} }), nil
	})
	r.Register("treasure", func(ax Axes) (*Parts, error) {
		if err := fsmAxes("treasure", ax); err != nil {
			return nil, err
		}
		if ax.Param != 0 {
			return nil, fmt.Errorf("treasure has no param axis (got %d)", ax.Param)
		}
		return &Parts{
			Goal:  &treasure.Goal{},
			Enum:  treasure.Enum(ax.Class),
			Sense: func() sensing.Sense { return treasure.Sense(ax.Patience) },
			Member: func(i int) comm.Strategy {
				return &treasure.Server{Secret: i}
			},
			// Password servers share one language; there is no dialect
			// to drift, so Drift stays nil and drift > 0 is rejected.
		}, nil
	})
	r.Register("transfer", func(ax Axes) (*Parts, error) {
		if err := fsmAxes("transfer", ax); err != nil {
			return nil, err
		}
		fam, err := dialect.NewWordFamily(transfer.Vocabulary(), ax.Class)
		if err != nil {
			return nil, err
		}
		return dialectClass(&Parts{
			Goal:  &transfer.Goal{K: ax.Param},
			Enum:  transfer.Enum(fam),
			Sense: func() sensing.Sense { return transfer.Sense(ax.Patience) },
		}, fam, func() comm.Strategy { return &transfer.Server{} }), nil
	})
	r.Register("control", func(ax Axes) (*Parts, error) {
		if err := fsmAxes("control", ax); err != nil {
			return nil, err
		}
		fam, err := control.NewUnitsFamily(ax.Class)
		if err != nil {
			return nil, err
		}
		return dialectClass(&Parts{
			Goal:  &control.Goal{Span: ax.Param},
			Enum:  control.Enum(fam),
			Sense: func() sensing.Sense { return control.Sense(ax.Patience) },
		}, fam, func() comm.Strategy { return &control.Server{} }), nil
	})
	r.Register("fsm", func(ax Axes) (*Parts, error) {
		if ax.Param != 0 {
			return nil, fmt.Errorf("fsm has no param axis (got %d)", ax.Param)
		}
		spaceStr := ax.Space
		if spaceStr == "" {
			spaceStr = "2x2x2"
		}
		sp, err := fsm.ParseSpace(spaceStr)
		if err != nil {
			return nil, err
		}
		var idx uint64
		if ax.Machine != "" {
			idx, err = strconv.ParseUint(ax.Machine, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("machine %q is not an unsigned integer", ax.Machine)
			}
		}
		g, err := fsm.New(sp, idx)
		if err != nil {
			return nil, err
		}
		fam, err := dialect.NewWordFamily(fsm.Vocabulary(), ax.Class)
		if err != nil {
			return nil, err
		}
		return dialectClass(&Parts{
			Goal:  g,
			Enum:  g.Enum(fam),
			Sense: func() sensing.Sense { return fsm.Sense(ax.Patience) },
		}, fam, func() comm.Strategy { return &fsm.Server{G: g} }), nil
	})
	// Set last: Register resets the version. The fsm family's own version
	// rides along so its semantic bumps invalidate exactly the cached
	// aggregates that depend on generated-goal bindings.
	r.version = builtinVersion + "+" + fsm.FamilyVersion
	return r
}

// dialectClass completes a dialect goal's parts with its class: member i
// is the native server speaking the family's i-th dialect, and its
// drifting variant starts there.
func dialectClass(p *Parts, fam *dialect.Family, native func() comm.Strategy) *Parts {
	p.Member = func(i int) comm.Strategy { return server.Dialected(native(), fam.Dialect(i)) }
	p.Drift = func(i int, prob float64) comm.Strategy { return server.DriftingDialected(native(), fam, i, prob) }
	return p
}

// parseAxes extracts and validates the common axes of a scenario.
func parseAxes(sc *Scenario) (Axes, error) {
	var ax Axes
	for _, av := range sc.Values {
		if !knownAxes[av.Name] {
			return ax, fmt.Errorf("scenario: unknown axis %q (known: goal class server param env patience noise slow user rounds byzantine mislead drift space machine)", av.Name)
		}
	}
	var err error
	if ax.Class, err = sc.Int("class", 8); err != nil {
		return ax, err
	}
	if ax.Class < 1 {
		return ax, fmt.Errorf("scenario: class size %d < 1", ax.Class)
	}
	if ax.Param, err = sc.Int("param", 0); err != nil {
		return ax, err
	}
	if ax.Patience, err = sc.Int("patience", 0); err != nil {
		return ax, err
	}
	if ax.Env, err = sc.Int("env", 0); err != nil {
		return ax, err
	}
	if ax.Rounds, err = sc.Int("rounds", 0); err != nil {
		return ax, err
	}
	if ax.Slow, err = sc.Int("slow", 0); err != nil {
		return ax, err
	}
	if ax.Noise, err = sc.Float("noise", 0); err != nil {
		return ax, err
	}
	if ax.Noise < 0 || ax.Noise > 1 {
		return ax, fmt.Errorf("scenario: noise %g outside [0,1]", ax.Noise)
	}
	if ax.Byzantine, err = sc.Int("byzantine", 0); err != nil {
		return ax, err
	}
	if ax.Byzantine < 0 {
		return ax, fmt.Errorf("scenario: byzantine budget %d < 0", ax.Byzantine)
	}
	if ax.Mislead, err = sc.Float("mislead", 0); err != nil {
		return ax, err
	}
	if ax.Mislead < 0 || ax.Mislead > 1 {
		return ax, fmt.Errorf("scenario: mislead %g outside [0,1]", ax.Mislead)
	}
	if ax.Drift, err = sc.Float("drift", 0); err != nil {
		return ax, err
	}
	if ax.Drift < 0 || ax.Drift > 1 {
		return ax, fmt.Errorf("scenario: drift %g outside [0,1]", ax.Drift)
	}
	ax.Server = sc.Str("server", "-1")
	ax.User = sc.Str("user", "universal")
	ax.Space = sc.Str("space", "")
	ax.Machine = sc.Str("machine", "")
	return ax, nil
}

// Parts resolves a scenario's goal-specific cast — goal, candidate
// enumeration, sensing and class members — via the registered goal
// builder, along with the parsed common axes. It is the first half of
// Bind, for callers that assemble parties themselves.
func (r *Registry) Parts(sc *Scenario) (*Parts, Axes, error) {
	goalName, ok := sc.Get("goal")
	if !ok {
		return nil, Axes{}, fmt.Errorf("scenario: %s has no goal axis", sc.ID())
	}
	build, ok := r.builders[goalName]
	if !ok {
		return nil, Axes{}, fmt.Errorf("scenario: no builder registered for goal %q", goalName)
	}
	ax, err := parseAxes(sc)
	if err != nil {
		return nil, ax, err
	}
	parts, err := build(ax)
	if err != nil {
		return nil, ax, fmt.Errorf("scenario: goal %q: %w", goalName, err)
	}
	return parts, ax, nil
}

// Bind resolves a scenario into executable parties via the registered goal
// builders.
func (r *Registry) Bind(sc *Scenario) (*Binding, error) {
	parts, ax, err := r.Parts(sc)
	if err != nil {
		return nil, err
	}
	if n := parts.Goal.EnvChoices(); ax.Env < 0 || ax.Env >= n {
		return nil, fmt.Errorf("scenario: env %d outside the goal's %d environment choices", ax.Env, n)
	}

	// Resolve the server: a class member index (negative counts from the
	// end), or the obstinate probe. Drift replaces the member's fixed
	// dialect.
	memberIdx := -1
	var member func(i int) comm.Strategy
	if ax.Server == "obstinate" {
		if ax.Drift > 0 {
			return nil, fmt.Errorf("scenario: obstinate server has no dialect to drift")
		}
		member = func(int) comm.Strategy { return server.Obstinate() }
	} else {
		idx, err := strconv.Atoi(ax.Server)
		if err != nil {
			return nil, fmt.Errorf("scenario: server %q is neither an index nor \"obstinate\"", ax.Server)
		}
		if idx < 0 {
			idx += ax.Class
		}
		if idx < 0 || idx >= ax.Class {
			return nil, fmt.Errorf("scenario: server index %s outside class of size %d", ax.Server, ax.Class)
		}
		memberIdx = idx
		member = parts.Member
		if ax.Drift > 0 {
			if parts.Drift == nil {
				return nil, fmt.Errorf("scenario: goal %q has no dialect to drift", sc.Str("goal", ""))
			}
			drift := ax.Drift
			member = func(i int) comm.Strategy { return parts.Drift(i, drift) }
		}
	}
	// Each wrapper whose axis is nonzero applies, innermost first:
	// corruption at the server's mouth (Byzantine), the misleading policy
	// around whatever comes out, the server's own slowness, and last the
	// noisy channel in front of it. A wrapper splits its generator off the
	// trial's after the server it wraps, so this order is part of every
	// adversarial scenario's results. The closure copies the four axes
	// rather than capturing ax, which would move ax to the heap.
	byzantine, mislead, slow, noise := ax.Byzantine, ax.Mislead, ax.Slow, ax.Noise
	mkServer := func() comm.Strategy {
		s := member(memberIdx)
		if byzantine > 0 {
			s = server.Byzantine(s, byzantine)
		}
		if mislead > 0 {
			s = server.Misleading(s, mislead)
		}
		if slow > 0 {
			s = server.Slow(s, slow)
		}
		if noise > 0 {
			s = server.Noisy(s, noise)
		}
		return s
	}

	// Resolve the user strategy.
	var mkUser func() (comm.Strategy, error)
	switch {
	case ax.User == "universal":
		mkUser = func() (comm.Strategy, error) {
			return universal.NewCompactUser(parts.Enum, parts.Sense())
		}
	case strings.HasPrefix(ax.User, "shuffled:"):
		seed, err := strconv.ParseUint(ax.User[len("shuffled:"):], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("scenario: user %q: bad shuffle seed", ax.User)
		}
		mkUser = func() (comm.Strategy, error) {
			enum, err := enumerate.Shuffled(parts.Enum, seed)
			if err != nil {
				return nil, err
			}
			return universal.NewCompactUser(enum, parts.Sense())
		}
	case ax.User == "oracle":
		if memberIdx < 0 {
			return nil, fmt.Errorf("scenario: oracle user needs an indexed server, not %q", ax.Server)
		}
		mkUser = func() (comm.Strategy, error) {
			return parts.Enum.Strategy(memberIdx), nil
		}
	default:
		return nil, fmt.Errorf("scenario: unknown user %q (universal, shuffled:<seed>, oracle)", ax.User)
	}

	env := ax.Env
	return &Binding{
		Goal:      parts.Goal,
		User:      mkUser,
		Server:    mkServer,
		World:     func() goal.World { return parts.Goal.NewWorld(goal.Env{Choice: env}) },
		MaxRounds: ax.Rounds,
	}, nil
}
