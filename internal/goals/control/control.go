// Package control implements an actuation goal with a different flavour of
// incompatibility: the server *understands* every command but interprets
// its numeric argument in its own calibration (a constant offset in raw
// units). Misunderstanding here is quantitative, not lexical — wrong
// candidates actively move the plant to the wrong place rather than being
// ignored.
//
// The cast:
//
//   - World: a one-dimensional plant. The server applies bounded forces;
//     the world reports position and setpoint to the user. The compact goal
//     is achieved once the plant sits at the setpoint.
//   - Server: an actuator whose zero point is offset by its calibration
//     (Units dialect). A command "MOVE w" moves the plant by clamp(w − o).
//   - Users: Candidate i assumes calibration i (the enumeration class);
//     Adaptive identifies the calibration from one probe and then controls
//     exactly — the paper's closing observation that special classes admit
//     algorithms far better than generic enumeration.
//
// With a mismatched candidate the closed loop has a non-zero fixed point
// (steady-state error equal to the calibration difference), so the plant
// never reaches the setpoint and progress sensing evicts the candidate.
package control

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/msgbuf"
	"repro/internal/sensing"
	"repro/internal/xrand"
)

// MaxForce bounds the per-round actuation in native units.
const MaxForce = 10

// DefaultPatience is the progress-sensing patience: rounds without the
// error shrinking before a candidate is evicted.
const DefaultPatience = 6

func clamp(x, bound int) int {
	if x > bound {
		return bound
	}
	if x < -bound {
		return -bound
	}
	return x
}

// Units is the calibration dialect: it shifts the numeric argument of MOVE
// commands by a constant offset, leaving every other message untouched.
// Encode adds the offset (user's intended value → wire), Decode subtracts
// it (wire → server's native units).
type Units struct {
	// Off is the calibration offset; the matching server cancels it.
	Off int
	// Idx is the dialect's index within its family.
	Idx int
}

var _ dialect.Dialect = Units{}

// ID implements dialect.Dialect.
func (u Units) ID() int { return u.Idx }

// Name implements dialect.Dialect.
func (u Units) Name() string { return fmt.Sprintf("units(%+d)#%d", u.Off, u.Idx) }

// Cached protocol messages for the force range commands and replies
// actually use: |argument| never exceeds 2*MaxForce (a clamped intent
// shifted by a calibration offset that is itself at most MaxForce), so
// the steady-state control loop allocates no message strings at all.
const msgCacheSpan = 2 * MaxForce

var (
	moveMsgs  [2*msgCacheSpan + 1]comm.Message
	movedMsgs [2*msgCacheSpan + 1]comm.Message
	forceMsgs [2*msgCacheSpan + 1]comm.Message
)

func init() {
	for n := -msgCacheSpan; n <= msgCacheSpan; n++ {
		moveMsgs[n+msgCacheSpan] = comm.Message("MOVE " + strconv.Itoa(n))
		movedMsgs[n+msgCacheSpan] = comm.Message("MOVED " + strconv.Itoa(n))
		forceMsgs[n+msgCacheSpan] = comm.Message("FORCE " + strconv.Itoa(n))
	}
}

// moveMsg returns "MOVE <n>", cached for the protocol's argument range.
func moveMsg(n int) comm.Message {
	if n >= -msgCacheSpan && n <= msgCacheSpan {
		return moveMsgs[n+msgCacheSpan]
	}
	return comm.Message("MOVE " + strconv.Itoa(n))
}

func shiftMove(m comm.Message, delta int) comm.Message {
	rest, ok := strings.CutPrefix(string(m), "MOVE ")
	if !ok {
		return m
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return m
	}
	return moveMsg(n + delta)
}

// Encode implements dialect.Dialect.
func (u Units) Encode(m comm.Message) comm.Message { return shiftMove(m, u.Off) }

// Decode implements dialect.Dialect.
func (u Units) Decode(m comm.Message) comm.Message { return shiftMove(m, -u.Off) }

// OffsetFor returns the calibration offset assigned to family index i:
// 0, +1, −1, +2, −2, ... so that |offset| ≤ ⌈n/2⌉ stays within the force
// bound for the class sizes the experiments use.
func OffsetFor(i int) int {
	if i == 0 {
		return 0
	}
	mag := (i + 1) / 2
	if i%2 == 1 {
		return mag
	}
	return -mag
}

// NewUnitsFamily builds the calibration class of size n. Offsets exceeding
// MaxForce would make the actuator unable to cancel its own calibration on
// small commands, so n is capped at 2*MaxForce+1.
func NewUnitsFamily(n int) (*dialect.Family, error) {
	if n < 1 {
		return nil, fmt.Errorf("control: family size %d < 1", n)
	}
	if n > 2*MaxForce+1 {
		return nil, fmt.Errorf("control: family size %d exceeds calibration range %d",
			n, 2*MaxForce+1)
	}
	ds := make([]dialect.Dialect, n)
	for i := range ds {
		ds[i] = Units{Off: OffsetFor(i), Idx: i}
	}
	return dialect.NewFamily("units", ds)
}

// Goal is the compact actuation goal: the plant must sit at the setpoint.
// Env.Choice selects the (setpoint, start) pair.
type Goal struct {
	// Span bounds the |setpoint| and |start| magnitude; 0 means 40.
	Span int
}

var (
	_ goal.CompactGoal = (*Goal)(nil)
	_ goal.Forgiving   = (*Goal)(nil)
	_ goal.WorldJudge  = (*Goal)(nil)
)

func (g *Goal) span() int {
	if g.Span <= 0 {
		return 40
	}
	return g.Span
}

// Name implements goal.Goal.
func (g *Goal) Name() string { return "control" }

// EnvChoices implements goal.Goal.
func (g *Goal) EnvChoices() int { return 8 }

// NewWorld implements goal.Goal.
func (g *Goal) NewWorld(env goal.Env) goal.World {
	r := xrand.New(uint64(env.Choice)*0xD1B54A32D192ED03 + 7)
	span := g.span()
	initPos := r.Intn(2*span+1) - span
	return &World{
		initPos: initPos,
		pos:     initPos,
		set:     r.Intn(2*span+1) - span,
	}
}

// Acceptable implements goal.CompactGoal.
func (g *Goal) Acceptable(prefix comm.History) bool {
	return strings.HasSuffix(string(prefix.Last()), "at=1")
}

// AcceptableWorld implements goal.WorldJudge: the same predicate as
// Acceptable ("at=1" iff the plant sits at the setpoint), judged on the
// live plant.
func (g *Goal) AcceptableWorld(w goal.World) bool {
	if pw, ok := w.(*World); ok {
		return pw.pos == pw.set
	}
	return strings.HasSuffix(string(w.Snapshot()), "at=1")
}

// ForgivingGoal implements goal.Forgiving: the plant can always still be
// driven to the setpoint.
func (g *Goal) ForgivingGoal() bool { return true }

// World is the plant. It applies "FORCE <f>" from the server (clamped to
// MaxForce) and reports "POS <p>|SET <s>" to the user every round.
// Snapshot: "pos=<p>;set=<s>;at=<0|1>".
// Hot-path layout: the plant is three scalars (initPos, pos, set) plus a
// generation counter that bumps exactly when the plant moves — which is
// exactly when the telemetry changes — so state-change detection is one
// integer compare. Telemetry strings are pure functions
// of (pos, set) with set fixed per instance, so they are memoized in a
// Reset-surviving table keyed by pos: a trajectory revisiting a position
// (or a reused world replaying a run) serves cached strings.
type World struct {
	initPos  int
	pos, set int
	gen      uint64 // status generation: bumps when the plant moves

	status    comm.Message                    // cached telemetry, rebuilt when pos changes
	statusTab msgbuf.Table[int, comm.Message] // pos → telemetry, survives Reset
	statusGen uint64
	buf       []byte // reusable build buffer for status
}

var (
	_ goal.World     = (*World)(nil)
	_ comm.StepperTo = (*World)(nil)
)

// Reset implements comm.Strategy. The telemetry table persists across
// Reset: initPos and set are fixed per instance, so last run's strings
// remain correct.
func (w *World) Reset(*xrand.Rand) {
	w.pos = w.initPos
	w.status = ""
	w.gen++ // invalidates the status cache
}

// Step implements comm.Strategy.
func (w *World) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(w, in) }

// StepTo implements comm.StepperTo.
func (w *World) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if rest, ok := strings.CutPrefix(string(in.FromServer), "FORCE "); ok {
		if f, err := strconv.Atoi(rest); err == nil && f != 0 {
			w.pos += clamp(f, MaxForce)
			w.gen++
		}
	}
	// The telemetry message only changes when the plant moves; a settled
	// loop re-sends one cached string.
	if w.status == "" || w.statusGen != w.gen {
		if s, ok := w.statusTab.Get(w.pos); ok {
			w.status = s
		} else {
			w.buf = append(w.buf[:0], "POS "...)
			w.buf = strconv.AppendInt(w.buf, int64(w.pos), 10)
			w.buf = append(w.buf, "|SET "...)
			w.buf = strconv.AppendInt(w.buf, int64(w.set), 10)
			w.status = comm.Message(w.buf) // string conversion copies
			w.statusTab.Put(w.pos, w.status)
		}
		w.statusGen = w.gen
	}
	out.ToUser = w.status
	return nil
}

// Snapshot implements goal.World: "pos=<p>;set=<s>;at=<0|1>".
func (w *World) Snapshot() comm.WorldState {
	var a [48]byte
	b := append(a[:0], "pos="...)
	b = strconv.AppendInt(b, int64(w.pos), 10)
	b = append(b, ";set="...)
	b = strconv.AppendInt(b, int64(w.set), 10)
	if w.pos == w.set {
		b = append(b, ";at=1"...)
	} else {
		b = append(b, ";at=0"...)
	}
	return comm.WorldState(b)
}

// ParsePlant decodes the world's status message.
func ParsePlant(m comm.Message) (pos, set int, ok bool) {
	posPart, setPart, found := strings.Cut(string(m), "|")
	if !found {
		return 0, 0, false
	}
	ps, ok1 := strings.CutPrefix(posPart, "POS ")
	ss, ok2 := strings.CutPrefix(setPart, "SET ")
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	p, err1 := strconv.Atoi(ps)
	s, err2 := strconv.Atoi(ss)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return p, s, true
}

// Server is the actuator's native protocol: "MOVE <n>" applies a force of
// n native units (clamped) and acknowledges "MOVED <n>". Wrap with
// server.Dialected and a Units dialect to obtain a calibration-offset
// class.
type Server struct{}

var _ comm.StepperTo = (*Server)(nil)

// Reset implements comm.Strategy.
func (*Server) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (s *Server) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

// StepTo implements comm.StepperTo.
func (*Server) StepTo(in comm.Inbox, out *comm.Outbox) error {
	rest, ok := strings.CutPrefix(string(in.FromUser), "MOVE ")
	if !ok {
		return nil
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return nil
	}
	n = clamp(n, MaxForce)
	out.ToUser, out.ToWorld = movedMsgs[n+msgCacheSpan], forceMsgs[n+msgCacheSpan]
	return nil
}

// CycleRounds is the command→actuation→telemetry feedback latency: a
// command sent at round t moves the plant at t+2 and is visible to the
// user at t+3. Controllers issue one command per cycle; acting every round
// against stale telemetry would triple-apply each correction and oscillate.
const CycleRounds = 3

// Candidate is the calibration-i controller: proportional control encoded
// in dialect i, one command per feedback cycle. With the matching server
// the applied force equals the intended correction; otherwise the closed
// loop sticks at a non-zero steady-state error.
type Candidate struct {
	// D is the calibration dialect this candidate assumes.
	D dialect.Dialect

	phase int
}

var _ comm.StepperTo = (*Candidate)(nil)

// Reset implements comm.Strategy.
func (c *Candidate) Reset(*xrand.Rand) { c.phase = 0 }

// Step implements comm.Strategy.
func (c *Candidate) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(c, in) }

// StepTo implements comm.StepperTo.
func (c *Candidate) StepTo(in comm.Inbox, out *comm.Outbox) error {
	defer func() { c.phase++ }()
	if c.phase%CycleRounds != 0 {
		return nil
	}
	pos, set, ok := ParsePlant(in.FromWorld)
	if !ok || pos == set {
		return nil
	}
	d := clamp(set-pos, MaxForce)
	out.ToServer = c.D.Encode(moveMsg(d))
	return nil
}

// Enum enumerates one Candidate per calibration in the family.
func Enum(fam *dialect.Family) enumerate.Enumerator {
	return enumerate.FromFunc("control/"+fam.Name(), fam.Size(), func(i int) comm.Strategy {
		return &Candidate{D: fam.Dialect(i)}
	})
}

// Sense is positive while the plant is at the setpoint or the absolute
// error shrank within the patience window. Safe — a stuck non-zero error
// is exactly goal failure — and viable, since the matching candidate
// shrinks the error every control cycle.
func Sense(patience int) sensing.Sense {
	if patience <= 0 {
		patience = DefaultPatience
	}
	return &errorSense{patience: patience}
}

type errorSense struct {
	patience int
	started  bool
	best     int
	idle     int
}

var _ sensing.Sense = (*errorSense)(nil)

func (s *errorSense) Reset() {
	s.started = false
	s.best = 0
	s.idle = 0
}

func (s *errorSense) Observe(rv *comm.RoundView) bool {
	pos, set, ok := ParsePlant(rv.In.FromWorld)
	if !ok {
		return true // no telemetry yet: grace
	}
	errAbs := pos - set
	if errAbs < 0 {
		errAbs = -errAbs
	}
	if errAbs == 0 {
		s.idle = 0
		return true
	}
	if !s.started || errAbs < s.best {
		s.started = true
		s.best = errAbs
		s.idle = 0
		return true
	}
	s.idle++
	return s.idle < s.patience
}

// Adaptive is the system-identification controller: it sends a zero-force
// probe, waits one feedback cycle, reads off the server's calibration from
// the plant's reaction, and from then on compensates exactly — one command
// per cycle. One strategy compatible with the entire calibration class,
// the "better performance in special cases of interest" the paper's
// discussion closes with.
type Adaptive struct {
	phase   int
	probed  bool
	probeAt int // phase at which the probe was sent; -1 = not sent
	lastPos int
	offset  int
}

var _ comm.StepperTo = (*Adaptive)(nil)

// Reset implements comm.Strategy.
func (a *Adaptive) Reset(*xrand.Rand) {
	a.phase = 0
	a.probed = false
	a.probeAt = -1
	a.lastPos = 0
	a.offset = 0
}

// Offset returns the identified calibration (valid once probing is done).
func (a *Adaptive) Offset() int { return a.offset }

// Step implements comm.Strategy.
func (a *Adaptive) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(a, in) }

// StepTo implements comm.StepperTo.
func (a *Adaptive) StepTo(in comm.Inbox, out *comm.Outbox) error {
	defer func() { a.phase++ }()
	pos, set, ok := ParsePlant(in.FromWorld)
	if !ok {
		return nil
	}

	if !a.probed {
		if a.probeAt < 0 {
			// Probe: "MOVE 0" in wire units; the server applies
			// clamp(0 − offset) one cycle later.
			a.probeAt = a.phase
			a.lastPos = pos
			out.ToServer = "MOVE 0"
			return nil
		}
		if a.phase < a.probeAt+CycleRounds {
			return nil // probe still in flight
		}
		a.offset = -(pos - a.lastPos)
		a.probed = true
		// Fall through into the control law this same round.
	}

	if (a.phase-a.probeAt)%CycleRounds != 0 {
		return nil
	}
	if pos == set {
		return nil
	}
	// Intended native force d must satisfy |d + offset| ≤ MaxForce so
	// the server's clamp doesn't distort it.
	d := clamp(set-pos, MaxForce-abs(a.offset))
	if d == 0 {
		d = sign(set - pos)
	}
	out.ToServer = moveMsg(d + a.offset)
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
