// Package learning implements the prediction goal behind Juba and Vempala's
// "Semantic Communication for Simple Goals is Equivalent to On-line
// Learning" — the follow-up direction the paper's §3 closes with.
//
// The world repeatedly poses queries x from a finite domain and the user
// must predict the label assigned by a hidden threshold concept; the
// compact goal is achieved iff the user makes only finitely many mistakes.
// The equivalence made executable:
//
//   - The generic universal user (enumerate concepts, switch on mistake) is
//     exactly the CONSERVATIVE online learner, with mistake bound O(M).
//   - The halving algorithm (binary search over the threshold class) is an
//     efficient universal user with mistake bound O(log M).
//   - A fixed wrong concept incurs unboundedly many mistakes, so the goal
//     fails.
//
// The server plays no role in this "simple goal": the knowledge gap is
// between user and world, which is what makes the goal equivalent to
// learning.
package learning

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/msgbuf"
	"repro/internal/sensing"
	"repro/internal/xrand"
)

// StallLimit is the number of rounds the world tolerates without an answer
// before the referee deems the prefix unacceptable: a silent user does not
// achieve the prediction goal.
const StallLimit = 8

// Goal is the compact prediction goal over the threshold concept class on
// the domain [0, M). Env.Choice selects the hidden concept.
type Goal struct {
	// M is the domain / concept-class size; 0 means 64.
	M int
}

var (
	_ goal.CompactGoal = (*Goal)(nil)
	_ goal.Forgiving   = (*Goal)(nil)
	_ goal.WorldJudge  = (*Goal)(nil)
)

func (g *Goal) m() int {
	if g.M <= 0 {
		return 64
	}
	return g.M
}

// Name implements goal.Goal.
func (g *Goal) Name() string { return "learning" }

// EnvChoices implements goal.Goal.
func (g *Goal) EnvChoices() int { return g.m() }

// NewWorld implements goal.Goal.
func (g *Goal) NewWorld(env goal.Env) goal.World {
	m := g.m()
	c := env.Choice % m
	if c < 0 {
		c += m
	}
	return &World{M: m, Concept: c}
}

// Acceptable implements goal.CompactGoal: a prefix is acceptable iff the
// user has answered at least one query, the most recent answer was correct,
// and the user is not stalling. Unacceptable prefixes are exactly the
// mistake (and stall) rounds, so "finitely many unacceptable prefixes" is
// "finitely many mistakes".
func (g *Goal) Acceptable(prefix comm.History) bool {
	st, ok := ParseState(prefix.Last())
	return ok && st.Answered > 0 && st.LastOK == 1 && st.Stall <= StallLimit
}

// AcceptableWorld implements goal.WorldJudge: the same predicate as
// Acceptable, judged on the live world's counters instead of a parsed
// snapshot.
func (g *Goal) AcceptableWorld(w goal.World) bool {
	if lw, ok := w.(*World); ok {
		return lw.answered > 0 && lw.lastOK == 1 && lw.stall <= StallLimit
	}
	st, ok := ParseState(w.Snapshot())
	return ok && st.Answered > 0 && st.LastOK == 1 && st.Stall <= StallLimit
}

// ForgivingGoal implements goal.Forgiving.
func (g *Goal) ForgivingGoal() bool { return true }

// Label is the threshold concept: concept c labels x as 1 iff x >= c.
func Label(concept, x int) int {
	if x >= concept {
		return 1
	}
	return 0
}

// State is the parsed form of the world's snapshot.
type State struct {
	Answered int
	Mistakes int
	// LastOK is 1 if the most recent answered query was correct, 0 if
	// it was a mistake, -1 if nothing has been answered.
	LastOK int
	// Stall is the number of rounds the current query has gone
	// unanswered.
	Stall int
}

// ParseState decodes a World snapshot.
func ParseState(ws comm.WorldState) (State, bool) {
	st := State{LastOK: -1}
	for _, part := range strings.Split(string(ws), ";") {
		key, val, found := strings.Cut(part, "=")
		if !found {
			return State{}, false
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return State{}, false
		}
		switch key {
		case "answered":
			st.Answered = n
		case "mistakes":
			st.Mistakes = n
		case "lastok":
			st.LastOK = n
		case "stall":
			st.Stall = n
		default:
			return State{}, false
		}
	}
	return st, true
}

// World poses queries and grades answers.
//
// World→user message: "Q <id> <x>|RES <previd> <ok|bad|none>".
// User→world answer: "P <id> <bit>". Answers to stale ids are ignored, so
// repeated answers never double-count.
type World struct {
	// M is the domain size; Concept the hidden threshold.
	M       int
	Concept int

	r        *xrand.Rand
	id       int
	x        int
	answered int
	mistakes int
	lastOK   int // -1 none, 0 mistake, 1 correct
	stall    int

	query   comm.Message // cached announcement, rebuilt when (id, x, lastOK) changes
	queryID int
	queryX  int
	queryOK int
	buf     []byte       // reusable build buffer
	arena   msgbuf.Arena // backs the query strings (ids grow without bound)
}

var (
	_ goal.World     = (*World)(nil)
	_ comm.StepperTo = (*World)(nil)
)

// Reset implements comm.Strategy.
func (w *World) Reset(r *xrand.Rand) {
	if r == nil {
		r = xrand.New(1)
	}
	w.r = r
	w.id = 1
	w.answered = 0
	w.mistakes = 0
	w.lastOK = -1
	w.stall = 0
	w.x = w.r.Intn(w.domain())
	w.query = ""
	w.arena.Reset()
}

func (w *World) domain() int {
	if w.M <= 0 {
		return 64
	}
	return w.M
}

// Mistakes returns the mistake count so far (for experiment metrics).
func (w *World) Mistakes() int { return w.mistakes }

// Answered returns how many queries have been graded.
func (w *World) Answered() int { return w.answered }

// Step implements comm.Strategy.
func (w *World) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(w, in) }

// StepTo implements comm.StepperTo.
func (w *World) StepTo(in comm.Inbox, out *comm.Outbox) error {
	w.stall++
	if rest, ok := strings.CutPrefix(string(in.FromUser), "P "); ok {
		if idStr, bitStr, found := strings.Cut(rest, " "); found {
			id, err1 := strconv.Atoi(idStr)
			bit, err2 := strconv.Atoi(bitStr)
			if err1 == nil && err2 == nil && id == w.id && (bit == 0 || bit == 1) {
				w.answered++
				trueLabel := Label(w.Concept, w.x)
				if bit == trueLabel {
					w.lastOK = 1
				} else {
					w.lastOK = 0
					w.mistakes++
				}
				w.id++
				w.x = w.r.Intn(w.domain())
				w.stall = 0
			}
		}
	}
	// The announcement depends only on (id, x, lastOK): rebuild on
	// change, re-send the cached string while the user stalls.
	if w.query == "" || w.queryID != w.id || w.queryX != w.x || w.queryOK != w.lastOK {
		res := "none"
		switch w.lastOK {
		case 1:
			res = "ok"
		case 0:
			res = "bad"
		}
		w.buf = append(w.buf[:0], "Q "...)
		w.buf = strconv.AppendInt(w.buf, int64(w.id), 10)
		w.buf = append(w.buf, ' ')
		w.buf = strconv.AppendInt(w.buf, int64(w.x), 10)
		w.buf = append(w.buf, "|RES "...)
		w.buf = strconv.AppendInt(w.buf, int64(w.id-1), 10)
		w.buf = append(w.buf, ' ')
		w.buf = append(w.buf, res...)
		// Query ids grow without bound, so the string cannot be interned
		// or cached; the arena amortizes a run's worth of announcements
		// into one block allocation.
		w.query = comm.Message(w.arena.Append(w.buf))
		w.queryID, w.queryX, w.queryOK = w.id, w.x, w.lastOK
	}
	out.ToUser = w.query
	return nil
}

// Snapshot implements goal.World:
// "answered=<n>;mistakes=<n>;lastok=<n>;stall=<n>".
func (w *World) Snapshot() comm.WorldState {
	var a [80]byte
	b := append(a[:0], "answered="...)
	b = strconv.AppendInt(b, int64(w.answered), 10)
	b = append(b, ";mistakes="...)
	b = strconv.AppendInt(b, int64(w.mistakes), 10)
	b = append(b, ";lastok="...)
	b = strconv.AppendInt(b, int64(w.lastOK), 10)
	b = append(b, ";stall="...)
	b = strconv.AppendInt(b, int64(w.stall), 10)
	return comm.WorldState(b)
}

// Query is the parsed form of a world announcement.
type Query struct {
	ID, X int
	ResID int
	Res   string // "ok", "bad" or "none"
}

// ParseQuery decodes a world→user message. It is on the per-round hot
// path of every learner, so it parses in place without scanning helpers
// that allocate, and it accepts exactly the canonical single-space
// format the world emits — not the whitespace variants a scanf-style
// parser would tolerate.
func ParseQuery(m comm.Message) (Query, bool) {
	qPart, resPart, found := strings.Cut(string(m), "|")
	if !found {
		return Query{}, false
	}
	var q Query
	rest, ok := strings.CutPrefix(qPart, "Q ")
	if !ok {
		return Query{}, false
	}
	idStr, xStr, found := strings.Cut(rest, " ")
	if !found {
		return Query{}, false
	}
	var err error
	if q.ID, err = strconv.Atoi(idStr); err != nil {
		return Query{}, false
	}
	if q.X, err = strconv.Atoi(xStr); err != nil {
		return Query{}, false
	}
	rest, ok = strings.CutPrefix(resPart, "RES ")
	if !ok {
		return Query{}, false
	}
	resIDStr, res, found := strings.Cut(rest, " ")
	if !found {
		return Query{}, false
	}
	if q.ResID, err = strconv.Atoi(resIDStr); err != nil {
		return Query{}, false
	}
	q.Res = res
	if q.Res != "ok" && q.Res != "bad" && q.Res != "none" {
		return Query{}, false
	}
	return q, true
}

// answerBuilder builds the "P <id> <bit>" answers a learner sends, one
// per graded query. Ids grow without bound, so the strings cannot be
// cached; the arena packs a whole execution's answers into one block
// allocation instead of one per answer.
type answerBuilder struct {
	arena msgbuf.Arena
	buf   []byte
}

func (b *answerBuilder) reset() { b.arena.Reset() }

func (b *answerBuilder) msg(id, bit int) comm.Message {
	b.buf = append(b.buf[:0], "P "...)
	b.buf = strconv.AppendInt(b.buf, int64(id), 10)
	b.buf = append(b.buf, ' ')
	b.buf = strconv.AppendInt(b.buf, int64(bit), 10)
	return comm.Message(b.arena.Append(b.buf))
}

// idRing tracks membership for a sliding set of query ids without a map:
// ids are assigned by the world in increasing order and only ever asked
// about while recent (a grading always references the previous query),
// so a fixed-size direct-mapped ring — slot id&mask holds the newest id
// in its residue class — answers every membership query a map would,
// while Reset is a memclr and inserts never allocate.
type idRing struct {
	ids [idRingSize]int
	set [idRingSize]bool
}

// idRingSize bounds how far apart a recorded id and its membership query
// may be; gradings reference ids 1–2 behind the newest, far inside it.
const idRingSize = 64

func (r *idRing) reset() {
	r.set = [idRingSize]bool{}
}

func (r *idRing) add(id int) int {
	slot := id & (idRingSize - 1)
	r.ids[slot] = id
	r.set[slot] = true
	return slot
}

func (r *idRing) has(id int) (int, bool) {
	slot := id & (idRingSize - 1)
	return slot, r.set[slot] && r.ids[slot] == id
}

func (r *idRing) remove(slot int) { r.set[slot] = false }

// ThresholdUser predicts with one fixed threshold concept — candidate
// strategy c of the enumeration, and (alone) the fixed-protocol baseline.
type ThresholdUser struct {
	Concept int

	lastID int
	ans    answerBuilder
}

var _ comm.StepperTo = (*ThresholdUser)(nil)

// Reset implements comm.Strategy.
func (u *ThresholdUser) Reset(*xrand.Rand) {
	u.lastID = 0
	u.ans.reset()
}

// Step implements comm.Strategy.
func (u *ThresholdUser) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(u, in) }

// StepTo implements comm.StepperTo.
func (u *ThresholdUser) StepTo(in comm.Inbox, out *comm.Outbox) error {
	q, ok := ParseQuery(in.FromWorld)
	if !ok || q.ID == u.lastID {
		return nil
	}
	u.lastID = q.ID
	out.ToWorld = u.ans.msg(q.ID, Label(u.Concept, q.X))
	return nil
}

// Enum enumerates the M threshold candidates in order; paired with
// MistakeSense it forms the generic (conservative-learner) universal user.
func Enum(m int) enumerate.Enumerator {
	return enumerate.FromFunc(fmt.Sprintf("thresholds(%d)", m), m, func(i int) comm.Strategy {
		return &ThresholdUser{Concept: i}
	})
}

// MistakeSense gives a negative indication exactly when the world first
// grades one of the *current pairing's own* answers as a mistake. The world
// repeats its last grading every round, so the sense tracks which query ids
// this pairing answered (visible in the user's own outbox) and penalizes
// each graded mistake once. It is safe — a candidate that keeps erring
// keeps receiving negative indications — and viable, since the true concept
// never errs.
func MistakeSense() sensing.Sense { return &mistakeSense{} }

// mistakeSense keeps its answered-id set in an idRing rather than a map:
// the world grades a query within a round or two of its answer, so
// membership is only ever asked of recent ids, and the ring makes both
// the per-answer insert and the per-switch Reset allocation-free.
type mistakeSense struct {
	answered idRing
}

var _ sensing.Sense = (*mistakeSense)(nil)

func (s *mistakeSense) Reset() { s.answered.reset() }

func (s *mistakeSense) Observe(rv *comm.RoundView) bool {
	if rest, ok := strings.CutPrefix(string(rv.Out.ToWorld), "P "); ok {
		if idStr, bitStr, found := strings.Cut(rest, " "); found {
			_, bitErr := strconv.Atoi(bitStr)
			if id, err := strconv.Atoi(idStr); err == nil && bitErr == nil {
				s.answered.add(id)
			}
		}
	}
	q, ok := ParseQuery(rv.In.FromWorld)
	if !ok {
		return true // no grading information this round
	}
	if slot, have := s.answered.has(q.ResID); have && q.Res == "bad" {
		s.answered.remove(slot) // penalize each mistake once
		return false
	}
	return true
}

// HalvingUser is the efficient universal user: binary search over the
// threshold class, mistake bound ⌈log2 M⌉. It tracks the version-space
// interval [lo, hi] of concepts consistent with all feedback.
type HalvingUser struct {
	// M is the domain size; 0 means 64.
	M int

	lo, hi  int
	lastID  int
	pending idRing             // ids answered but not yet graded
	answers [idRingSize]answer // what we answered, parallel to pending's slots
	ans     answerBuilder
}

type answer struct {
	x   int
	bit int
}

var _ comm.StepperTo = (*HalvingUser)(nil)

// Reset implements comm.Strategy.
func (u *HalvingUser) Reset(*xrand.Rand) {
	m := u.M
	if m <= 0 {
		m = 64
	}
	u.lo, u.hi = 0, m-1
	u.lastID = 0
	u.pending.reset()
	u.ans.reset()
}

// Step implements comm.Strategy.
func (u *HalvingUser) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(u, in) }

// StepTo implements comm.StepperTo.
func (u *HalvingUser) StepTo(in comm.Inbox, out *comm.Outbox) error {
	q, ok := ParseQuery(in.FromWorld)
	if !ok {
		return nil
	}

	// Apply feedback for the query we answered previously: narrow the
	// version space to concepts consistent with the revealed label.
	if slot, have := u.pending.has(q.ResID); have && q.Res != "none" {
		prev := u.answers[slot]
		trueBit := prev.bit
		if q.Res == "bad" {
			trueBit = 1 - prev.bit
		}
		if trueBit == 1 {
			// Label(c, x) = 1 ⇒ c <= x.
			if prev.x < u.hi {
				u.hi = prev.x
			}
		} else {
			// Label(c, x) = 0 ⇒ c > x.
			if prev.x+1 > u.lo {
				u.lo = prev.x + 1
			}
		}
		if u.lo > u.hi {
			// Inconsistent feedback (cannot happen with an honest
			// world); restart the search rather than corrupting
			// predictions.
			m := u.M
			if m <= 0 {
				m = 64
			}
			u.lo, u.hi = 0, m-1
		}
		u.pending.remove(slot)
	}

	if q.ID == u.lastID {
		return nil
	}
	u.lastID = q.ID

	// Majority vote of the version space [lo, hi]: concepts c <= x vote
	// 1. Predict 1 iff at least half the interval is <= x.
	mid := (u.lo + u.hi) / 2
	bit := 0
	if q.X >= mid {
		bit = 1
	}
	u.answers[u.pending.add(q.ID)] = answer{x: q.X, bit: bit}
	out.ToWorld = u.ans.msg(q.ID, bit)
	return nil
}
