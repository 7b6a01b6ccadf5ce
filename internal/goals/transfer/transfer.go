// Package transfer implements a data-transfer goal: the user must get a
// K-chunk payload stored with the world, but the only route is through a
// storage server speaking an unknown dialect — and possibly dropping
// messages. It exercises two robustness properties of the framework at
// once: universality over the dialect class and tolerance of message loss
// on forgiving goals (a dropped chunk can always be retransmitted).
//
// Protocol (native):
//
//	world → user:   "WANT <K>|HAVE <bitmask>"          (status, every round)
//	user  → server: "STORE <i> <data>"                  (dialected)
//	server→ world:  "REL <i> <data>"                    (physical channel)
//	server→ user:   "STORED <i>"                        (dialected ack)
//
// The world validates chunk contents (chunk i must carry Data(i)); the
// compact goal is achieved once every chunk is stored.
package transfer

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

// Protocol vocabulary.
const (
	cmdStore  = "STORE"
	rspStored = "STORED"
)

// Vocabulary returns the storage protocol's verbs for word-dialect
// families.
func Vocabulary() []string { return []string{cmdStore, rspStored} }

// DefaultPatience is the sensing patience: how many rounds without storage
// progress a candidate survives. Noisy channels need larger values.
const DefaultPatience = 8

// dataCache precomputes chunk contents for the indices real payloads use
// (K defaults to 8), so the world's per-arrival validation — which
// compares each released chunk against Data(i) — allocates nothing.
var dataCache = func() (a [64]string) {
	for i := range a {
		a[i] = "blob" + strconv.Itoa(i)
	}
	return
}()

// Data returns the canonical content of chunk i.
func Data(i int) string {
	if i >= 0 && i < len(dataCache) {
		return dataCache[i]
	}
	return fmt.Sprintf("blob%d", i)
}

// Goal is the compact transfer goal. K is the number of chunks (0 means
// 8); the environment choice is trivial — the payload is canonical.
type Goal struct {
	K int
}

var (
	_ goal.CompactGoal = (*Goal)(nil)
	_ goal.Forgiving   = (*Goal)(nil)
)

func (g *Goal) k() int {
	if g.K <= 0 {
		return 8
	}
	return g.K
}

// Name implements goal.Goal.
func (g *Goal) Name() string { return "transfer" }

// EnvChoices implements goal.Goal.
func (g *Goal) EnvChoices() int { return 1 }

// NewWorld implements goal.Goal.
func (g *Goal) NewWorld(goal.Env) goal.World { return &World{K: g.k()} }

// Acceptable implements goal.CompactGoal.
func (g *Goal) Acceptable(prefix comm.History) bool {
	return strings.HasSuffix(string(prefix.Last()), "done=1")
}

// AcceptableWorld implements goal.WorldJudge: the same predicate as
// Acceptable, judged on the live store.
func (g *Goal) AcceptableWorld(w goal.World) bool {
	if sw, ok := w.(*World); ok {
		return sw.count() == sw.K
	}
	return strings.HasSuffix(string(w.Snapshot()), "done=1")
}

// ForgivingGoal implements goal.Forgiving: chunks can always be resent.
func (g *Goal) ForgivingGoal() bool { return true }

// World is the storage endpoint: it validates released chunks and reports
// the stored set every round. Snapshot: "have=<n>/<K>;done=<0|1>".
// Hot-path layout: the stored set is carried as incrementally-maintained
// scalars (count, bitmask, generation) — the have slice is touched only
// on chunk arrival, to dedupe re-releases. State-change detection is the
// gen counter: it bumps exactly when a new chunk lands, which is exactly
// when the status changes.
type World struct {
	K int

	have  []bool
	cnt   int    // number of stored chunks, maintained incrementally
	cmask uint64 // bitmask of stored chunks < 64, maintained incrementally
	gen   uint64 // status generation: bumps when a new chunk lands

	status    comm.Message                       // cached status, rebuilt when the stored set changes
	statusTab msgbuf.Table[uint64, comm.Message] // mask → status, survives Reset
	statusK   int                                // K the table was built for
	statusGen uint64
	buf       []byte // reusable build buffer
}

var (
	_ goal.World     = (*World)(nil)
	_ comm.StepperTo = (*World)(nil)
)

// Reset implements comm.Strategy. The status table persists across Reset:
// statuses are pure functions of (K, mask), so a reused world re-serves
// last run's strings instead of rebuilding them.
func (w *World) Reset(*xrand.Rand) {
	if len(w.have) == w.K {
		clear(w.have)
	} else {
		w.have = make([]bool, w.K)
	}
	w.cnt = 0
	w.cmask = 0
	w.status = ""
	if w.statusK != w.K {
		w.statusTab.Reset()
		w.statusK = w.K
	}
	w.gen++ // invalidates the status cache
}

func (w *World) count() int { return w.cnt }

// Step implements comm.Strategy.
func (w *World) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(w, in) }

// StepTo implements comm.StepperTo.
func (w *World) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if rest, ok := strings.CutPrefix(string(in.FromServer), "REL "); ok {
		if idx, data, found := strings.Cut(rest, " "); found {
			if i, err := strconv.Atoi(idx); err == nil &&
				i >= 0 && i < w.K && data == Data(i) && !w.have[i] {
				w.have[i] = true
				w.cnt++
				if i < 64 {
					w.cmask |= 1 << uint(i)
				}
				w.gen++
			}
		}
	}
	// The status only changes when a chunk lands; between arrivals one
	// cached string is re-sent. Distinct masks are memoized in a
	// Reset-surviving table, so a reused world's whole run serves cached
	// strings.
	if w.status == "" || w.statusGen != w.gen {
		if s, ok := w.statusTab.Get(w.cmask); ok {
			w.status = s
		} else {
			w.buf = append(w.buf[:0], "WANT "...)
			w.buf = strconv.AppendInt(w.buf, int64(w.K), 10)
			w.buf = append(w.buf, "|HAVE "...)
			w.buf = strconv.AppendUint(w.buf, w.cmask, 10)
			w.status = comm.Message(w.buf) // string conversion copies
			w.statusTab.Put(w.cmask, w.status)
		}
		w.statusGen = w.gen
	}
	out.ToUser = w.status
	return nil
}

// Snapshot implements goal.World: "have=<n>/<K>;done=<0|1>".
func (w *World) Snapshot() comm.WorldState {
	var a [48]byte
	b := append(a[:0], "have="...)
	b = strconv.AppendInt(b, int64(w.cnt), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(w.K), 10)
	if w.cnt == w.K {
		b = append(b, ";done=1"...)
	} else {
		b = append(b, ";done=0"...)
	}
	return comm.WorldState(b)
}

// ParseStatus decodes the world's status message.
func ParseStatus(m comm.Message) (k int, mask uint64, ok bool) {
	wantPart, havePart, found := strings.Cut(string(m), "|")
	if !found {
		return 0, 0, false
	}
	ws, ok1 := strings.CutPrefix(wantPart, "WANT ")
	hs, ok2 := strings.CutPrefix(havePart, "HAVE ")
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	k, err1 := strconv.Atoi(ws)
	mask, err2 := strconv.ParseUint(hs, 10, 64)
	if err1 != nil || err2 != nil || k < 0 {
		return 0, 0, false
	}
	return k, mask, true
}

// status is a parsed status announcement.
type status struct {
	k    int
	mask uint64
}

// parseStatus is ParseStatus through a party's memo of the last
// announcement it parsed: the world re-sends one cached status until a
// chunk lands, so each is parsed once (usually a pointer-equal compare).
func parseStatus(last *msgbuf.Memo1[comm.Message, status], m comm.Message) (k int, mask uint64, ok bool) {
	if st, hit := last.Get(m); hit {
		return st.k, st.mask, true
	}
	if k, mask, ok = ParseStatus(m); ok {
		last.Put(m, status{k, mask})
	}
	return k, mask, ok
}

// Server is the storage relay's native protocol.
//
// Step is a pure function of the incoming command; the memo only spares
// rebuilding replies for the handful of STORE commands a retransmitting
// user cycles through (a transfer moves K chunks, so real traffic holds
// at most K distinct commands — comfortably under the table's cap).
type Server struct {
	memo msgbuf.Table[comm.Message, comm.Outbox]
}

var _ comm.StepperTo = (*Server)(nil)

// Reset implements comm.Strategy. The memo persists: Step is a pure
// function of the incoming command, so entries from a previous run are
// still correct and a reused server replays a transfer allocation-free.
func (s *Server) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (s *Server) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

// StepTo implements comm.StepperTo.
func (s *Server) StepTo(in comm.Inbox, out *comm.Outbox) error {
	rest, ok := strings.CutPrefix(string(in.FromUser), cmdStore+" ")
	if !ok {
		return nil
	}
	m, ok := s.memo.Get(in.FromUser)
	if !ok {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			return nil
		}
		if _, err := strconv.Atoi(fields[0]); err != nil {
			return nil
		}
		m = comm.Outbox{
			ToUser:  comm.Message(rspStored + " " + fields[0]),
			ToWorld: comm.Message("REL " + rest),
		}
		s.memo.Put(in.FromUser, m)
	}
	out.ToUser, out.ToWorld = m.ToUser, m.ToWorld
	return nil
}

// Candidate is the dialect-d transfer user: read the world's status,
// (re)send missing chunks round-robin in its dialect.
type Candidate struct {
	// D is the dialect this candidate speaks to the server.
	D dialect.Dialect

	k    int
	mask uint64
	next int
	cmds []comm.Message // cached encoded "STORE <i> <data>" per chunk
	ann  msgbuf.Memo1[comm.Message, status]
}

var _ comm.StepperTo = (*Candidate)(nil)

// Reset implements comm.Strategy.
func (c *Candidate) Reset(*xrand.Rand) {
	c.k = 0
	c.mask = 0
	c.next = 0
}

// storeCmd returns the encoded store command for chunk i, built once per
// chunk (dialects are pure and chunk contents are canonical).
func (c *Candidate) storeCmd(i int) comm.Message {
	if i >= len(c.cmds) {
		cmds := make([]comm.Message, c.k)
		copy(cmds, c.cmds)
		c.cmds = cmds
	}
	if c.cmds[i] == "" {
		cmd := fmt.Sprintf("%s %d %s", cmdStore, i, Data(i))
		c.cmds[i] = c.D.Encode(comm.Message(cmd))
	}
	return c.cmds[i]
}

// Step implements comm.Strategy.
func (c *Candidate) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(c, in) }

// StepTo implements comm.StepperTo.
func (c *Candidate) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if k, mask, ok := parseStatus(&c.ann, in.FromWorld); ok {
		c.k = k
		c.mask = mask
	}
	if c.k == 0 {
		return nil
	}
	// Find the next missing chunk, round-robin so retransmissions
	// interleave fairly under loss.
	for probe := 0; probe < c.k; probe++ {
		i := (c.next + probe) % c.k
		if i < 64 && c.mask&(1<<uint(i)) != 0 {
			continue
		}
		c.next = (i + 1) % c.k
		out.ToServer = c.storeCmd(i)
		return nil
	}
	return nil
}

// Enum enumerates one Candidate per dialect in the family.
func Enum(fam *dialect.Family) enumerate.Enumerator {
	return enumerate.FromFunc("transfer/"+fam.Name(), fam.Size(), func(i int) comm.Strategy {
		return &Candidate{D: fam.Dialect(i)}
	})
}

// Sense is positive while the transfer is complete or still progressing:
// it tracks the stored-chunk count from the world's status and reports
// negative once patience rounds pass with no new chunk stored (and the
// transfer incomplete). Safe — stalling forever with an incomplete
// transfer is exactly goal failure — and viable, since the matching
// candidate stores a chunk every few rounds even under moderate loss.
func Sense(patience int) sensing.Sense {
	if patience <= 0 {
		patience = DefaultPatience
	}
	return &progressSense{patience: patience}
}

type progressSense struct {
	patience int
	started  bool
	lastHave int
	idle     int
	ann      msgbuf.Memo1[comm.Message, status]
}

var _ sensing.Sense = (*progressSense)(nil)

func (s *progressSense) Reset() {
	s.started = false
	s.lastHave = 0
	s.idle = 0
}

func (s *progressSense) Observe(rv *comm.RoundView) bool {
	k, mask, ok := parseStatus(&s.ann, rv.In.FromWorld)
	if !ok {
		// No status yet: grace.
		return true
	}
	have := 0
	for i := 0; i < k && i < 64; i++ {
		if mask&(1<<uint(i)) != 0 {
			have++
		}
	}
	if have == k {
		return true
	}
	if !s.started || have > s.lastHave {
		s.started = true
		s.lastHave = have
		s.idle = 0
		return true
	}
	s.idle++
	return s.idle < s.patience
}
