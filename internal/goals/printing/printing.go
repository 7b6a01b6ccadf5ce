// Package printing implements the paper's motivating example: the goal of
// using a printer to produce a document — a goal that "cannot be cast as a
// problem of delegating computation in any reasonable sense" but is
// captured naturally by the goal-oriented model.
//
// The cast:
//
//   - World: owns the physical printout. It assigns the user a target
//     document (the task), counts the sheets the printer emits (and the
//     error pages among them), and lets the user observe the most recent
//     one — which is exactly the feedback that makes safe and viable
//     sensing possible.
//   - Server: the printer. Its native protocol is "PRINT <doc>" / "STATUS",
//     but the class of possible printers speaks unknown dialects
//     (server.Dialected).
//   - User: wants the target document to appear on the printout. Candidate
//     strategy i speaks dialect i; the universal user enumerates candidates
//     under print-progress sensing.
//
// The goal is compact and forgiving: a prefix is acceptable iff the target
// document has been printed, and any finite prefix can still be extended to
// success by printing it now.
package printing

import (
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

// Protocol vocabulary (the native command language of printers).
const (
	cmdPrint  = "PRINT"
	cmdStatus = "STATUS"
	rspAck    = "ACK"
	rspReady  = "READY"
)

// Vocabulary returns the printer protocol's verbs, the token set that word
// dialects permute.
func Vocabulary() []string {
	return []string{cmdPrint, cmdStatus, rspAck, rspReady}
}

// DefaultPatience is the sensing patience used by the stock universal user:
// a candidate gets this many rounds to produce print progress before a
// negative indication. The user→server→world→user feedback loop takes 3
// rounds, so 5 leaves margin for one retry.
const DefaultPatience = 5

// Goal is the printing goal. Env.Choice selects the target document.
type Goal struct {
	// Docs is the set of possible target documents (the world's
	// non-deterministic choice). Empty means DefaultDocs.
	Docs []string

	// Paper bounds how many documents the printer's tray can produce;
	// 0 means unlimited. A positive Paper makes the goal NON-forgiving:
	// a history that wastes the last sheet without printing the target
	// can no longer be extended to success. Used by ablation A1 to show
	// why the paper restricts attention to forgiving goals.
	Paper int
}

var (
	_ goal.CompactGoal = (*Goal)(nil)
	_ goal.Forgiving   = (*Goal)(nil)
)

// DefaultDocs are the target documents used when none are configured.
func DefaultDocs() []string {
	return []string{"report7", "thesis3", "memo42", "poster9"}
}

func (g *Goal) docs() []string {
	if len(g.Docs) == 0 {
		return DefaultDocs()
	}
	return g.Docs
}

// Name implements goal.Goal.
func (g *Goal) Name() string { return "printing" }

// EnvChoices implements goal.Goal.
func (g *Goal) EnvChoices() int { return len(g.docs()) }

// NewWorld implements goal.Goal.
func (g *Goal) NewWorld(env goal.Env) goal.World {
	docs := g.docs()
	choice := env.Choice % len(docs)
	if choice < 0 {
		choice += len(docs)
	}
	return &World{target: docs[choice], paper: g.Paper}
}

// Acceptable implements goal.CompactGoal: a prefix is acceptable iff the
// target has been printed.
func (g *Goal) Acceptable(prefix comm.History) bool {
	return strings.HasSuffix(string(prefix.Last()), "done=1")
}

// AcceptableWorld implements goal.WorldJudge: the same predicate as
// Acceptable, judged on the live printout.
func (g *Goal) AcceptableWorld(w goal.World) bool {
	if pw, ok := w.(*World); ok {
		return pw.done
	}
	return strings.HasSuffix(string(w.Snapshot()), "done=1")
}

// ForgivingGoal implements goal.Forgiving. The goal is forgiving only with
// an unlimited paper tray.
func (g *Goal) ForgivingGoal() bool { return g.Paper == 0 }

// World is the printing environment. Each round it (re)announces the task
// to the user along with the most recently printed document, and it
// counts any "EMIT <doc>" from the server as a printed sheet (paper
// permitting).
//
// World→user message format: "TASK <target>|PRINTED <lastPrinted>".
// Snapshot format: "target=<target>;printed=<count>;done=<0|1>".
// The printout is kept as counts: nothing reads a page before the most
// recent one, so a long run holds no per-sheet state.
type World struct {
	target     string
	paper      int    // 0 = unlimited
	sheets     int    // documents printed this run
	errorPages int    // of which contain ErrorPage
	last       string // the most recently printed document
	done       bool

	status     comm.Message // cached announcement, keyed on the document it reports
	statusLast string
	buf        []byte // reusable build buffer
}

var (
	_ goal.World     = (*World)(nil)
	_ comm.StepperTo = (*World)(nil)
)

// Sheets returns how many documents have been printed this run, and how
// many of those were error pages (documents containing ErrorPage).
func (w *World) Sheets() (printed, errorPages int) { return w.sheets, w.errorPages }

// Reset implements comm.Strategy.
func (w *World) Reset(*xrand.Rand) {
	w.sheets, w.errorPages = 0, 0
	w.last = ""
	w.done = false
}

// Step implements comm.Strategy.
func (w *World) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(w, in) }

// StepTo implements comm.StepperTo.
func (w *World) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if doc, ok := strings.CutPrefix(string(in.FromServer), "EMIT "); ok {
		if w.paper == 0 || w.sheets < w.paper {
			w.sheets++
			if strings.Contains(doc, ErrorPage) {
				w.errorPages++
			}
			w.last = doc
			if doc == w.target {
				w.done = true
			}
		}
	}
	// The announcement depends only on the most recent document, not the
	// count, so it is keyed on that string: a printer re-emitting the
	// same page — the converged steady state — re-sends one cached
	// announcement. Usually a pointer-equal compare.
	if w.status == "" || w.statusLast != w.last {
		w.buf = append(w.buf[:0], "TASK "...)
		w.buf = append(w.buf, w.target...)
		w.buf = append(w.buf, "|PRINTED "...)
		w.buf = append(w.buf, w.last...)
		w.status = comm.Message(w.buf)
		w.statusLast = w.last
	}
	out.ToUser = w.status
	return nil
}

// Snapshot implements goal.World:
// "target=<target>;printed=<count>;done=<0|1>".
func (w *World) Snapshot() comm.WorldState {
	var a [64]byte
	b := append(a[:0], "target="...)
	b = append(b, w.target...)
	b = append(b, ";printed="...)
	b = strconv.AppendInt(b, int64(w.sheets), 10)
	if w.done {
		b = append(b, ";done=1"...)
	} else {
		b = append(b, ";done=0"...)
	}
	return comm.WorldState(b)
}

// ParseWorldMsg extracts the task and last-printed fields from a world
// message; ok is false if the message is not a world announcement.
func ParseWorldMsg(m comm.Message) (task, printed string, ok bool) {
	s := string(m)
	taskPart, printedPart, found := strings.Cut(s, "|")
	if !found {
		return "", "", false
	}
	task, ok1 := strings.CutPrefix(taskPart, "TASK ")
	printed, ok2 := strings.CutPrefix(printedPart, "PRINTED ")
	if !ok1 || !ok2 {
		return "", "", false
	}
	return task, printed, true
}

// Server is the printer's native protocol: on "PRINT <doc>" it emits the
// document to the world and acknowledges to the user; on "STATUS" it
// reports readiness. Wrap with server.Dialected to obtain the class of
// printers the paper's user must cope with.
//
// Step is a pure function of the incoming command; the single-command
// memo only spares rebuilding the reply a retrying user provokes every
// other round.
type Server struct {
	memo msgbuf.Memo1[comm.Message, comm.Outbox]
}

var _ comm.StepperTo = (*Server)(nil)

// Reset implements comm.Strategy. The memo persists: Step is a pure
// function of the incoming command, so its entry from a previous run is
// still correct.
func (s *Server) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (s *Server) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

// StepTo implements comm.StepperTo.
func (s *Server) StepTo(in comm.Inbox, out *comm.Outbox) error {
	msg := string(in.FromUser)
	switch {
	case strings.HasPrefix(msg, cmdPrint+" "):
		m, ok := s.memo.Get(in.FromUser)
		if !ok {
			doc := strings.TrimPrefix(msg, cmdPrint+" ")
			m = comm.Outbox{
				ToUser:  comm.Message(rspAck + " " + doc),
				ToWorld: comm.Message("EMIT " + doc),
			}
			s.memo.Put(in.FromUser, m)
		}
		out.ToUser, out.ToWorld = m.ToUser, m.ToWorld
	case msg == cmdStatus:
		out.ToUser = rspReady
	}
	return nil
}

// TouchyServer behaves like Server on well-formed commands but reacts to
// every non-empty command it does not understand by printing an error page
// — as real printers do with garbage input. Combined with a finite paper
// tray (Goal.Paper > 0) this makes probing costly and the goal
// non-forgiving: a universal user that burns the tray on wrong-dialect
// probes can no longer succeed. Used by ablation A1.
type TouchyServer struct {
	inner Server
}

var _ comm.StepperTo = (*TouchyServer)(nil)

// ErrorPage is the document a touchy printer emits on garbage input.
const ErrorPage = "errorpage"

// Reset implements comm.Strategy.
func (*TouchyServer) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (s *TouchyServer) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

// StepTo implements comm.StepperTo.
func (s *TouchyServer) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if err := s.inner.StepTo(in, out); err != nil {
		return err
	}
	if out.ToUser.Empty() && out.ToServer.Empty() && out.ToWorld.Empty() && !in.FromUser.Empty() {
		out.ToWorld = "EMIT " + ErrorPage
	}
	return nil
}

// LyingServer acknowledges every command but never prints anything. It is
// unhelpful; it exists to expose unsafe sensing (trusting ACKs) in the T4
// ablation.
type LyingServer struct{}

var _ comm.StepperTo = (*LyingServer)(nil)

// Reset implements comm.Strategy.
func (*LyingServer) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (s *LyingServer) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

// StepTo implements comm.StepperTo.
func (*LyingServer) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if !in.FromUser.Empty() {
		out.ToUser = rspAck + " anything"
	}
	return nil
}

// Candidate is the dialect-d printing user: it reads the task from the
// world and periodically sends "PRINT <task>" encoded in its dialect.
type Candidate struct {
	// D is the dialect this candidate speaks to the server.
	D dialect.Dialect
	// Resend is the retry period in rounds; 0 means every other round.
	Resend int

	task    string
	elapsed int
	ann     msgbuf.Memo1[comm.Message, string] // task of the last announcement parsed
	cmd     msgbuf.Memo1[string, comm.Message] // encoded "PRINT <task>", built once per task
}

var _ comm.StepperTo = (*Candidate)(nil)

// Reset implements comm.Strategy.
func (c *Candidate) Reset(*xrand.Rand) {
	c.task = ""
	c.elapsed = 0
}

// Step implements comm.Strategy.
func (c *Candidate) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(c, in) }

// StepTo implements comm.StepperTo.
func (c *Candidate) StepTo(in comm.Inbox, out *comm.Outbox) error {
	// The world re-sends one cached announcement until the printout
	// changes, so each is parsed once (the hit is usually a
	// pointer-equal compare).
	if task, ok := c.ann.Get(in.FromWorld); ok {
		c.task = task
	} else if task, _, ok := ParseWorldMsg(in.FromWorld); ok {
		c.ann.Put(in.FromWorld, task)
		c.task = task
	}
	if c.task == "" {
		return nil
	}
	period := c.Resend
	if period <= 0 {
		period = 2
	}
	if c.elapsed%period == 0 {
		// The task is fixed per execution, so the encoded command is
		// built once (dialects are pure).
		cmd, ok := c.cmd.Get(c.task)
		if !ok {
			cmd = c.D.Encode(comm.Message(cmdPrint + " " + c.task))
			c.cmd.Put(c.task, cmd)
		}
		out.ToServer = cmd
	}
	c.elapsed++
	return nil
}

// Enum enumerates one Candidate per dialect in the family — the class of
// user strategies the universal printing user searches.
func Enum(fam *dialect.Family) enumerate.Enumerator {
	return enumerate.FromFunc("printing/"+fam.Name(), fam.Size(), func(i int) comm.Strategy {
		return &Candidate{D: fam.Dialect(i)}
	})
}

// Sense is the print-progress sensing function: the indication is positive
// as long as, within the patience window, the world has confirmed that the
// most recent printout equals the task. It is safe (positive indications
// require the target actually printed — the world does not lie) and viable
// (the matching candidate prints within the window). patience <= 0 selects
// DefaultPatience.
func Sense(patience int) sensing.Sense {
	if patience <= 0 {
		patience = DefaultPatience
	}
	// The indication is a pure function of the world's announcement,
	// which the world re-sends unchanged until the printout changes, so
	// it is computed once per announcement. The memo belongs to this
	// instance: concurrent trials each build their own Sense.
	var verdict msgbuf.Memo1[comm.Message, bool]
	return sensing.Patience(sensing.New(func(rv *comm.RoundView) bool {
		m := rv.In.FromWorld
		v, ok := verdict.Get(m)
		if !ok {
			task, printed, parsed := ParseWorldMsg(m)
			v = parsed && task != "" && printed == task
			verdict.Put(m, v)
		}
		return v
	}), patience)
}

// TrustingSense is the deliberately unsafe sensing variant for the T4
// ablation: it reports positive as soon as the server has acknowledged
// anything, trusting the server instead of observing the world. A lying
// server keeps it positive forever while the goal goes unachieved.
func TrustingSense() sensing.Sense {
	return sensing.Sticky(sensing.New(func(rv *comm.RoundView) bool {
		return strings.HasPrefix(string(rv.In.FromServer), rspAck)
	}))
}

// ParanoidSense is the deliberately non-viable sensing variant for the T4
// ablation: it demands confirmation that no printer can produce (a printout
// equal to the task with a "!" suffix the protocol never emits), so no
// candidate ever earns a lasting positive indication.
func ParanoidSense(patience int) sensing.Sense {
	if patience <= 0 {
		patience = DefaultPatience
	}
	return sensing.Patience(sensing.New(func(rv *comm.RoundView) bool {
		task, printed, ok := ParseWorldMsg(rv.In.FromWorld)
		return ok && task != "" && printed == task+"!"
	}), patience)
}
