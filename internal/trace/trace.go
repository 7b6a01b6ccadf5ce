// Package trace serializes executions so that experiments are auditable:
// a Record captures everything a referee or sensing function needs — the
// world-state history and the user's view — in a stable JSON form that can
// be stored, diffed across runs and re-judged offline.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/system"
)

// FormatVersion identifies the record schema; bump on breaking changes.
const FormatVersion = 1

// RoundRecord is one round of the user's view in serializable form.
type RoundRecord struct {
	InFromServer string `json:"inFromServer,omitempty"`
	InFromWorld  string `json:"inFromWorld,omitempty"`
	OutToServer  string `json:"outToServer,omitempty"`
	OutToWorld   string `json:"outToWorld,omitempty"`
	State        string `json:"state"`
}

// Record is a serialized execution.
type Record struct {
	Version int    `json:"version"`
	Label   string `json:"label,omitempty"`
	Seed    uint64 `json:"seed"`
	Rounds  int    `json:"rounds"`
	Halted  bool   `json:"halted"`

	RoundData []RoundRecord `json:"roundData"`
}

// FromResult converts an execution result into a record. label and seed
// are caller-supplied provenance. The result must hold every round's
// state and view: a record covers the whole execution, so results run
// under system.RecordOff are refused.
func FromResult(res *system.Result, label string, seed uint64) (*Record, error) {
	if res == nil {
		return nil, errors.New("trace: nil result")
	}
	if len(res.History.States) != res.Rounds || len(res.View.Rounds) != res.Rounds {
		return nil, fmt.Errorf("trace: result records %d states and %d views of %d rounds (run it with system.RecordFull)",
			len(res.History.States), len(res.View.Rounds), res.Rounds)
	}
	rec := &Record{
		Version:   FormatVersion,
		Label:     label,
		Seed:      seed,
		Rounds:    res.Rounds,
		Halted:    res.Halted,
		RoundData: make([]RoundRecord, 0, res.History.Len()),
	}
	for i := range res.History.States {
		rv := res.View.Rounds[i]
		rec.RoundData = append(rec.RoundData, RoundRecord{
			InFromServer: string(rv.In.FromServer),
			InFromWorld:  string(rv.In.FromWorld),
			OutToServer:  string(rv.Out.ToServer),
			OutToWorld:   string(rv.Out.ToWorld),
			State:        string(res.History.States[i]),
		})
	}
	return rec, nil
}

// Encode writes the record as indented JSON.
func (r *Record) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// Decode reads a record from JSON, validating the schema version and
// that it carries one round record per executed round.
func Decode(r io.Reader) (*Record, error) {
	var rec Record
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if rec.Version != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported record version %d (want %d)",
			rec.Version, FormatVersion)
	}
	if rec.Rounds != len(rec.RoundData) {
		return nil, fmt.Errorf("trace: inconsistent rounds field %d for %d round records",
			rec.Rounds, len(rec.RoundData))
	}
	return &rec, nil
}

// History reconstructs the world-state history for offline referee
// judgement.
func (r *Record) History() comm.History {
	states := make([]comm.WorldState, len(r.RoundData))
	for i, rd := range r.RoundData {
		states[i] = comm.WorldState(rd.State)
	}
	return comm.History{States: states}
}

// View reconstructs the user's view for offline sensing replay.
func (r *Record) View() comm.View {
	rounds := make([]comm.RoundView, len(r.RoundData))
	for i, rd := range r.RoundData {
		rounds[i] = comm.RoundView{
			In: comm.Inbox{
				FromServer: comm.Message(rd.InFromServer),
				FromWorld:  comm.Message(rd.InFromWorld),
			},
			Out: comm.Outbox{
				ToServer: comm.Message(rd.OutToServer),
				ToWorld:  comm.Message(rd.OutToWorld),
			},
		}
	}
	return comm.View{Rounds: rounds}
}

// JudgeCompact re-evaluates a compact goal's referee on the recorded
// history with the given convergence window.
func (r *Record) JudgeCompact(g goal.CompactGoal, window int) bool {
	return goal.CompactAchieved(g, r.History(), window)
}
