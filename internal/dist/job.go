package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// JobID derives a job's identity from its plan: the sweep fingerprint
// plus the shard count (the same sweep split differently is a different
// stream of envelopes). The derivation makes POST /v1/sweeps idempotent —
// resubmitting a sweep lands on the live job — and names the on-disk
// state directory a restarted coordinator resumes from.
func JobID(plan Plan) string {
	return fmt.Sprintf("sw-%s-%d", plan.Fingerprint, plan.Shards)
}

// shardState is the coordinator's bookkeeping for one shard of one job.
// A shard can carry two live leases at once: the primary, and — when the
// primary has aged past the coordinator's speculation threshold without
// expiring — one speculative re-lease racing it. Determinism makes the
// race safe: both copies produce identical bytes and the first submit
// wins.
type shardState struct {
	done    bool
	leaseID string    // current primary lease, "" if never leased
	expires time.Time // primary lease's deadline

	specLeaseID string    // speculative straggler re-lease, "" if none
	specExpires time.Time // speculative lease's deadline
}

// job is one queued sweep: a plan, its shard states, the collected
// envelopes, and the per-job accounting that used to be the whole
// coordinator. All fields are guarded by the owning Coordinator's mutex.
type job struct {
	id   string
	plan Plan

	shards  []shardState                  // index i-1 holds shard i/n
	results map[int]*scenario.ShardResult // 1-based shard index -> envelope
	resumed int                           // shards restored from on-disk envelopes
	done    chan struct{}                 // closed when every shard has been accepted
	subs    []chan []byte                 // live SSE subscribers (see events.go)
}

func newJob(plan Plan) *job {
	return &job{
		id:      JobID(plan),
		plan:    plan,
		shards:  make([]shardState, plan.Shards),
		results: make(map[int]*scenario.ShardResult),
		done:    make(chan struct{}),
	}
}

func (j *job) complete() bool { return len(j.results) == j.plan.Shards }

// stateFile names the persisted artifact paths under one job's state
// directory.
const (
	jobPlanFile     = "job.json"
	shardFilePrefix = "shard-"
)

func (j *job) dir(stateDir string) string { return filepath.Join(stateDir, j.id) }

func shardFile(idx int) string { return fmt.Sprintf("%s%d.json", shardFilePrefix, idx) }

// persistPlanLocked writes the job's plan under the state directory so a
// restarted coordinator can rebuild the queue. Atomic (temp + rename) so
// a crash mid-write never leaves a half plan for recovery to trip on.
// An existing plan file is kept only if it still decodes to this job —
// a truncated or corrupt one (torn disk, partial copy) is rewritten, so
// one bad write can never permanently poison the job's state directory.
func (c *Coordinator) persistPlanLocked(j *job) {
	if c.stateDir == "" {
		return
	}
	dir := j.dir(c.stateDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.events.Event(obs.LevelWarn, "state.persist_fail",
			obs.String("job", j.id), obs.String("err", err.Error()))
		return
	}
	path := filepath.Join(dir, jobPlanFile)
	if data, err := os.ReadFile(path); err == nil {
		var existing Plan
		if decodeJSONStrict(data, &existing) == nil && existing.Validate() == nil && JobID(existing) == j.id {
			return // already persisted intact by an earlier submit or run
		}
		mStateHealed.With("plan").Inc()
		c.events.Event(obs.LevelWarn, "state.heal",
			obs.String("job", j.id), obs.String("kind", "plan"),
			obs.String("detail", "corrupt plan file rewritten"))
	}
	var buf bytes.Buffer
	if err := writeJSONIndent(&buf, &j.plan); err != nil {
		c.events.Event(obs.LevelWarn, "state.persist_fail",
			obs.String("job", j.id), obs.String("err", err.Error()))
		return
	}
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		c.events.Event(obs.LevelWarn, "state.persist_fail",
			obs.String("job", j.id), obs.String("err", err.Error()))
	}
}

// persistShardLocked writes one accepted envelope under the job's state
// directory. Persistence failures are logged, not fatal: the job still
// completes in memory, the shard just re-executes after a restart.
func (c *Coordinator) persistShardLocked(j *job, sr *scenario.ShardResult) {
	if c.stateDir == "" {
		return
	}
	dir := j.dir(c.stateDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.events.Event(obs.LevelWarn, "state.persist_fail",
			obs.String("job", j.id), obs.String("err", err.Error()))
		return
	}
	var buf bytes.Buffer
	if err := sr.Write(&buf); err != nil {
		c.events.Event(obs.LevelWarn, "state.persist_fail",
			obs.String("job", j.id), obs.String("err", err.Error()))
		return
	}
	if err := writeFileAtomic(filepath.Join(dir, shardFile(sr.Shard.Index)), buf.Bytes()); err != nil {
		c.events.Event(obs.LevelWarn, "state.persist_fail",
			obs.String("job", j.id), obs.String("err", err.Error()))
	}
}

// resumeShardsLocked rescans a job's state directory for completed shard
// envelopes and marks the valid ones done, so a restarted coordinator
// re-queues only the missing shards. Every envelope revalidates through
// ReadShardResult plus the fingerprint and shard-coordinate checks a live
// submit would pass; anything corrupt, truncated or foreign is healed —
// the bad file is removed, the shard re-queues, and the re-executed
// envelope overwrites it — instead of being left to trip every future
// restart.
func (c *Coordinator) resumeShardsLocked(j *job) {
	if c.stateDir == "" {
		return
	}
	dir := j.dir(c.stateDir)
	for idx := 1; idx <= j.plan.Shards; idx++ {
		if j.results[idx] != nil {
			continue
		}
		path := filepath.Join(dir, shardFile(idx))
		f, err := os.Open(path)
		if err != nil {
			continue // not persisted: the shard is still open
		}
		sr, err := scenario.ReadShardResult(f)
		f.Close()
		if err != nil {
			c.healEnvelopeLocked(j, idx, path, err.Error())
			continue
		}
		if sr.Fingerprint != j.plan.Fingerprint || sr.Shard.Index != idx || sr.Shard.Count != j.plan.Shards {
			c.healEnvelopeLocked(j, idx, path, "envelope does not match the job's plan")
			continue
		}
		j.results[idx] = sr
		j.shards[idx-1].done = true
		j.resumed++
	}
	if j.resumed > 0 {
		c.events.Event(obs.LevelInfo, "state.resume",
			obs.String("job", j.id),
			obs.Int("resumed", j.resumed),
			obs.Int("shards", j.plan.Shards))
	}
}

// healEnvelopeLocked removes one unusable shard envelope so the shard
// re-queues cleanly: resume already treats the shard as open, and with
// the bad file gone, the re-executed worker's envelope lands in its
// place instead of fighting a corpse on every restart.
func (c *Coordinator) healEnvelopeLocked(j *job, idx int, path, reason string) {
	mStateHealed.With("envelope").Inc()
	detail := "corrupt envelope removed, shard re-queued"
	if err := os.Remove(path); err != nil {
		detail = "corrupt envelope could not be removed: " + err.Error()
	}
	c.events.Event(obs.LevelWarn, "state.heal",
		obs.String("job", j.id), obs.Int("shard", idx),
		obs.String("kind", "envelope"),
		obs.String("detail", detail),
		obs.String("err", reason))
}

// recoverJobsLocked rebuilds the queue from the state directory: every
// subdirectory with a valid plan whose derived job ID matches its name is
// resubmitted (which in turn rescans its envelopes). A directory whose
// plan is corrupt or truncated cannot be rebuilt from nothing, so its
// plan file is quarantined (renamed aside) — the next identical
// `goalsweep submit` recreates the job and re-persists a clean plan over
// the same directory, resuming whatever envelopes survived. Directory
// order is lexical, so the queue order after a restart is deterministic
// even though the original submission order is gone.
func (c *Coordinator) recoverJobsLocked() error {
	entries, err := os.ReadDir(c.stateDir)
	if err != nil {
		return fmt.Errorf("dist: scan state dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(c.stateDir, e.Name(), jobPlanFile)
		data, err := os.ReadFile(path)
		if err != nil {
			if !os.IsNotExist(err) {
				c.quarantinePlanLocked(e.Name(), path, err.Error())
			}
			continue
		}
		var plan Plan
		if err := decodeJSONStrict(data, &plan); err != nil {
			c.quarantinePlanLocked(e.Name(), path, err.Error())
			continue
		}
		if err := plan.Validate(); err != nil {
			c.quarantinePlanLocked(e.Name(), path, err.Error())
			continue
		}
		if JobID(plan) != e.Name() {
			c.quarantinePlanLocked(e.Name(), path, "directory name does not match the plan's job ID")
			continue
		}
		if _, _, err := c.submitPlanLocked(plan); err != nil {
			c.events.Event(obs.LevelWarn, "state.recover_skip",
				obs.String("dir", e.Name()), obs.String("err", err.Error()))
		}
	}
	return nil
}

// quarantinePlanLocked moves an unusable plan file aside so recovery
// stops tripping on it and a future resubmission can heal the directory.
func (c *Coordinator) quarantinePlanLocked(dir, path, reason string) {
	mStateHealed.With("plan").Inc()
	detail := "plan quarantined to " + jobPlanFile + ".corrupt"
	if err := os.Rename(path, path+".corrupt"); err != nil {
		detail = "plan could not be quarantined: " + err.Error()
	}
	c.events.Event(obs.LevelWarn, "state.heal",
		obs.String("dir", dir),
		obs.String("kind", "plan"),
		obs.String("detail", detail),
		obs.String("err", reason))
}

// ensureDir creates the state directory if it does not exist.
func ensureDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dist: create state dir: %w", err)
	}
	return nil
}

// writeFileAtomic writes data under a temp name in the target's
// directory, then renames it into place.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// writeJSONIndent encodes v as indented JSON — the on-disk plan format,
// matching the envelope files' human-inspectable style.
func writeJSONIndent(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// decodeJSONStrict decodes data into v, rejecting unknown fields — a
// recovered plan written by a different build should be skipped, not
// half-read.
func decodeJSONStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
