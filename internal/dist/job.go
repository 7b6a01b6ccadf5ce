package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
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
// coordinator. All fields are guarded by the owning Coordinator's mutex,
// except plan and spec: they are written before the job is published
// under that mutex and only read after, so they may be read without it.
type job struct {
	id   string
	plan Plan   // plan.wire is its encoding, written into every lease answer
	spec []byte // json.Marshal of plan.Spec, spliced into every kept envelope

	shards  []shardState                  // index i-1 holds shard i/n
	results map[int]*scenario.ShardResult // 1-based shard index -> envelope
	frames  map[int][]byte                // 1-based shard index -> its EventShard frame
	resumed int                           // shards restored from on-disk envelopes
	done    chan struct{}                 // closed when every shard has been accepted
	subs    []chan []byte                 // live SSE subscribers (see events.go)
}

// newJob builds the job for plan and encodes the plan and its spec, once
// for the job's life. A plan holds strings and integers only, so both
// always encode.
func newJob(plan Plan) *job {
	plan.wire, _ = json.Marshal(&plan)
	spec, _ := json.Marshal(plan.Spec)
	return &job{
		id:      JobID(plan),
		plan:    plan,
		spec:    spec,
		shards:  make([]shardState, plan.Shards),
		results: make(map[int]*scenario.ShardResult),
		frames:  make(map[int][]byte),
		done:    make(chan struct{}),
	}
}

func (j *job) complete() bool { return len(j.results) == j.plan.Shards }

// record marks one shard done with its envelope, which carries the plan's
// spec. bare is json.Marshal of the same envelope with a nil Spec; the
// job's spec bytes take the place of its null, so no envelope is encoded
// with its spec. record returns the result, json.Marshal of the envelope
// as kept: the shard's state file, and the data of its live SSE frame and
// of every replay. The decoded envelope stays for JobMerged.
func (j *job) record(sr *scenario.ShardResult, bare []byte) []byte {
	data := scenario.SpliceSpec(bare, j.spec)
	idx := sr.Shard.Index
	j.results[idx] = sr
	j.frames[idx] = sseFrame(EventShard, strconv.Itoa(idx), data)
	j.shards[idx-1].done = true
	return data
}

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
// a crash mid-write never leaves a half plan for recovery to trip on; a
// plan that recovery quarantined as corrupt is rewritten here when its
// sweep is submitted again.
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
	var buf bytes.Buffer
	if err := writeJSONIndent(&buf, &j.plan); err != nil {
		c.events.Event(obs.LevelWarn, "state.persist_fail",
			obs.String("job", j.id), obs.String("err", err.Error()))
		return
	}
	if err := writeFileAtomic(filepath.Join(dir, jobPlanFile), buf.Bytes()); err != nil {
		c.events.Event(obs.LevelWarn, "state.persist_fail",
			obs.String("job", j.id), obs.String("err", err.Error()))
	}
}

// persistShardLocked writes one accepted envelope's encoding (see
// job.record) under the job's state directory. Persistence failures are
// logged, not fatal: the job still completes in memory, the shard just
// re-executes after a restart.
func (c *Coordinator) persistShardLocked(j *job, idx int, data []byte) {
	if c.stateDir == "" {
		return
	}
	dir := j.dir(c.stateDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.events.Event(obs.LevelWarn, "state.persist_fail",
			obs.String("job", j.id), obs.String("err", err.Error()))
		return
	}
	if err := writeFileAtomic(filepath.Join(dir, shardFile(idx)), data); err != nil {
		c.events.Event(obs.LevelWarn, "state.persist_fail",
			obs.String("job", j.id), obs.String("err", err.Error()))
	}
}

// resumeShardsLocked rescans a job's state directory for completed shard
// envelopes and marks the valid ones done, so a restarted coordinator
// re-queues only the missing shards. Every envelope revalidates through
// a ShardReader plus the fingerprint and shard-coordinate checks a live
// submit would pass, and gets the plan's spec attached, as a live submit
// does, whatever spec its file names: it is encoded without its spec and
// recorded with the job's spec bytes. A file whose bytes are not that
// encoding is rewritten. Anything corrupt, truncated or
// foreign is healed — the bad file is removed, the shard re-queues, and
// the re-executed envelope overwrites it — instead of being left to trip
// every future restart.
func (c *Coordinator) resumeShardsLocked(j *job) {
	if c.stateDir == "" {
		return
	}
	dir := j.dir(c.stateDir)
	var rd scenario.ShardReader
	for idx := 1; idx <= j.plan.Shards; idx++ {
		if j.results[idx] != nil {
			continue
		}
		path := filepath.Join(dir, shardFile(idx))
		file, err := os.ReadFile(path)
		if err != nil {
			continue // not persisted: the shard is still open
		}
		sr, err := rd.Read(bytes.NewReader(file))
		if err != nil {
			c.healEnvelopeLocked(j, idx, path, err.Error())
			continue
		}
		if sr.Fingerprint != j.plan.Fingerprint || sr.Shard.Index != idx || sr.Shard.Count != j.plan.Shards {
			c.healEnvelopeLocked(j, idx, path, "envelope does not match the job's plan")
			continue
		}
		sr.Spec = nil
		bare, _ := json.Marshal(sr) // a decoded envelope always encodes
		sr.Spec = j.plan.Spec
		if data := j.record(sr, bare); !bytes.Equal(data, file) {
			c.persistShardLocked(j, idx, data)
		}
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
// submission (`goalsweep submit`, or a batch `goalsweep serve` of the
// same sweep) recreates the job and re-persists a clean plan over the
// same directory, resuming whatever envelopes survived. Directory
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
		if err := scenario.DecodeStrict(bytes.NewReader(data), &plan); err != nil {
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

// writeJSONIndent encodes v as indented JSON, the on-disk plan format. A
// plan is written once per job; shard files are compact, being the SSE
// frames' data (see job.record).
func writeJSONIndent(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
