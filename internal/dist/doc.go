// Package dist is the distributed execution backend for scenario sweeps:
// a multi-tenant job queue (coordinator) and job-agnostic workers split
// over the shard envelope that internal/scenario already treats as a
// complete wire format.
//
// A Coordinator owns a queue of jobs — each one planned sweep: the spec,
// the effective sweep parameters (seeds, window, base seed, sample
// selection), the shard count and the sweep Fingerprint derived from all
// of them — and serves a versioned resource API:
//
//	POST /v1/sweeps                    submit a sweep (spec + overrides);
//	                                   answers the job, idempotently —
//	                                   job IDs derive from the sweep
//	                                   fingerprint and partition
//	GET  /v1/sweeps                    list the queue
//	GET  /v1/sweeps/{id}               one job's status and shard states
//	GET  /v1/sweeps/{id}/events        SSE stream: every accepted shard
//	                                   envelope (replayed, then live),
//	                                   then one complete frame
//	POST /v1/sweeps/{id}/leases        pull work from one job
//	POST /v1/leases                    pull work fair-share across jobs
//	POST /v1/leases/{lease}/renew      extend a lease while computing
//	POST /v1/leases/{lease}/result     push back the shard's ShardResult
//	                                   envelope without its spec; the
//	                                   fingerprint and shard coordinates
//	                                   are checked, the plan's spec
//	                                   attached and the framing validated
//	                                   before acceptance (an upload that
//	                                   carries a spec is refused)
//	GET  /status                       progress accounting for humans and
//	                                   scripts (every job + worker
//	                                   liveness)
//
// Leases are granted fair-share: the coordinator round-robins across
// active jobs (lowest open shard within a job), so one tenant's
// million-scenario matrix cannot starve another's quick sweep. Leases
// expire: a worker that crashes mid-shard stops renewing its claim, and
// after the lease TTL the coordinator re-issues the same shard to the
// next worker that asks. Because sweeps are deterministic — trial seeds
// derive from scenario content, never from placement — a re-executed
// shard produces byte-identical results, so a stale submit racing a
// re-lease is accepted idempotently rather than rejected: every writer
// of a shard writes the same bytes.
//
// A job encodes its plan and its spec once, before it is published.
// Every lease answer is written around the plan's bytes, byte for byte
// what json.NewEncoder(w).Encode writes for it, and no envelope is
// encoded with its spec: an upload is read once, in one pass when it is
// the compact form json.Marshal gives it (ShardReader.Decode; workers'
// uploads are) and strictly otherwise, and the envelope the job
// keeps is the upload's own bytes — or, for a strictly read upload, its
// json.Marshal — with the job's spec bytes in place of its null spec.
//
// Jobs are resumable. With a state directory configured the coordinator
// persists each job's plan and every accepted envelope, the latter as
// those compact bytes, which are also the shard's SSE frame data; a
// restart rescans the directory, revalidates each envelope exactly as a
// live submit would (ShardReader framing plus fingerprint and shard
// coordinates, then the plan's spec attached, spliced in the same way),
// and re-queues only the missing shards — completed work is never
// re-executed.
//
// A Worker pulls a lease (job-agnostic by default, pinnable to one job),
// recomputes the sweep fingerprint locally from the leased spec and its
// own registry version (refusing the lease on mismatch, which catches
// coordinator/worker version skew), runs the ordinary Matrix.Sweep over
// the shard's index range — sharing a content-addressed result Cache
// with colocated workers when configured — and submits the envelope
// without its spec. A worker prepares each job's plan once: it keeps
// the last plan it verified, with its matrix and scenario selection, and
// while the next lease carries the same plan bytes it neither decodes
// the plan again nor rebuilds them, so the fingerprint check holds for
// every lease and only different bytes pay for it again. Client.Lease
// finds those bytes without scanning them: it walks the answer's
// top-level members to the plan and compares the known plan's bytes
// there, and any other answer takes the full decode. The
// coordinator attaches its own plan's spec to every upload, so persisted
// envelopes, SSE frames and merge inputs stay complete. When every shard
// has been submitted the job's envelopes reassemble with MergeShards
// into a report byte-identical to a fresh serial run of the same sweep.
//
// Worker and the `goalsweep submit`/`watch` CLI verbs are built on the
// same Client. A Coordinator is an http.Handler and a Client takes any
// *http.Client, so the whole submit/lease/crash/re-lease/result cycle is
// testable hermetically, in one process with no sockets. cmd/goalsweep
// exposes the backend as "goalsweep serve" (the sweep service),
// "goalsweep work", "goalsweep submit" and "goalsweep watch".
package dist
