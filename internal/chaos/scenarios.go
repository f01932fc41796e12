package chaos

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/sim"
)

// KillCoordinatorMidArena is the acceptance scenario: SIGKILL the
// coordinator while a distributed arena sweep is in flight, restart it over
// the same state dir, then kill a worker while cells are still running. The
// re-submitted sweep must come back byte-identical to standalone, each cell
// must have simulated exactly once across the whole ordeal (the shared tier
// and content-keyed dedup absorb every re-placement), and the replayed
// journal must show a closed ledger.
var KillCoordinatorMidArena = Scenario{
	Name:        "kill-coordinator",
	Description: "SIGKILL coordinator mid-arena, restart over the journal, kill a worker owning in-flight cells",
	Run: func(r *Run) {
		r.StartCoordinator(nil)
		for _, name := range []string{"w1", "w2", "w3"} {
			r.StartWorker(name)
		}
		r.WaitForWorkers(3)

		// 2 benchmarks × (baseline + cdp) = 4 cells.
		ops := 600_000 + 1000*r.pick("arena-ops", 50)
		params := fmt.Sprintf("ops=%d&benchmarks=quake,speech&engines=cdp", ops)
		const cells = 4
		ref := r.StandaloneArena(params, 2*time.Minute)
		runs0 := sim.Runs()

		arenaJob := r.SubmitArenaAsync(params)
		r.Logf("arena %s submitted (%d cells)", arenaJob, cells)

		// Wait for the fan-out to journal every cell, then pull the plug.
		r.WaitOpenPlacements(cells)
		r.KillCoordinator()

		r.RestartCoordinator()
		r.WaitForWorkers(3)

		// The orphaned cells are being re-adopted; while they run, kill one
		// worker. Its in-flight cells stop with it uncounted and are
		// recomputed on a survivor; its finished cells sit in the shared
		// tier.
		victim := r.WorkerNames()[r.pick("victim", 3)]
		r.KillWorker(victim)

		// The arena assembly job died with the first coordinator (it was
		// local to that process); the cells survived in the journal. A
		// re-submitted sweep rides entirely on their results.
		result := r.WaitJob(r.SubmitArenaAsync(params), 2*time.Minute)
		r.Check(bytes.Equal(result, ref),
			"arena after crash+restart+worker-kill differs from standalone:\ncluster    %s\nstandalone %s", result, ref)

		delta := sim.Runs() - runs0
		r.Check(delta == cells,
			"exactly-once violated: %d simulation runs for %d cells", delta, cells)
	},
}

// PartitionWorkerMidJob drops the inbound side of the worker that owns a
// checkpointed job mid-run. The coordinator's placement fails at transport,
// steals the job to a survivor, and the survivor resumes from the boundary
// snapshot. The partitioned worker keeps its outbound heartbeats, so after
// healing it is re-admitted without a restart. The local run it finishes in
// isolation is the one documented double-run window, so the runs delta may
// be expected+1 — but bytes must match standalone exactly.
var PartitionWorkerMidJob = Scenario{
	Name:        "partition-worker",
	Description: "asymmetric partition of the owning worker mid-job; steal, resume, heal, re-admit",
	Run: func(r *Run) {
		r.StartCoordinator(nil)
		r.StartWorker("w1")
		r.StartWorker("w2")
		r.WaitForWorkers(2)

		victim := r.WorkerNames()[r.pick("victim", 2)]
		req, jobID := r.OwnedRequest(victim, []string{"w1", "w2"}, 2_000_000+1000*r.pick("ops", 100), 50_000)
		ref := r.StandaloneSim(req)
		runs0 := sim.Runs()

		r.SubmitSimAsync(req)
		r.WaitSnapshot(jobID)
		r.PartitionWorker(victim)

		result := r.WaitJob(jobID, 2*time.Minute)
		r.Check(bytes.Equal(result, ref),
			"stolen+resumed result differs from standalone:\ncluster    %s\nstandalone %s", result, ref)

		delta := sim.Runs() - runs0
		r.Check(delta == 1 || delta == 2,
			"runs delta %d, want 1 (stolen before the victim finished: 2 — the documented partition window)", delta)

		r.HealWorker(victim)
		r.WaitForWorkers(2) // outbound heartbeats re-admit it without a restart
	},
}

// CorruptCacheTier tears disk spills mid-payload via the
// disk.cache.torn-write fault, kills the worker that wrote them, and
// re-routes the job to a survivor reading the shared tier cold. The CRC
// trailer must quarantine the torn entry, the survivor must recompute, and
// the bytes must still match standalone — corruption costs a recompute,
// never a wrong answer.
var CorruptCacheTier = Scenario{
	Name:        "corrupt-cache",
	Description: "torn disk spills quarantined on cold read; recompute, never wrong bytes",
	Run: func(r *Run) {
		r.StartCoordinator(nil)
		r.StartWorker("w1")
		r.StartWorker("w2")
		r.WaitForWorkers(2)

		victim := r.WorkerNames()[r.pick("victim", 2)]
		req, _ := r.OwnedRequest(victim, []string{"w1", "w2"}, 100_000+1000*r.pick("ops", 100), 0)
		ref := r.StandaloneSim(req)
		runs0 := sim.Runs()

		// Every spill during the first run is torn on disk. The spill is
		// asynchronous to the response, so wait for it to land before
		// disarming.
		prev := faultinject.Enable(faultinject.MustParse(r.Seed(), "disk.cache.torn-write"))
		first := r.SubmitSim(req)
		r.Check(bytes.Equal(first, ref), "result under torn-write fault differs from standalone")
		r.waitCacheFiles("", 1)
		faultinject.Enable(prev)

		// Kill the owner: its memory tier dies with it, leaving only the
		// torn disk entry. The re-routed job (the dead owner is dropped at
		// the first failed placement) must hit the CRC check, not the
		// payload.
		r.KillWorker(victim)
		second := r.SubmitSim(req)
		r.Check(bytes.Equal(second, ref), "recomputed-after-quarantine result differs from standalone")

		delta := sim.Runs() - runs0
		r.Check(delta == 2,
			"runs delta %d, want 2 (original + recompute after quarantine; 1 would mean torn bytes were served)", delta)
		r.waitCacheFiles(".corrupt", 1)
	},
}

// LeaseExpiryUnderLoad runs a stream of waited jobs against a ring salted
// with ghost members whose leases expire mid-stream. Every placement that
// lands on a ghost fails at transport and must steal to a live worker;
// every job must finish byte-identical to standalone and the ring must end
// with only real members.
var LeaseExpiryUnderLoad = Scenario{
	Name:        "lease-expiry",
	Description: "ghost members expire under a stream of waited jobs; steals keep every job alive",
	Run: func(r *Run) {
		r.StartCoordinator(func(o *cluster.CoordinatorOptions) {
			o.LeaseTTL = 500 * time.Millisecond
		})
		r.StartWorker("w1")
		r.StartWorker("w2")
		r.RegisterGhost("ghost1")
		r.RegisterGhost("ghost2")
		r.WaitForWorkers(4)

		base := 50_000 + 1000*r.pick("ops", 100)
		for i := 0; i < 6; i++ {
			req := api.SimRequest{Benchmark: "quake", Ops: base + 10_000*i}
			ref := r.StandaloneSim(req)
			got := r.SubmitSim(req)
			r.Check(bytes.Equal(got, ref), "job %d (ops=%d) differs from standalone", i, req.Ops)
		}

		// The sweeper has had several TTLs to reap the ghosts.
		r.WaitForWorkers(2)
	},
}
