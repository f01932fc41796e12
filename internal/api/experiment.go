package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/experiments"
	"repro/internal/jobq"
	"repro/internal/simcache"
)

// experimentReport is the cacheable payload for one finished experiment.
type experimentReport struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Ops   int    `json:"ops"`
	Reps  bool   `json:"reps"`
	Text  string `json:"text"`
}

// handleExperiment is GET /v1/experiments/{id}: run a registered
// experiment (a full benchmark × config matrix) as one job. Query
// parameters: ops (µop budget), reps=1 (representative-benchmark subset),
// priority, wait=1.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	runner, err := experiments.Get(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	q := r.URL.Query()
	ops, err := ParseOps(q.Get("ops"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	reps := q.Get("reps") == "1"
	priority, err := parsePriority(q.Get("priority"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := simcache.KeyForExperiment(id, ops, reps)
	s.serveSweep(w, r, "exp-", key, priority, func(ctx context.Context, j *jobq.Job) ([]byte, error) {
		// Per-simulation matrix progress goes to stream subscribers.
		rep, err := runner.Run(experiments.Options{
			Ctx:  ctx,
			Ops:  ops,
			Reps: reps,
			Progress: func(done, total int) {
				j.SetProgress("simulating", done, total)
			},
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(experimentReport{
			ID: runner.ID, Title: runner.Title, Ops: ops, Reps: reps, Text: rep.Text,
		})
	})
}

// serveSweep answers a sweep request (an experiment or an arena) whose
// report caches under key: a cached report is served at once; otherwise
// compute runs as job idPrefix+key inside the cache's GetOrCompute, and an
// identical request arriving meanwhile attaches to that job instead of
// spending another queue slot.
func (s *Server) serveSweep(w http.ResponseWriter, r *http.Request, idPrefix string, key simcache.Key, priority int,
	compute func(ctx context.Context, j *jobq.Job) ([]byte, error)) {
	if data, ok := s.cache.Get(key); ok {
		injectRespondFaults(w, r)
		WriteJSON(w, http.StatusOK, envelope{Cached: true, Result: data})
		return
	}
	if s.shedLowPriority(priority) {
		s.writeShed(w)
		return
	}
	jobID := idPrefix + key.String()
	job, err := s.queue.Submit(jobID, priority, func(ctx context.Context, j *jobq.Job) (any, error) {
		data, hit, err := s.cache.GetOrCompute(key, func() ([]byte, error) { return compute(ctx, j) })
		if err != nil {
			return nil, err
		}
		return jobPayload{data: data, cached: hit}, nil
	})
	if errors.Is(err, jobq.ErrDuplicateID) {
		if j, ok := s.queue.Get(jobID); ok {
			s.RespondJob(w, r, false, j)
			return
		}
	}
	if err != nil {
		s.writeBackpressure(w, err)
		return
	}
	s.RespondJob(w, r, false, job)
}
