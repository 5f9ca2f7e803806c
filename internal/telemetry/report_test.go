package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// populate fills a recorder with fixed values chosen so every derived
// figure in the report is exactly representable (hit rate 0.75, mean 4,
// utilization 0.75, ...).
func populate() *Recorder {
	r := NewRecorder()
	r.FitDone(3, true)
	r.FitDone(5, false)
	r.WarmStartSavedIters(6)
	r.WarmStartSavedIters(0) // no-op: nothing saved
	r.SweepWarmStart()
	r.HistogramFold()
	r.HistogramFold()
	for i := 0; i < 8; i++ {
		r.PoolGet()
	}
	r.PoolMiss()
	r.PoolMiss()
	r.SelectRound(12)
	r.SelectRound(8)
	r.CandidatesScreened(15)
	r.CandidatesPolished(2)
	r.TermAccepted(10.0)
	r.SelectionDone()
	r.BootstrapDone(100, 4)
	r.FanOut(16)
	r.TaskDone(3 * time.Second)
	r.FanOutDone(time.Second)
	r.AddPhase("exp.summary", 250*time.Millisecond, 1)
	r.AddPhase("env.estimates", 500*time.Millisecond, 13)
	r.HTTPDone("estimate", 2*time.Millisecond, false)
	r.HTTPDone("estimate", 6*time.Millisecond, true)
	r.CacheHit()
	r.CacheMiss()
	r.CacheEvicted(3)
	r.CoalescedFollower()
	r.QueueSampled(1)
	r.QueueSampled(3)
	r.JobFinished(true)
	r.JobFinished(false)
	r.PanicRecovered()
	r.RequestCanceled()
	r.RequestCanceled()
	r.RequestTimedOut()
	r.GateSlots(1)
	r.GateSlots(1)
	r.GateSlots(-1)
	r.GateQueue(1)
	r.GateQueue(1)
	r.FleetForwarded()
	r.FleetForwarded()
	r.FleetForwarded()
	r.FleetRetried()
	r.FleetHedged()
	r.FleetFailedOver()
	r.FleetGaveUp()
	r.FleetMembersNow(2)
	r.FleetJoined()
	r.FleetJoined()
	r.FleetLeft()
	r.FleetLeaseExpired()
	r.PeerFill(true)
	r.PeerFill(true)
	r.PeerFill(false)
	r.IngestEvent()
	r.IngestEvent()
	r.IngestEvent()
	r.IngestEventDropped()
	r.IngestRotated(2)
	r.IngestRotated(0) // no-op: nothing rotated
	r.IngestHistUpdate()
	r.IngestHistUpdate()
	r.IngestTickParallel(3)
	r.TickDone(3 * time.Millisecond)
	r.TickDone(5 * time.Millisecond)
	r.WatchSubscribed()
	r.WatchTickShed()
	r.WatchTickShed()
	r.WatchDeltaEmitted()
	return r
}

const goldenReport = `{
  "schema": "ghosts.telemetry/v1",
  "started": "2026-01-02T03:04:05Z",
  "finished": "2026-01-02T03:05:35Z",
  "wall_ms": 90000,
  "workers": 4,
  "glm_fit": {
    "count": 2,
    "non_converged": 1,
    "warm_start_iters_saved": 6,
    "sweep_warm_starts": 1,
    "iterations": {
      "count": 2,
      "sum": 8,
      "mean": 4,
      "max": 5,
      "buckets": [
        {
          "le": 3,
          "n": 1
        },
        {
          "le": 7,
          "n": 1
        }
      ]
    }
  },
  "strata": {
    "histogram_folds": 2
  },
  "fit_pool": {
    "gets": 8,
    "misses": 2,
    "hit_rate": 0.75
  },
  "model_selection": {
    "selections": 1,
    "rounds": 2,
    "candidate_fits": 20,
    "terms_accepted": 1,
    "screened": 15,
    "polished": 2,
    "ic_improvement": {
      "count": 1,
      "sum": 10,
      "mean": 10,
      "max": 10,
      "buckets": [
        {
          "le": 15,
          "n": 1
        }
      ]
    }
  },
  "bootstrap": {
    "replicates": 100,
    "failures": 4
  },
  "parallel": {
    "fan_outs": 1,
    "tasks": 16,
    "busy_ms": 3000,
    "wall_ms": 1000,
    "utilization": 0.75
  },
  "serve": {
    "requests": 2,
    "errors": 1,
    "latency_us": {
      "count": 2,
      "sum": 8000,
      "mean": 4000,
      "max": 6000,
      "buckets": [
        {
          "le": 2047,
          "n": 1
        },
        {
          "le": 8191,
          "n": 1
        }
      ]
    },
    "cache_hits": 1,
    "cache_misses": 1,
    "cache_evictions": 3,
    "coalesced": 1,
    "queue_depth": {
      "count": 2,
      "sum": 4,
      "mean": 2,
      "max": 3,
      "buckets": [
        {
          "le": 1,
          "n": 1
        },
        {
          "le": 3,
          "n": 1
        }
      ]
    },
    "jobs_run": 2,
    "jobs_failed": 1,
    "panics": 1,
    "canceled": 2,
    "timed_out": 1,
    "slots_busy": 1,
    "queue_waiting": 2
  },
  "fleet": {
    "forwards": 3,
    "retries": 1,
    "hedges": 1,
    "failovers": 1,
    "exhausted": 1,
    "members": 2,
    "joins": 2,
    "leaves": 1,
    "lease_expiries": 1,
    "peer_fills": 2,
    "peer_fill_misses": 1
  },
  "ingest": {
    "events": 3,
    "dropped": 1,
    "rotations": 2,
    "hist_updates": 2,
    "windows_parallel": 3,
    "tick_us": {
      "count": 2,
      "sum": 8000,
      "mean": 4000,
      "max": 5000,
      "buckets": [
        {
          "le": 4095,
          "n": 1
        },
        {
          "le": 8191,
          "n": 1
        }
      ]
    }
  },
  "watch": {
    "subscribers": 1,
    "ticks_shed": 2,
    "deltas": 1
  },
  "phases": [
    {
      "name": "env.estimates",
      "calls": 1,
      "wall_ms": 500,
      "items": 13
    },
    {
      "name": "exp.summary",
      "calls": 1,
      "wall_ms": 250,
      "items": 1
    },
    {
      "name": "http.estimate",
      "calls": 2,
      "wall_ms": 8,
      "items": 2
    }
  ]
}
`

// TestReportGolden pins the exact JSON bytes the run report emits: field
// order, units and derived figures are part of the schema contract.
func TestReportGolden(t *testing.T) {
	r := populate()
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	rep := r.Report(t0, t0.Add(90*time.Second), 4)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenReport {
		t.Fatalf("report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), goldenReport)
	}
}

// TestReportDeterministic: identical recorder state and timestamps must
// give identical bytes, run after run.
func TestReportDeterministic(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	t1 := t0.Add(time.Minute)
	var first []byte
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := populate().Report(t0, t1, 4).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("run %d produced different bytes", i)
		}
	}
}

func TestReportValidJSONRoundTrip(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	var buf bytes.Buffer
	if err := populate().Report(t0, t0.Add(time.Second), 2).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("report is not valid JSON")
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema {
		t.Fatalf("schema = %q, want %q", back.Schema, Schema)
	}
	if back.Fit.Count != 2 || back.Pool.HitRate != 0.75 || back.Serve.Requests != 2 ||
		back.Ingest.Events != 3 || back.Ingest.HistUpdates != 2 ||
		back.Ingest.WindowsParallel != 3 || back.Watch.Subscribers != 1 ||
		back.Watch.Deltas != 1 || len(back.Phases) != 3 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestReportWriteFile(t *testing.T) {
	path := t.TempDir() + "/report.json"
	t0 := time.Unix(0, 0)
	if err := populate().Report(t0, t0.Add(time.Second), 1).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := populate().Report(t0, t0.Add(time.Second), 1).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("WriteFile bytes differ from WriteJSON bytes")
	}
}
