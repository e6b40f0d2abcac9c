package main

import (
	"math/rand"
	"sync"
	"time"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// timedStrategy wraps a strategy and times every scheduling and
// reads-from decision it makes. The times include one clock read each.
// A timedStrategy is used by one Runner at a time.
type timedStrategy struct {
	engine.Strategy
	nextCalls, readCalls int64
	nextNs, readNs       int64
}

func (s *timedStrategy) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	t0 := time.Now()
	tid := s.Strategy.NextThread(enabled)
	s.nextNs += time.Since(t0).Nanoseconds()
	s.nextCalls++
	return tid
}

func (s *timedStrategy) PickRead(rc engine.ReadContext) int {
	t0 := time.Now()
	i := s.Strategy.PickRead(rc)
	s.readNs += time.Since(t0).Nanoseconds()
	s.readCalls++
	return i
}

// traceCell opens the span of one RunCampaign cell and, when tracing,
// wraps newStrategy so every trial records a span under it. done closes
// the trial spans and the cell span.
func traceCell(tr *tracer, parent int, newStrategy func() engine.Strategy) (wrapped func() engine.Strategy, done func()) {
	if tr == nil {
		return newStrategy, func() {}
	}
	span := tr.begin("harness.RunCampaign", parent, 0)
	ts := &trialSpans{tr: tr, parent: span}
	return ts.wrap(newStrategy), func() {
		ts.close()
		tr.end(span)
	}
}

// trialSpans hands out strategies that record the spans of a campaign's
// trials. Each strategy (one per worker, and one per triage replay)
// opens a harness.worker span under the cell's span at its first trial
// and ends it at its last event (within lastEvery events), so the cell's
// self time is the campaign's own work outside trials. Under it, each
// trial gets a span from the strategy's Begin to its next Begin, covering
// the run plus the campaign's per-trial bookkeeping, or to the last event
// for the last trial; these are sampled (see maxSampled). Trials get
// distinct ids.
type trialSpans struct {
	tr     *tracer
	parent int

	mu    sync.Mutex
	strat []*spanStrategy
}

// wrap returns a newStrategy function for RunCampaign.
func (ts *trialSpans) wrap(newStrategy func() engine.Strategy) func() engine.Strategy {
	return func() engine.Strategy {
		s := &spanStrategy{Strategy: newStrategy(), ts: ts}
		ts.mu.Lock()
		ts.strat = append(ts.strat, s)
		ts.mu.Unlock()
		return s
	}
}

// close ends the last trial span and the worker span of every worker.
func (ts *trialSpans) close() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, s := range ts.strat {
		s.flush(s.last)
		ts.tr.endAt(s.worker, s.last)
	}
}

type spanStrategy struct {
	engine.Strategy
	ts     *trialSpans
	worker int // the harness.worker span, 0 before the first trial
	start  time.Time
	last   time.Time // of the last timed event
	events int
	trial  int64
}

// lastEvery is how often, in events, a spanStrategy reads the clock.
const lastEvery = 32

func (s *spanStrategy) Begin(info engine.ProgramInfo, r *rand.Rand) {
	if s.worker == 0 {
		s.worker = s.ts.tr.begin("harness.worker", s.ts.parent, 0)
	}
	now := time.Now() // after the worker span's start, so no span ends before it starts
	s.flush(now)
	s.start, s.last, s.trial = now, now, s.ts.tr.trials.Add(1)
	s.Strategy.Begin(info, r)
}

func (s *spanStrategy) OnEvent(ev *memmodel.Event) {
	s.Strategy.OnEvent(ev)
	// A clock read per event slowed the campaign's 20-event trials by a
	// sixth; one per lastEvery events ends the last trial at most
	// lastEvery-1 events early, and never before its Begin.
	if s.events++; s.events%lastEvery == 0 {
		s.last = time.Now()
	}
}

func (s *spanStrategy) flush(end time.Time) {
	if !s.start.IsZero() {
		s.ts.tr.record("harness.trial", s.worker, s.trial, s.start, end)
		s.start = time.Time{}
	}
}
