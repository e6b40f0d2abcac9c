// Parallel exhaustive exploration over dynamically split leaf intervals.
//
// The leaves of the decision tree are totally ordered by the depth-first
// order the serial explorer visits them in. Every worker walks an
// interval of that order (a span: from the leaf of node lo up to, not
// including, the leaf of node hi) with the serial dfs, whose
// backtracking climbs above lo and stops at hi. The exploration starts
// as one interval over the whole tree. Before each execution a worker
// publishes the node it is about to run; an idle worker splits an
// in-flight interval at a pending sibling s on that node's path: the
// owner keeps [node, s) and the idle worker takes [s, hi).
//
// An uncapped exploration splits at the shallowest such sibling of any
// interval, so intervals stay large and splits rare. A capped one counts
// only its first Limit leaves: an idle worker takes the first work in
// leaf order, splitting where the owner keeps at most an eighth of the
// leaves still to go before the limit (see splitPoint). A limit far above
// the tree's size thus splits like no limit, and near a binding one the
// new interval starts close behind its owner. As that estimate can be
// wrong, once the walks have visited an eighth of the limit a capped walk
// also gives way after yieldAfter leaves whenever there is work earlier
// in the order, leaving the rest of its interval to whichever worker
// reaches it first. A capped exploration runs at most GOMAXPROCS
// workers, since a worker waiting for a CPU stalls the leaf count the
// others stop by. Each worker owns one pooled engine.Runner.
//
// Determinism argument. The intervals partition the leaf set and a split
// inserts the new interval right after its parent, so the interval list
// is in leaf order and concatenating the per-interval leaf sequences
// reproduces the serial visit sequence exactly. Counting is commutative
// within an interval, so an unlimited exploration trivially matches
// serial. With a limit L the serial explorer visits exactly the first L
// leaves. A capped interval records its leaves' keys in order and stops
// once the leaves visited so far by the intervals before it, plus its
// own, reach L: those counts only grow, so no leaf it skips can be among
// the first L. The merge walks the list in order and cuts the one
// interval that straddles leaf L from its recorded keys, with exactly
// the budget left for it. Timing changes only how many leaves past the
// cut were executed (telemetry), never the merged result.
package enumerate

import (
	"runtime"
	"slices"
	"sync"

	"pctwm/internal/engine"
	"pctwm/internal/telemetry"
)

// The capped policy: a split leaves the owner an estimated 1/nearShare
// of the leaves still to go before the limit, and at least minKeep; once
// the walks have visited 1/nearShare of the limit, a walk gives way to
// earlier work after yieldAfter leaves of its own.
const (
	minKeep    = 32
	yieldAfter = 32
	nearShare  = 8
)

// interval is one worker's stretch of the leaf order.
type interval[K comparable] struct {
	span // lo and want are fixed; splits lower hi (pool.mu)
	// The fields below up to counts are guarded by pool.mu.
	next *interval[K] // the following interval in leaf order
	// at is the node the walk runs next and atWant the recorded arity
	// along it (nil before the first execution); last holds the arities
	// of the walk's last leaf (capped walks only).
	at, atWant, last []int
	runs             int  // leaves visited
	owned            bool // a worker walks it (or has walked it)
	done             bool
	// Walk results, owned by the walking worker until the pool drains:
	// counts when uncapped; when capped, log holds every leaf in order as
	// twice the index of its key in keys (found through ids), plus one
	// when the leaf was truncated.
	counts map[K]int
	ids    map[K]int32
	keys   []K
	log    []int32
	res    spanResult
}

// pool keeps the intervals in leaf order and splits them for idle
// workers.
type pool[K comparable] struct {
	mu   sync.Mutex
	wake sync.Cond // idle workers wait here for work
	head *interval[K]
	// settled is the last interval of the list's finished prefix, and
	// settledRuns the leaves of that prefix.
	settled     *interval[K]
	settledRuns int
	visited     int  // leaves visited by every interval
	walking     int  // intervals being walked
	idle        int  // workers waiting in take
	halt        bool // drift: every walk stops
	limit       int
}

// after returns the interval following iv in leaf order (the head for
// nil). Called with mu held.
func (p *pool[K]) after(iv *interval[K]) *interval[K] {
	if iv == nil {
		return p.head
	}
	return iv.next
}

// take returns the next interval for the calling worker, waiting while
// there is none, or nil once no work is left.
func (p *pool[K]) take(tel *telemetry.EngineCounters) *interval[K] {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.halt {
		if iv := p.claim(tel); iv != nil {
			p.walking++
			return iv
		}
		if p.walking == 0 {
			break
		}
		p.idle++
		p.wake.Wait()
		p.idle--
	}
	return nil
}

// claim finds work for an idle worker: an interval no worker walks yet,
// or a split of an in-flight one. A capped exploration takes the first
// such work in leaf order before the limit; an uncapped one splits at the
// shallowest split point of any interval, so intervals stay large. Called
// with mu held.
func (p *pool[K]) claim(tel *telemetry.EngineCounters) *interval[K] {
	capped := p.limit > 0
	var victim *interval[K]
	best := -1
	before := p.settledRuns
	for x := p.after(p.settled); x != nil; x = x.next {
		if capped && before+x.runs >= p.limit {
			break // everything from x on lies past the limit
		}
		before += x.runs
		if x.done {
			continue
		}
		if !x.owned {
			x.owned = true
			return x
		}
		if j := p.splitPoint(x, before); j >= 0 && (victim == nil || j < best) {
			victim, best = x, j
			if capped {
				break
			}
		}
	}
	if victim == nil {
		return nil
	}
	s := append(slices.Clone(victim.at[:best]), victim.at[best]+1)
	iv := &interval[K]{span: span{lo: s, want: slices.Clone(victim.atWant[:best+1]), hi: victim.hi}, next: victim.next, owned: true}
	victim.hi, victim.next = s, iv
	tel.ExploreSteals++
	return iv
}

// splitPoint picks where to split x, whose walk is at least at leaf
// position pos, or returns -1: capped, the owner keeps an estimated
// eighth of the leaves still to go before the limit, at least minKeep.
// Called with mu held.
func (p *pool[K]) splitPoint(x *interval[K], pos int) int {
	if x.runs < 2 {
		// The second leaf of a walk replays a prefix its first recorded:
		// a program that drifts between runs (say, through state its
		// body keeps across executions) is caught there, before a second
		// worker could run it at the same time.
		return -1
	}
	if p.limit == 0 {
		return splitPoint(x.at, x.atWant, x.hi, nil, 0)
	}
	return splitPoint(x.at, x.atWant, x.hi, x.last, max(minKeep, (p.limit-pos)/nearShare))
}

// splitPoint returns the index j of the sibling at[:j]+[at[j]+1] to
// split at: the shallowest pending alternative on at's path that lies
// before hi, or -1 when there is none. With keep > 0 the owner may keep
// only about keep leaves, [at, sibling): they are estimated as the
// product of the arities below j along last, the owner's last leaf,
// whose shape the subtrees next to it are assumed to share.
func splitPoint(at, want, hi, last []int, keep int) int {
	est := 1
	for _, a := range last[min(len(at), len(last)):] {
		est = min(est*a, keep+1)
	}
	best := -1
	for j := len(at) - 1; j >= 0 && (keep == 0 || est <= keep); j-- {
		if at[j]+1 < want[j] {
			at[j]++
			inside := hi == nil || cmpNode(at[:j+1], hi) < 0
			at[j]--
			if !inside {
				break // shallower siblings lie further still
			}
			best = j
		}
		est = min(est*want[j], keep+1)
	}
	return best
}

// step is the walking worker's hook before each execution: it publishes
// the node about to run (script, with recorded arities expect), the
// arities of the last leaf and the leaves visited so far, refreshes the
// walk's end sp.hi, and reports whether the walk goes on. A capped walk
// stops once the leaves visited before it plus its own reach the limit;
// no walk can be there while fewer leaves than the limit are visited in
// all. Once the walks have visited an eighth of the limit, a capped walk
// past its first yieldAfter leaves ends at the node about to run
// whenever there is work earlier in the order, leaving the rest of its
// interval to whichever worker gets there first.
func (p *pool[K]) step(iv *interval[K], sp *span, runs int, script, expect, last []int,
	tel *telemetry.EngineCounters) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.visited += runs - iv.runs
	iv.runs = runs
	if p.halt {
		return false
	}
	// before counts the leaves visited by the intervals before iv: a lower
	// bound, which only grows, on the position of iv's first leaf.
	before, earlier := 0, false
	yield := p.limit > 0 && runs >= yieldAfter && p.visited*nearShare >= p.limit
	if p.limit > 0 && (yield || p.idle > 0 || p.visited >= p.limit) {
		before = p.settledRuns
		for x := p.after(p.settled); x != iv; x = x.next {
			before += x.runs
			if yield && !earlier && !x.done {
				earlier = !x.owned || p.splitPoint(x, before) >= 0
			}
		}
		if before+runs >= p.limit {
			tel.ExplorePruned++
			return false
		}
		if earlier {
			rest := &interval[K]{span: span{lo: slices.Clone(script), want: slices.Clone(expect), hi: iv.hi}, next: iv.next}
			iv.hi, iv.next = rest.lo, rest
			p.wake.Signal()
		}
	}
	iv.at = append(iv.at[:0], script...)
	iv.atWant = append(iv.atWant[:0], expect...)
	iv.last = append(iv.last[:0], last...)
	sp.hi = iv.hi
	if p.idle > 0 && p.splitPoint(iv, before+runs) >= 0 {
		p.wake.Signal()
	}
	return true
}

// finish records the end of iv's walk and extends the settled prefix.
func (p *pool[K]) finish(iv *interval[K]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	iv.done = true
	p.visited += iv.res.runs - iv.runs
	iv.runs = iv.res.runs
	p.halt = p.halt || iv.res.drift != nil
	for x := p.after(p.settled); x != nil && x.done; x = x.next {
		p.settled = x
		p.settledRuns += x.runs
	}
	if p.walking--; p.walking == 0 || p.halt {
		p.wake.Broadcast()
	}
}

// walk explores iv on r, driven by s.
func (p *pool[K]) walk(r *engine.Runner, s *scripted, iv *interval[K], tel *telemetry.EngineCounters,
	ctxOK func(script, expect []int) bool, key func(*engine.Outcome) K) {
	capped := p.limit > 0
	if capped {
		iv.ids = make(map[K]int32)
	} else {
		iv.counts = make(map[K]int)
	}
	p.mu.Lock()
	sp := iv.span
	p.mu.Unlock()
	runs := 0
	var last []int
	iv.res = dfs(r, s, &sp, 0, tel, func(script, expect []int) bool {
		return (ctxOK == nil || ctxOK(script, expect)) && p.step(iv, &sp, runs, script, expect, last, tel)
	}, func(o *engine.Outcome, arity []int) bool {
		k := key(o)
		if capped {
			id, ok := iv.ids[k]
			if !ok {
				id = int32(len(iv.keys))
				iv.ids[k] = id
				iv.keys = append(iv.keys, k)
			}
			if o.Aborted {
				iv.log = append(iv.log, 2*id+1)
			} else {
				iv.log = append(iv.log, 2*id)
			}
			last = append(last[:0], arity...) // splitPoint's estimate
		} else {
			iv.counts[k]++
		}
		runs++
		return true
	})
	p.finish(iv)
}

// parallelOutcomes is the Workers != 1 path of outcomes.
func parallelOutcomes[K comparable](prog *engine.Program, opts engine.Options, cfg Config, key func(*engine.Outcome) K) (map[K]int, Result) {
	workers := resolveWorkers(cfg.Workers)
	capped := cfg.Limit > 0
	if capped {
		// A worker waiting for a CPU holds back the leaf count that tells
		// the walks after its interval where the limit lies, so a capped
		// exploration runs no more workers than can run at once.
		workers = min(workers, runtime.GOMAXPROCS(0))
	}
	ctxOK := ctxNext(cfg.Context)

	root := &interval[K]{owned: true}
	p := &pool[K]{head: root, walking: 1, limit: cfg.Limit}
	p.wake.L = &p.mu

	// The caller's telemetry must not be written concurrently: every
	// worker counts into its own shard, merged after the pool drains (the
	// RunCampaign contract).
	base := opts.Telemetry
	shards := make([]telemetry.EngineCounters, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wopts := opts
			wopts.Telemetry = nil
			tel := &shards[w]
			if base != nil {
				wopts.Telemetry = tel
			}
			iv := root
			if w > 0 {
				iv = p.take(tel)
			}
			if iv == nil {
				return
			}
			r, s := engine.NewRunner(prog, wopts), &scripted{}
			defer r.Close()
			for ; iv != nil; iv = p.take(tel) {
				p.walk(r, s, iv, tel, ctxOK, key)
			}
		}()
	}
	wg.Wait()
	if base != nil {
		for i := range shards {
			base.Merge(&shards[i])
		}
	}

	// Any drift aborts the whole exploration; report the one earliest in
	// leaf order for stability.
	for iv := p.head; iv != nil; iv = iv.next {
		if iv.res.drift != nil {
			return nil, Result{Drift: iv.res.drift}
		}
	}

	// Deterministic merge in leaf order.
	counts := make(map[K]int)
	res := Result{Complete: true}
	for iv := p.head; iv != nil; iv = iv.next {
		if capped && res.Runs == cfg.Limit {
			// The limit cut the order before this (non-empty) interval.
			res.Complete = false
			break
		}
		take := iv.res.runs
		if capped {
			take = min(take, cfg.Limit-res.Runs)
			n := make([]int, 2*len(iv.keys))
			for _, e := range iv.log[:take] {
				n[e]++
			}
			for e, c := range n {
				if c > 0 {
					counts[iv.keys[e/2]] += c
					res.Truncated += c * (e % 2)
				}
			}
		} else {
			for k, n := range iv.counts {
				counts[k] += n
			}
			res.Truncated += iv.res.truncated
		}
		res.Runs += take
		if take < iv.res.runs || !iv.res.complete {
			// Cut by the limit, or stopped short by cancellation.
			res.Complete = false
			res.Interrupted = !capped || res.Runs < cfg.Limit
			break
		}
	}
	return counts, res
}
