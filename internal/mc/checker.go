package mc

import "time"

// DefaultMaxDepth is the iterative-deepening ceiling: deep enough to
// fully close every committed configuration's state graph.
const DefaultMaxDepth = 512

// Options tunes one exploration.
type Options struct {
	// MaxDepth bounds the iterative deepening (0 = DefaultMaxDepth).
	MaxDepth int
}

// Result is one exploration's verdict.
type Result struct {
	Config Config `json:"config"`
	// Complete reports that the state graph was fully closed below the
	// bound — the verdict is exhaustive for the whole (finite) graph,
	// not just a depth slice.
	Complete bool `json:"complete"`
	// BoundUsed is the iterative-deepening limit of the deciding run.
	BoundUsed int `json:"bound_used"`

	// States and Transitions count the deciding run's distinct hashed
	// states and applied transitions — deterministic for a fixed
	// configuration, so they are exact-diffed against BENCH_mc.json.
	States      int `json:"states"`
	Transitions int `json:"transitions"`

	// Violation is VioNone for a clean protocol; otherwise Trace is a
	// minimal counterexample: the shortest action sequence from the
	// boot state to a violating state.
	Violation Violation     `json:"violation"`
	Trace     []Action      `json:"-"`
	TraceLen  int           `json:"trace_len"`
	Elapsed   time.Duration `json:"-"`
	ElapsedMS float64       `json:"elapsed_ms"`
}

// Run explores cfg's reduced machine: depth-first with full state
// hashing, iterative deepening (which also yields minimal
// counterexamples). An error is only
// returned for an invalid configuration — a found violation is a
// Result, not an error.
func Run(cfg Config, opt Options) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxDepth := opt.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	start := time.Now()
	res := &Result{Config: cfg}

	limit := 16
	if limit > maxDepth {
		limit = maxDepth
	}
	for {
		e := newExplorer(cfg)
		found := e.expand(initState(cfg), limit)
		res.BoundUsed = limit
		res.States = len(e.visited)
		res.Transitions = e.transitions
		if found {
			// Iterative deepening found *a* counterexample within the
			// first sufficient bound; shrink it to the minimal one.
			trace, vio := minimize(cfg, e.cex, e.vio)
			res.Violation = vio
			res.Trace = trace
			res.Complete = false
			break
		}
		if !e.boundHit {
			res.Complete = true
			res.Violation = VioNone
			break
		}
		if limit >= maxDepth {
			// Bounded verdict: no violation up to maxDepth, graph not
			// fully closed.
			res.Violation = VioNone
			break
		}
		limit *= 2
		if limit > maxDepth {
			limit = maxDepth
		}
	}
	res.TraceLen = len(res.Trace)
	res.Elapsed = time.Since(start)
	res.ElapsedMS = float64(res.Elapsed.Microseconds()) / 1000
	return res, nil
}

// minimize shrinks a counterexample to minimal length by re-exploring
// with ever-tighter depth bounds until no violation fits.
func minimize(cfg Config, trace []Action, vio Violation) ([]Action, Violation) {
	for len(trace) > 1 {
		e := newExplorer(cfg)
		if !e.expand(initState(cfg), len(trace)-1) {
			break
		}
		trace, vio = e.cex, e.vio
	}
	return trace, vio
}

// explorer is one bounded depth-first search.
type explorer struct {
	cfg Config

	// visited maps a hashed state to the largest remaining budget it
	// was expanded with; reaching it again with no more budget is a
	// cut, with more budget a (deeper-seeing) re-expansion.
	visited map[[keySize]byte]int

	path        []Action
	cex         []Action
	vio         Violation
	transitions int
	boundHit    bool
}

func newExplorer(cfg Config) *explorer {
	return &explorer{
		cfg:     cfg,
		visited: make(map[[keySize]byte]int, 1<<12),
	}
}

// expand visits s (already applied, not yet invariant-checked only for
// the root) and explores its successors within the remaining budget.
// Returns true when a violation was found; the trace is in e.cex/e.vio.
func (e *explorer) expand(s State, remaining int) bool {
	key := encode(&s)
	if r, ok := e.visited[key]; ok && r >= remaining {
		return false
	}
	e.visited[key] = remaining

	acts := enabled(make([]Action, 0, 16), &s, &e.cfg)
	if len(acts) == 0 {
		if !terminal(&s, &e.cfg) {
			e.vio = VioDeadlock
			e.cex = append([]Action(nil), e.path...)
			return true
		}
		return false
	}
	if remaining == 0 {
		e.boundHit = true
		return false
	}

	for _, a := range acts {
		ns := apply(s, a, &e.cfg)
		e.transitions++
		e.path = append(e.path, a)
		if v := invariants(&ns, &e.cfg); v != VioNone {
			e.vio = v
			e.cex = append([]Action(nil), e.path...)
			e.path = e.path[:len(e.path)-1]
			return true
		}
		found := e.expand(ns, remaining-1)
		e.path = e.path[:len(e.path)-1]
		if found {
			return true
		}
	}
	return false
}
