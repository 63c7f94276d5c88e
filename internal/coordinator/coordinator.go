// Package coordinator implements the Super Coordinator of §4.2: “suitably
// sophisticated consumer processes may forward state-change details to the
// Super Coordinator, which eventually amasses a global view of these
// consumers. In response to (or in anticipation of) global consumer
// states, the Super Coordinator may invoke policy changes in the strategy
// used by the Resource Manager.”
//
// Trusted consumers register a state machine annotated with the resource
// demands each state implies. On every state report the coordinator
// replaces the consumer's standing demands; a predictive policy
// additionally learns empirical transition probabilities and dwell times
// and pre-arms the demands of the anticipated next state shortly before
// the transition is expected — “reducing the effect of latencies arising
// from message-handling” (§6), which experiment E8 quantifies.
package coordinator

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sim"
)

// DemandSink receives the demand changes the coordinator decides on. The
// deployment core implements it with resource.Manager.Apply, which
// replaces the set under one acquisition of the manager's lock, and
// actuates the changed decisions. A sink that also has a
// SetPolicy(resource.Policy) method receives the strategy changes
// Options.PolicySelector decides on (the core wires it to the Resource
// Manager); with any other sink the selector is never consulted.
type DemandSink interface {
	// Apply replaces owner's standing demands with demands.
	Apply(owner string, demands []resource.Demand)
}

// policySink is the optional half of a DemandSink that takes strategy
// changes.
type policySink interface {
	SetPolicy(resource.Policy)
}

// Mode selects reactive or predictive coordination.
type Mode int

const (
	// ModeReactive applies a state's demands when the state is reported.
	ModeReactive Mode = iota + 1
	// ModePredictive additionally pre-arms the predicted next state's
	// demands ahead of the expected transition.
	ModePredictive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeReactive:
		return "reactive"
	case ModePredictive:
		return "predictive"
	default:
		return "mode(?)"
	}
}

// Options configures a Coordinator.
type Options struct {
	Mode Mode
	// Horizon is how far before the predicted transition the next state's
	// demands are pre-armed. Default 2s.
	Horizon time.Duration
	// MinConfidence gates predictions: transitions observed with lower
	// empirical probability are not acted on. Default 0.6.
	MinConfidence float64
	// PolicySelector, when set, is consulted with the global state census
	// after every report; a changed non-zero result goes to the sink's
	// SetPolicy — the §4.2 hook by which the coordinator “may invoke
	// policy changes in the strategy used by the Resource Manager”.
	PolicySelector func(census map[string]int) resource.Policy
}

// minObservations is how many departures from a state must be seen
// before predictions from it are trusted.
const minObservations = 2

// Prediction is the coordinator's expectation for a consumer's next state.
type Prediction struct {
	Consumer   string
	Current    string
	Next       string
	Confidence float64       // empirical transition probability
	ExpectedIn time.Duration // expected remaining dwell from now
}

// Stats is a snapshot of coordinator counters.
type Stats struct {
	Reports        int64
	Applications   int64 // demand-set applications pushed to the sink
	Predictions    int64 // predictions acted on (pre-arms scheduled)
	PreArms        int64 // pre-arms that fired
	Hits           int64 // predicted state matched the next report
	Misses         int64 // predicted state did not match
	PolicyChanges  int64 // resource-manager strategy switches invoked
	RegisteredApps int
}

// Coordinator is the Super Coordinator.
type Coordinator struct {
	clock     sim.Clock
	sink      DemandSink
	setPolicy func(resource.Policy) // the sink's SetPolicy, or nil
	opts      Options

	mu         sync.Mutex
	consumers  map[string]*consumerTrack
	lastPolicy resource.Policy

	reports       metrics.Counter
	applies       metrics.Counter
	predictions   metrics.Counter
	prearms       metrics.Counter
	hits          metrics.Counter
	misses        metrics.Counter
	policyChanges metrics.Counter
}

type consumerTrack struct {
	demands map[string][]resource.Demand // state → demands
	state   string
	since   time.Time
	reports int64

	// Empirical model.
	transitions map[string]map[string]int // from → to → count
	dwellTotal  map[string]time.Duration  // from → summed dwell
	dwellCount  map[string]int

	// Predictive machinery.
	prearmTimer   sim.Timer
	predictedNext string
	prearmedState string // state whose demands are currently applied (may lead the report)
}

// Coordinator errors.
var (
	ErrUnknownConsumer = errors.New("coordinator: unknown consumer")
	ErrUnknownState    = errors.New("coordinator: state not in registered model")
	ErrAlreadyExists   = errors.New("coordinator: consumer already registered")
)

// New creates a Coordinator pushing demand changes into sink.
// New panics on a nil sink (programming error).
func New(clock sim.Clock, sink DemandSink, opts Options) *Coordinator {
	if sink == nil {
		panic("coordinator: nil sink")
	}
	if opts.Mode == 0 {
		opts.Mode = ModeReactive
	}
	if opts.Horizon <= 0 {
		opts.Horizon = 2 * time.Second
	}
	if opts.MinConfidence <= 0 {
		opts.MinConfidence = 0.6
	}
	c := &Coordinator{
		clock:     clock,
		sink:      sink,
		opts:      opts,
		consumers: make(map[string]*consumerTrack),
	}
	if ps, ok := sink.(policySink); ok {
		c.setPolicy = ps.SetPolicy
	}
	return c
}

// Register teaches the coordinator a trusted consumer's state machine:
// for each state, the standing resource demands that state implies. States
// absent from the map imply no demands.
func (c *Coordinator) Register(name string, demandsByState map[string][]resource.Demand) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrUnknownConsumer)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.consumers[name]; dup {
		return fmt.Errorf("%w: %q", ErrAlreadyExists, name)
	}
	demands := make(map[string][]resource.Demand, len(demandsByState))
	for state, ds := range demandsByState {
		cp := make([]resource.Demand, len(ds))
		copy(cp, ds)
		demands[state] = cp
	}
	c.consumers[name] = &consumerTrack{
		demands:     demands,
		transitions: make(map[string]map[string]int),
		dwellTotal:  make(map[string]time.Duration),
		dwellCount:  make(map[string]int),
	}
	return nil
}

// ReportState records a consumer's state change, updates the global view
// and the empirical model, applies the new state's demands (unless a
// correct prediction already pre-armed them), and — in predictive mode —
// schedules pre-arming for the anticipated next state.
func (c *Coordinator) ReportState(name, state string) error {
	c.mu.Lock()
	tr, ok := c.consumers[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownConsumer, name)
	}
	if _, known := tr.demands[state]; !known {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q for %q", ErrUnknownState, state, name)
	}
	now := c.clock.Now()
	c.reports.Inc()
	tr.reports++

	// Update the empirical model from the previous state.
	if tr.state != "" && tr.state != state {
		m := tr.transitions[tr.state]
		if m == nil {
			m = make(map[string]int)
			tr.transitions[tr.state] = m
		}
		m[state]++
		tr.dwellTotal[tr.state] += now.Sub(tr.since)
		tr.dwellCount[tr.state]++
	}

	// Score an outstanding prediction.
	if tr.predictedNext != "" && tr.state != state {
		if tr.predictedNext == state {
			c.hits.Inc()
		} else {
			c.misses.Inc()
		}
		tr.predictedNext = ""
	}
	if tr.prearmTimer != nil {
		tr.prearmTimer.Stop()
		tr.prearmTimer = nil
	}

	prev := tr.state
	tr.state = state
	tr.since = now

	// Apply the state's demands unless a pre-arm already did.
	needApply := tr.prearmedState != state
	tr.prearmedState = state
	demands := tr.demands[state]

	var prediction *Prediction
	if c.opts.Mode == ModePredictive && prev != state {
		if p, ok := c.predictLocked(name, tr); ok {
			prediction = &p
		}
	}
	// Census-driven strategy changes for the Resource Manager (§4.2).
	var newPolicy resource.Policy
	if c.opts.PolicySelector != nil && c.setPolicy != nil {
		census := make(map[string]int)
		for _, t := range c.consumers {
			if t.state != "" {
				census[t.state]++
			}
		}
		if p := c.opts.PolicySelector(census); p != 0 && p != c.lastPolicy {
			c.lastPolicy = p
			newPolicy = p
		}
	}
	c.mu.Unlock()

	if needApply {
		c.applies.Inc()
		c.sink.Apply(ownerName(name), demands)
	}
	if newPolicy != 0 {
		c.policyChanges.Inc()
		c.setPolicy(newPolicy)
	}
	if prediction != nil {
		c.schedulePrearm(name, *prediction)
	}
	return nil
}

// ownerName is the ledger identity under which the coordinator manages a
// consumer's demands.
func ownerName(consumer string) string { return "sc/" + consumer }

// predictLocked builds a prediction for the consumer's next state from the
// empirical model, if it clears the confidence and observation gates.
func (c *Coordinator) predictLocked(_ string, tr *consumerTrack) (Prediction, bool) {
	trans := tr.transitions[tr.state]
	total := 0
	for _, n := range trans {
		total += n
	}
	if total < minObservations {
		return Prediction{}, false
	}
	// Most frequent successor; ties resolved lexicographically for
	// determinism.
	succs := make([]string, 0, len(trans))
	for s := range trans {
		succs = append(succs, s)
	}
	sort.Strings(succs)
	best, bestN := "", -1
	for _, s := range succs {
		if trans[s] > bestN {
			best, bestN = s, trans[s]
		}
	}
	conf := float64(bestN) / float64(total)
	if conf < c.opts.MinConfidence {
		return Prediction{}, false
	}
	meanDwell := tr.dwellTotal[tr.state] / time.Duration(tr.dwellCount[tr.state])
	return Prediction{
		Current:    tr.state,
		Next:       best,
		Confidence: conf,
		ExpectedIn: meanDwell,
	}, true
}

// schedulePrearm arms a timer to apply the predicted next state's demands
// Horizon before the expected transition.
func (c *Coordinator) schedulePrearm(name string, p Prediction) {
	delay := p.ExpectedIn - c.opts.Horizon
	if delay < 0 {
		delay = 0
	}
	c.mu.Lock()
	tr, ok := c.consumers[name]
	if !ok {
		c.mu.Unlock()
		return
	}
	tr.predictedNext = p.Next
	c.predictions.Inc()
	tr.prearmTimer = c.clock.AfterFunc(delay, func() {
		c.mu.Lock()
		tr, ok := c.consumers[name]
		if !ok || tr.predictedNext != p.Next || tr.state != p.Current {
			c.mu.Unlock()
			return
		}
		tr.prearmedState = p.Next
		demands := tr.demands[p.Next]
		c.mu.Unlock()
		c.prearms.Inc()
		c.applies.Inc()
		c.sink.Apply(ownerName(name), demands)
	})
	c.mu.Unlock()
}

// PredictNext exposes the current prediction for a consumer (for
// diagnostics and the experiment harness).
func (c *Coordinator) PredictNext(name string) (Prediction, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, ok := c.consumers[name]
	if !ok || tr.state == "" {
		return Prediction{}, false
	}
	p, ok := c.predictLocked(name, tr)
	if !ok {
		return Prediction{}, false
	}
	p.Consumer = name
	// Remaining dwell from now.
	elapsed := c.clock.Now().Sub(tr.since)
	p.ExpectedIn -= elapsed
	if p.ExpectedIn < 0 {
		p.ExpectedIn = 0
	}
	return p, true
}

// Deregister removes a consumer, cancels any pre-arm, and clears its
// demands through the sink.
func (c *Coordinator) Deregister(name string) bool {
	c.mu.Lock()
	tr, ok := c.consumers[name]
	if ok {
		if tr.prearmTimer != nil {
			tr.prearmTimer.Stop()
		}
		delete(c.consumers, name)
	}
	c.mu.Unlock()
	if ok {
		c.sink.Apply(ownerName(name), nil)
	}
	return ok
}

// Stats returns a snapshot of coordinator counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	registered := len(c.consumers)
	c.mu.Unlock()
	return Stats{
		Reports:        c.reports.Value(),
		Applications:   c.applies.Value(),
		Predictions:    c.predictions.Value(),
		PreArms:        c.prearms.Value(),
		Hits:           c.hits.Value(),
		Misses:         c.misses.Value(),
		PolicyChanges:  c.policyChanges.Value(),
		RegisteredApps: registered,
	}
}
