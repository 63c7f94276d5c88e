// Package resource implements the Resource Manager of §4.2: the admission
// controller on the return actuation path. Consumers are mutually unaware
// and “may lead to conflicting interaction with the sensor field” (§2), so
// every stream-update request is first submitted here: the manager keeps a
// standing-demand ledger per (stream, demand class), merges competing
// demands under a pluggable mediation policy, clamps the result to the
// codified sensor constraints (the §8 constraint language), and reports
// whether the sensor's effective configuration actually changed.
//
// The ledger doubles as the paper's “approximate overview of the sensors'
// configuration” (§6): it records what the fixed network believes each
// sensor has been told to do.
//
// # Locking
//
// One mutex guards the demand ledger, the per-sensor constraint table, the
// consumer-ownership index and the counters: the return path carries
// occasional stream-update requests, not the streams, and a 16-way
// partition of this state could not be told from one lock in paired runs
// on the hardware we have (CHANGES.md, PR 24). The mediation policy and
// the deployment-wide default constraints are atomic values outside the
// lock, so the Super Coordinator's policy flips never stall in-flight
// submissions, and the approved-no-change fast path allocates nothing.
package resource

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/garnet-middleware/garnet/internal/wire"
)

// Class groups the operations that compete for the same sensor setting.
type Class int

const (
	// ClassRate competes over a stream's sampling rate (OpSetRate).
	ClassRate Class = iota + 1
	// ClassEnable competes over whether a stream runs (OpEnable/OpDisable).
	ClassEnable
	// ClassPayload competes over the stream's payload limit
	// (OpSetPayloadLimit).
	ClassPayload
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassRate:
		return "rate"
	case ClassEnable:
		return "enable"
	case ClassPayload:
		return "payload"
	default:
		return "class(?)"
	}
}

// classOf maps a wire operation to its demand class; ok is false for
// operations that need no mediation (ping, device params).
func classOf(op wire.Op) (Class, bool) {
	switch op {
	case wire.OpSetRate:
		return ClassRate, true
	case wire.OpEnableStream, wire.OpDisableStream:
		return ClassEnable, true
	case wire.OpSetPayloadLimit:
		return ClassPayload, true
	default:
		return 0, false
	}
}

// Demand is one consumer's standing request about one stream setting.
type Demand struct {
	Consumer string
	Target   wire.StreamID
	Op       wire.Op // OpSetRate, OpEnableStream, OpDisableStream, OpSetPayloadLimit
	Value    uint32  // rate in mHz, or payload limit in bytes; unused for enable/disable
	Priority int     // larger wins under PolicyPriority
}

// Policy selects how competing demands merge.
type Policy int

const (
	// PolicyMostDemanding takes the maximum rate / enables if anyone wants
	// the stream / largest payload limit: no consumer starves.
	PolicyMostDemanding Policy = iota + 1
	// PolicyLeastDemanding takes the minimum rate / disables unless
	// everyone wants the stream / smallest payload: conserves energy.
	PolicyLeastDemanding
	// PolicyPriority lets the highest-priority demand win outright
	// (ties broken towards the most demanding).
	PolicyPriority
	// PolicyFirstComeDeny approves the first demand and denies any
	// conflicting later demand from another consumer.
	PolicyFirstComeDeny
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyMostDemanding:
		return "most-demanding"
	case PolicyLeastDemanding:
		return "least-demanding"
	case PolicyPriority:
		return "priority"
	case PolicyFirstComeDeny:
		return "first-come-deny"
	default:
		return "policy(?)"
	}
}

// Verdict is the admission-control outcome for one submission.
type Verdict int

const (
	// VerdictApproved means the demand was accepted as submitted.
	VerdictApproved Verdict = iota + 1
	// VerdictModified means the demand was accepted but the effective
	// setting differs (mediation with other consumers, or constraint
	// clamping).
	VerdictModified
	// VerdictDenied means the demand was rejected and not recorded.
	VerdictDenied
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictApproved:
		return "approved"
	case VerdictModified:
		return "modified"
	case VerdictDenied:
		return "denied"
	default:
		return "verdict(?)"
	}
}

// Action is the concrete operation the Actuation Service should now send
// to the sensor, present when a decision changed the effective setting.
type Action struct {
	Target wire.StreamID
	Op     wire.Op
	Value  uint32
}

// Decision is the result of Submit or Withdraw.
type Decision struct {
	Verdict Verdict
	Reason  string
	// Effective is the post-decision effective setting for the class
	// (rate in mHz, payload bytes, or 0/1 for enable).
	Effective uint32
	// Changed reports whether the effective setting moved, i.e. whether an
	// actuation is required; Action describes it.
	Changed bool
	Action  *Action
}

// Manager errors.
var (
	ErrBadDemand = errors.New("resource: invalid demand")
	ErrConflict  = errors.New("resource: conflicting demand denied")
	ErrForbidden = errors.New("resource: constraint forbids demand")
)

type ledgerKey struct {
	target wire.StreamID
	class  Class
}

type entry struct {
	demands map[string]Demand // by consumer
	// effective is the currently actuated setting; valid is false until
	// the first demand arrives.
	effective uint32
	valid     bool
	order     []string // consumer arrival order, for PolicyFirstComeDeny
}

// Stats is a snapshot of manager counters.
type Stats struct {
	Submitted   int64
	Approved    int64
	Modified    int64
	Denied      int64
	Withdrawals int64
	Ledger      int // live (stream, class) entries
}

// Options configures a Manager. The zero value uses PolicyMostDemanding.
type Options struct {
	// Policy is the initial mediation policy; 0 selects
	// PolicyMostDemanding.
	Policy Policy
}

// Manager is the Resource Manager.
type Manager struct {
	// policy is the current mediation Policy, read atomically on every
	// decision so SetPolicy never blocks (or is blocked by) submissions.
	policy atomic.Int32
	// defaults holds the deployment-wide default constraints; nil until
	// SetDefaultConstraints is called.
	defaults atomic.Pointer[Constraints]

	// mu guards everything below.
	mu     sync.Mutex
	ledger map[ledgerKey]*entry
	// constraints holds the codified limits of individual sensors.
	constraints map[wire.SensorID]Constraints
	// owners indexes the ledger keys each consumer holds a standing
	// demand on, so WithdrawAll and Apply replace a consumer's demand set
	// without scanning the ledger. This is the single source of truth for
	// demand ownership — the deployment core keeps no duplicate map.
	owners map[string]map[ledgerKey]struct{}

	submitted int64
	approved  int64
	modified  int64
	denied    int64
	withdrawn int64
}

// NewWithOptions creates a Manager from opts; a zero Policy selects
// PolicyMostDemanding.
func NewWithOptions(opts Options) *Manager {
	if opts.Policy == 0 {
		opts.Policy = PolicyMostDemanding
	}
	m := &Manager{
		ledger:      make(map[ledgerKey]*entry),
		constraints: make(map[wire.SensorID]Constraints),
		owners:      make(map[string]map[ledgerKey]struct{}),
	}
	m.policy.Store(int32(opts.Policy))
	return m
}

// loadPolicy returns the current mediation policy.
func (m *Manager) loadPolicy() Policy {
	return Policy(m.policy.Load())
}

// SetPolicy switches the mediation policy at runtime — the hook the Super
// Coordinator uses to “invoke policy changes in the strategy used by the
// Resource Manager” (§4.2). The policy is an atomic value: a flip never
// stalls concurrent submissions, and each decision uses the policy it
// loaded on entry. Existing effective settings are not recomputed until
// the next submission touches them.
func (m *Manager) SetPolicy(p Policy) {
	m.policy.Store(int32(p))
}

// SetDefaultConstraints applies c to every sensor without specific
// constraints.
func (m *Manager) SetDefaultConstraints(c Constraints) {
	m.defaults.Store(&c)
}

// SetConstraints codifies the limits of one sensor.
func (m *Manager) SetConstraints(sensor wire.SensorID, c Constraints) {
	m.mu.Lock()
	m.constraints[sensor] = c
	m.mu.Unlock()
}

// constraintsFor resolves the constraints in force for a sensor: its own
// codified limits, else the deployment defaults. Caller holds m.mu.
func (m *Manager) constraintsFor(sensor wire.SensorID) (Constraints, bool) {
	if c, ok := m.constraints[sensor]; ok {
		return c, true
	}
	if p := m.defaults.Load(); p != nil {
		return *p, true
	}
	return Constraints{}, false
}

// validate screens a demand before it reaches the ledger; class is the
// demand's mediation class from classOf.
func validate(d Demand, class Class) error {
	if d.Consumer == "" {
		return fmt.Errorf("%w: empty consumer", ErrBadDemand)
	}
	if class == ClassRate && d.Value == 0 {
		return fmt.Errorf("%w: zero rate", ErrBadDemand)
	}
	if class == ClassPayload && (d.Value == 0 || d.Value > wire.MaxPayload) {
		return fmt.Errorf("%w: payload limit %d", ErrBadDemand, d.Value)
	}
	return nil
}

// Submit runs admission control for one demand. Approved and modified
// demands join the standing ledger; the decision reports the effective
// setting and whether actuation is needed. The fast path — an approved
// resubmission that leaves the effective setting unchanged — allocates
// nothing.
func (m *Manager) Submit(d Demand) (Decision, error) {
	class, ok := classOf(d.Op)
	if !ok {
		return Decision{}, fmt.Errorf("%w: op %v needs no mediation", ErrBadDemand, d.Op)
	}
	if err := validate(d, class); err != nil {
		return Decision{}, err
	}
	policy := m.loadPolicy()
	m.mu.Lock()
	dec := m.submitLocked(d, class, policy)
	m.mu.Unlock()
	return dec, nil
}

// submitLocked runs the admission/mediation core for a pre-validated
// demand. Caller holds m.mu.
func (m *Manager) submitLocked(d Demand, class Class, policy Policy) Decision {
	m.submitted++

	// Hard constraint screening that cannot be satisfied by clamping.
	cons, hasCons := m.constraintsFor(d.Target.Sensor())
	if hasCons {
		if class == ClassEnable && d.Op == wire.OpEnableStream && cons.MaxActiveStreams > 0 {
			if active := m.activeStreamsLocked(d.Target.Sensor(), d.Target); active >= cons.MaxActiveStreams {
				m.denied++
				return Decision{
					Verdict: VerdictDenied,
					Reason:  fmt.Sprintf("sensor constraint streams<=%d", cons.MaxActiveStreams),
				}
			}
		}
	}

	key := ledgerKey{target: d.Target, class: class}
	e, exists := m.ledger[key]
	if !exists {
		e = &entry{demands: make(map[string]Demand)}
		m.ledger[key] = e
	}

	if policy == PolicyFirstComeDeny {
		for owner, other := range e.demands {
			if owner != d.Consumer && conflicts(class, other, d) {
				m.denied++
				return Decision{
					Verdict: VerdictDenied,
					Reason: fmt.Sprintf("conflicts with standing demand of %q (%s)",
						owner, describeDemand(class, other)),
				}
			}
		}
	}

	if _, had := e.demands[d.Consumer]; !had {
		e.order = append(e.order, d.Consumer)
		set := m.owners[d.Consumer]
		if set == nil {
			set = make(map[ledgerKey]struct{})
			m.owners[d.Consumer] = set
		}
		set[key] = struct{}{}
	}
	e.demands[d.Consumer] = d

	return m.decide(key, e, &d, cons, hasCons, policy)
}

// activeStreamsLocked counts streams of a sensor whose effective enable
// setting is on, excluding `except`: one keyed lookup per stream index the
// sensor can have, however many other sensors' demands the ledger holds.
// Caller holds m.mu.
func (m *Manager) activeStreamsLocked(sensor wire.SensorID, except wire.StreamID) int {
	n := 0
	for i := 0; i <= wire.MaxStreamIndex; i++ {
		id := wire.MustStreamID(sensor, wire.StreamIndex(i))
		if e, ok := m.ledger[ledgerKey{target: id, class: ClassEnable}]; ok &&
			id != except && e.valid && e.effective == 1 {
			n++
		}
	}
	return n
}

// Withdraw removes one consumer's standing demand on a (target, class) and
// recomputes the effective setting. It reports the new decision (Changed
// set if actuation is needed to relax the sensor) and whether a demand was
// present. When the last demand goes away the entry is removed and no
// relaxation is actuated — the sensor keeps its last setting, matching the
// paper's minimal-sensor model (no implicit defaults on the device).
func (m *Manager) Withdraw(consumer string, target wire.StreamID, class Class) (Decision, bool) {
	policy := m.loadPolicy()
	m.mu.Lock()
	dec, ok := m.withdrawLocked(consumer, ledgerKey{target: target, class: class}, policy)
	m.mu.Unlock()
	return dec, ok
}

// withdrawLocked is the locked core of Withdraw. Caller holds m.mu.
func (m *Manager) withdrawLocked(consumer string, key ledgerKey, policy Policy) (Decision, bool) {
	e, ok := m.ledger[key]
	if !ok {
		return Decision{}, false
	}
	if _, had := e.demands[consumer]; !had {
		return Decision{}, false
	}
	delete(e.demands, consumer)
	for i, name := range e.order {
		if name == consumer {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	set := m.owners[consumer]
	delete(set, key)
	if len(set) == 0 {
		delete(m.owners, consumer)
	}
	m.withdrawn++
	if len(e.demands) == 0 {
		delete(m.ledger, key)
		return Decision{Verdict: VerdictApproved, Effective: e.effective}, true
	}
	cons, hasCons := m.constraintsFor(key.target.Sensor())
	return m.decide(key, e, nil, cons, hasCons, policy), true
}

// withdrawOwnedLocked withdraws every standing demand of consumer whose
// key keep (nil: none) does not hold, in (target, class) order, and
// returns the actions that relax the affected streams. Caller holds m.mu.
func (m *Manager) withdrawOwnedLocked(consumer string, keep map[ledgerKey]Demand, policy Policy) []Action {
	var keys []ledgerKey
	for key := range m.owners[consumer] {
		if _, still := keep[key]; !still {
			keys = append(keys, key)
		}
	}
	sortLedgerKeys(keys)
	var actions []Action
	for _, key := range keys {
		if dec, ok := m.withdrawLocked(consumer, key, policy); ok && dec.Changed && dec.Action != nil {
			actions = append(actions, *dec.Action)
		}
	}
	return actions
}

func sortLedgerKeys(keys []ledgerKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].target != keys[j].target {
			return keys[i].target < keys[j].target
		}
		return keys[i].class < keys[j].class
	})
}

// WithdrawAll removes every standing demand of a consumer (a consumer
// leaving the system) and returns the actions needed to re-actuate the
// affected streams, in (target, class) order.
func (m *Manager) WithdrawAll(consumer string) []Action {
	policy := m.loadPolicy()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.withdrawOwnedLocked(consumer, nil, policy)
}

// Apply replaces every standing demand held under owner with the given
// set and returns the actions needed to re-actuate the streams whose
// effective settings changed — the Super Coordinator's demand sink.
// Demands in the set are submitted (tagged with owner as their consumer);
// standing demands of owner absent from the set are withdrawn first. The
// whole replacement happens under one lock acquisition, so no other
// consumer's submission observes a half-applied set. Invalid demands are
// skipped, matching the fire-and-forget contract of the coordinator path.
func (m *Manager) Apply(owner string, demands []Demand) []Action {
	if owner == "" {
		return nil
	}
	policy := m.loadPolicy()

	// Dedupe on (target, class) — the last demand for a key wins. Demands
	// that fail validation still claim their key (so an owner's standing
	// demand is not withdrawn just because its replacement was malformed
	// — the fire-and-forget contract drops the bad value, not the stream)
	// but are never submitted.
	next := make(map[ledgerKey]Demand, len(demands))
	for _, d := range demands {
		class, ok := classOf(d.Op)
		if !ok {
			continue
		}
		d.Consumer = owner
		next[ledgerKey{target: d.Target, class: class}] = d
	}
	adds := make([]ledgerKey, 0, len(next))
	for key := range next {
		adds = append(adds, key)
	}
	sortLedgerKeys(adds)

	m.mu.Lock()
	defer m.mu.Unlock()
	actions := m.withdrawOwnedLocked(owner, next, policy)
	for _, key := range adds {
		d := next[key]
		if validate(d, key.class) != nil {
			continue
		}
		if dec := m.submitLocked(d, key.class, policy); dec.Changed && dec.Action != nil {
			actions = append(actions, *dec.Action)
		}
	}
	return actions
}

// decide merges the entry's demands under policy, clamps to constraints,
// updates the effective setting, and builds the Decision. submitted is
// the demand that triggered the decision (nil for withdrawals). Caller
// holds m.mu.
func (m *Manager) decide(key ledgerKey, e *entry, submitted *Demand, cons Constraints, hasCons bool, policy Policy) Decision {
	merged := merge(policy, key.class, e)
	clamped, clampReason := merged, ""
	if hasCons {
		clamped, clampReason = cons.clamp(key.class, merged)
	}

	changed := !e.valid || clamped != e.effective
	e.effective = clamped
	e.valid = true

	dec := Decision{Effective: clamped, Changed: changed}
	if changed {
		dec.Action = &Action{Target: key.target, Value: clamped}
		switch key.class {
		case ClassRate:
			dec.Action.Op = wire.OpSetRate
		case ClassEnable:
			if clamped != 0 {
				dec.Action.Op = wire.OpEnableStream
			} else {
				dec.Action.Op = wire.OpDisableStream
			}
			dec.Action.Value = 0
		case ClassPayload:
			dec.Action.Op = wire.OpSetPayloadLimit
		}
	}

	switch {
	case submitted == nil:
		dec.Verdict = VerdictApproved
	case demandSatisfied(key.class, *submitted, clamped):
		dec.Verdict = VerdictApproved
		m.approved++
	default:
		dec.Verdict = VerdictModified
		dec.Reason = fmt.Sprintf("mediated under %v policy", policy)
		if clampReason != "" {
			dec.Reason = clampReason
		}
		m.modified++
	}
	return dec
}

func demandSatisfied(class Class, d Demand, effective uint32) bool {
	switch class {
	case ClassEnable:
		want := uint32(0)
		if d.Op == wire.OpEnableStream {
			want = 1
		}
		return effective == want
	default:
		return effective == d.Value
	}
}

// merge folds the demands of one entry into a single value under policy
// (rate mHz / payload bytes / 0-1 for enable). It walks the arrival order
// directly — no scratch slices — so the decision path allocates nothing.
func merge(policy Policy, class Class, e *entry) uint32 {
	switch policy {
	case PolicyLeastDemanding:
		v := demandValue(class, e.demands[e.order[0]])
		for _, name := range e.order[1:] {
			if x := demandValue(class, e.demands[name]); x < v {
				v = x
			}
		}
		return v
	case PolicyPriority:
		first := e.demands[e.order[0]]
		best, bestPrio := demandValue(class, first), first.Priority
		for _, name := range e.order[1:] {
			d := e.demands[name]
			x := demandValue(class, d)
			if d.Priority > bestPrio || (d.Priority == bestPrio && x > best) {
				best, bestPrio = x, d.Priority
			}
		}
		return best
	case PolicyFirstComeDeny:
		// Conflicts were denied on entry; all demands agree (or are from
		// the same consumer, whose latest value stands).
		return demandValue(class, e.demands[e.order[len(e.order)-1]])
	default: // PolicyMostDemanding
		v := demandValue(class, e.demands[e.order[0]])
		for _, name := range e.order[1:] {
			if x := demandValue(class, e.demands[name]); x > v {
				v = x
			}
		}
		return v
	}
}

func demandValue(class Class, d Demand) uint32 {
	if class == ClassEnable {
		if d.Op == wire.OpEnableStream {
			return 1
		}
		return 0
	}
	return d.Value
}

func conflicts(class Class, a, b Demand) bool {
	return demandValue(class, a) != demandValue(class, b)
}

func describeDemand(class Class, d Demand) string {
	switch class {
	case ClassEnable:
		return d.Op.String()
	default:
		return fmt.Sprintf("%v=%d", d.Op, d.Value)
	}
}

// Effective returns the current effective setting for (target, class).
func (m *Manager) Effective(target wire.StreamID, class Class) (uint32, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.ledger[ledgerKey{target: target, class: class}]
	if !ok || !e.valid {
		return 0, false
	}
	return e.effective, true
}

// Stats returns a snapshot of manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Submitted:   m.submitted,
		Approved:    m.approved,
		Modified:    m.modified,
		Denied:      m.denied,
		Withdrawals: m.withdrawn,
		Ledger:      len(m.ledger),
	}
}
