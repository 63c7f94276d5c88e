package resource

import (
	"testing"
	"testing/quick"

	"github.com/garnet-middleware/garnet/internal/wire"
)

// Additional property tests on the demand ledger.

// Property: after WithdrawAll(consumer), no ledger entry mentions the
// consumer, and effective settings equal a fresh manager fed only the
// remaining consumers' demands.
func TestWithdrawAllEquivalenceProperty(t *testing.T) {
	f := func(values []uint16, victimRaw uint8) bool {
		if len(values) == 0 {
			return true
		}
		consumers := []string{"a", "b", "c"}
		victim := consumers[int(victimRaw)%len(consumers)]

		full := NewWithOptions(Options{Policy: PolicyMostDemanding})
		rest := NewWithOptions(Options{Policy: PolicyMostDemanding})
		for i, v := range values {
			d := Demand{
				Consumer: consumers[i%len(consumers)],
				Target:   wire.MustStreamID(wire.SensorID(i%4), 0),
				Op:       wire.OpSetRate,
				Value:    uint32(v) + 1,
			}
			if _, err := full.Submit(d); err != nil {
				return false
			}
			if d.Consumer != victim {
				if _, err := rest.Submit(d); err != nil {
					return false
				}
			}
		}
		full.WithdrawAll(victim)
		for sensor := 0; sensor < 4; sensor++ {
			target := wire.MustStreamID(wire.SensorID(sensor), 0)
			gotEff, gotOK := full.Effective(target, ClassRate)
			wantEff, wantOK := rest.Effective(target, ClassRate)
			if gotOK != wantOK {
				return false
			}
			if gotOK && gotEff != wantEff {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: submissions never return an Action that violates the
// registered constraints, for any demand sequence.
func TestActionsRespectConstraintsProperty(t *testing.T) {
	cons := Constraints{MinRateMilliHz: 50, MaxRateMilliHz: 2000, MaxPayloadBytes: 512}
	f := func(ops []bool, values []uint16) bool {
		m := NewWithOptions(Options{Policy: PolicyMostDemanding})
		m.SetDefaultConstraints(cons)
		n := len(ops)
		if len(values) < n {
			n = len(values)
		}
		for i := 0; i < n; i++ {
			d := Demand{
				Consumer: "c" + string(rune('a'+i%7)),
				Target:   wire.MustStreamID(1, 0),
				Value:    uint32(values[i]) + 1,
			}
			if ops[i] {
				d.Op = wire.OpSetRate
			} else {
				d.Op = wire.OpSetPayloadLimit
				if d.Value > wire.MaxPayload {
					d.Value = wire.MaxPayload
				}
			}
			dec, err := m.Submit(d)
			if err != nil {
				return false
			}
			if dec.Action == nil {
				continue
			}
			switch dec.Action.Op {
			case wire.OpSetRate:
				if dec.Action.Value < cons.MinRateMilliHz || dec.Action.Value > cons.MaxRateMilliHz {
					return false
				}
			case wire.OpSetPayloadLimit:
				if dec.Action.Value > cons.MaxPayloadBytes {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the ledger size equals the number of distinct (target, class)
// pairs with at least one standing demand.
func TestLedgerSizeProperty(t *testing.T) {
	f := func(targets []uint8) bool {
		m := NewWithOptions(Options{Policy: PolicyMostDemanding})
		distinct := map[wire.StreamID]bool{}
		for i, raw := range targets {
			target := wire.MustStreamID(wire.SensorID(raw%8), 0)
			distinct[target] = true
			if _, err := m.Submit(Demand{
				Consumer: "c" + string(rune('a'+i%3)),
				Target:   target,
				Op:       wire.OpSetRate,
				Value:    100,
			}); err != nil {
				return false
			}
		}
		return m.Stats().Ledger == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
