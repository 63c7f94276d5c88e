package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestAuditNamesTheUnbalancedLayer: a stopped deployment whose every
// audited layer saw traffic — receptions, one acknowledged, one expired
// and one cancelled actuation — audits clean, and bumping any single
// counter of an identity makes Audit name the layer that keeps it.
func TestAuditNamesTheUnbalancedLayer(t *testing.T) {
	d, clock := buildRig(t, radio.Params{})
	addSensor(t, d, 1, sensor.CapReceive, time.Second) // hears the downlink and acks
	addSensor(t, d, 2, 0, time.Second)                 // deaf: its request expires
	d.Start()
	clock.Advance(2 * time.Second)
	for i, id := range []wire.SensorID{1, 2, 2} {
		if i == 2 {
			clock.Advance(time.Minute) // the third request is outstanding at Stop
		}
		if _, err := d.SubmitDemand(resource.Demand{
			Consumer: "app", Target: wire.MustStreamID(id, 0), Op: wire.OpSetRate, Value: 4000 + uint32(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.Stop()

	balanced := d.Stats()
	if a := balanced.Actuation; a.Acked != 1 || a.Expired != 1 || a.Cancelled != 1 || balanced.Receiver.Decoded == 0 {
		t.Fatalf("rig: actuation %+v, receivers %+v", a, balanced.Receiver)
	}
	if err := balanced.Audit(); err != nil {
		t.Fatalf("balanced snapshot: %v", err)
	}

	for _, counter := range []string{
		"Filter.Received", "Filter.Delivered", "Filter.Duplicates", "Filter.Stale",
		"Store.RetainedMessages", "Store.ArchivedMessages", "Store.ArchiveRecovered",
		"Store.Appended", "Store.Duplicates", "Store.DroppedBehind", "Store.EvictedCount",
		"Store.EvictedBytes", "Store.EvictedAge", "Store.EvictedCold", "Store.EvictedArchive",
		"Store.ArchiveFailed", "Store.Forgotten",
		"Resource.Submitted", "Resource.Approved", "Resource.Modified", "Resource.Denied",
		"Actuation.Issued", "Actuation.Acked", "Actuation.Expired", "Actuation.Cancelled",
		"Actuation.Outstanding",
		"Replicator.Requests", "Replicator.Targeted", "Replicator.Flooded", "Replicator.Broadcasts",
		"Receiver.FramesHeard", "Receiver.Corrupt", "Receiver.Decoded",
		"Transmitter.Broadcasts",
	} {
		t.Run(counter, func(t *testing.T) {
			s := balanced
			layer, field, _ := strings.Cut(counter, ".")
			v := reflect.ValueOf(&s).Elem().FieldByName(layer).FieldByName(field)
			v.SetInt(v.Int() + 1)
			if err := s.Audit(); err == nil || !strings.Contains(err.Error(), strings.ToLower(layer)) {
				t.Fatalf("Audit = %v, want an error naming the %s layer", err, strings.ToLower(layer))
			}
		})
	}
}
