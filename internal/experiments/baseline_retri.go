package experiments

import (
	"math"

	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// The RETRI baseline (E4) is the one the paper compares against in §7:
// Elson & Estrin's Random, Ephemeral TRansaction Identifiers (RETRI,
// ICDCS-21). RETRI replaces large pre-defined sensor/stream identifier
// header fields with a small random identifier drawn fresh per
// transaction, so header cost scales “with the increasing transaction
// density and not the sheer size of the network”.
//
// The functions below quantify both sides of the paper's argument:
//
//   - the bytes-on-air saving RETRI achieves over Garnet's fixed 32-bit
//     StreamID + 16-bit sequence header, and
//   - the identifier-collision probability that makes ephemeral ids
//     unsuitable for Garnet, which “depends on unique consistent stream
//     IDs” — a collision splices two sensors' messages into one stream.

// retriHeaderBytes returns the RETRI frame overhead for an id of idBits
// bits: one version/flags byte, the identifier, a 16-bit payload size and
// the 16-bit checksum (kept identical to Garnet's so the comparison isolates
// the identifier cost).
func retriHeaderBytes(idBits int) int {
	return 1 + (idBits+7)/8 + 2 + wire.ChecksumSize
}

// garnetHeaderBytes is Garnet's per-message overhead: the 9-byte Figure 2
// header plus the checksum.
func garnetHeaderBytes() int { return wire.HeaderSize + wire.ChecksumSize }

// analyticCollisionProb returns the birthday-bound probability that at
// least two of `concurrent` simultaneously active transactions share an
// idBits-bit random identifier: 1 - exp(-n(n-1) / 2^(b+1)).
func analyticCollisionProb(idBits, concurrent int) float64 {
	n := float64(concurrent)
	space := math.Pow(2, float64(idBits))
	return 1 - math.Exp(-n*(n-1)/(2*space))
}

// simulateCollisionRate draws `rounds` independent sets of `concurrent`
// random idBits-bit identifiers and returns the fraction of rounds in
// which at least one collision occurred — the empirical counterpart of
// analyticCollisionProb.
func simulateCollisionRate(seed uint64, idBits, concurrent, rounds int) float64 {
	rng := sim.NewRand(sim.SubSeed(seed, "retri.collisions"))
	space := uint64(1) << uint(idBits)
	collided := 0
	seen := make(map[uint64]struct{}, concurrent)
	for r := 0; r < rounds; r++ {
		clear(seen)
		hit := false
		for i := 0; i < concurrent; i++ {
			id := rng.Uint64N(space)
			if _, dup := seen[id]; dup {
				hit = true
				break
			}
			seen[id] = struct{}{}
		}
		if hit {
			collided++
		}
	}
	return float64(collided) / float64(rounds)
}

// simulateMisattribution measures the stream-corruption consequence of
// ephemeral ids for Garnet-style stream reconstruction: `concurrent`
// sensors each transmit msgsPerSensor messages under one ephemeral id per
// sensor; any two sensors sharing an id have their streams spliced
// together. It returns the fraction of messages attributed to a stream
// that another sensor also claims.
func simulateMisattribution(seed uint64, idBits, concurrent, msgsPerSensor, rounds int) float64 {
	rng := sim.NewRand(sim.SubSeed(seed, "retri.misattribution"))
	space := uint64(1) << uint(idBits)
	var corrupted, total int64
	owners := make(map[uint64]int, concurrent)
	for r := 0; r < rounds; r++ {
		clear(owners)
		for s := 0; s < concurrent; s++ {
			owners[rng.Uint64N(space)]++
		}
		for _, n := range owners {
			if n > 1 {
				corrupted += int64(n) * int64(msgsPerSensor)
			}
		}
		total += int64(concurrent) * int64(msgsPerSensor)
	}
	return float64(corrupted) / float64(total)
}

// headerSavingPercent returns RETRI's relative header saving over Garnet
// for a given id width and payload size, in percent of total frame bytes.
func headerSavingPercent(idBits, payloadBytes int) float64 {
	g := float64(garnetHeaderBytes() + payloadBytes)
	r := float64(retriHeaderBytes(idBits) + payloadBytes)
	return (g - r) / g * 100
}
