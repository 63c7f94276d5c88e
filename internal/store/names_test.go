package store

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// same reports whether two strings share a backing pointer.
func same(a, b string) bool {
	return unsafe.StringData(a) == unsafe.StringData(b)
}

// newNames returns the empty table a store starts with.
func newNames() *names {
	n := new(names)
	n.init()
	return n
}

func TestCanonicalPointer(t *testing.T) {
	n := newNames()
	a := n.lookup(n.index("rx-" + fmt.Sprint(1))) // defeat constant folding
	b := n.lookup(n.index("rx-" + fmt.Sprint(1)))
	if a != b || !same(a, b) {
		t.Fatalf("two index calls named distinct backings")
	}
	c := n.bytes([]byte("rx-1"))
	if !same(a, c) {
		t.Fatalf("bytes did not return the table's string")
	}
	if n.bytes(nil) != "" {
		t.Fatalf("empty forms must pass through")
	}
	if i := n.index("rx-" + fmt.Sprint(1)); i == 0 || i != n.index(a) || !same(n.lookup(i), a) {
		t.Fatalf("index/lookup do not name the table's string: index %d", i)
	}
	if n.index("") != 0 || n.lookup(0) != "" {
		t.Fatalf("the empty string must be index 0")
	}
}

func TestBytesZeroAllocWhenInterned(t *testing.T) {
	s := New(Options{})
	b := []byte("rx-warm")
	s.names.bytes(b)
	allocs := testing.AllocsPerRun(100, func() {
		if s.names.bytes(b) == "" {
			t.Fatal("lost interned string")
		}
	})
	if allocs != 0 {
		t.Fatalf("interned bytes lookup allocates %.1f/op, want 0", allocs)
	}
}

// TestConcurrentConverge hammers the copy-on-write publish path from
// many goroutines (run under -race) and checks every caller of the same
// spelling converges on one string.
func TestConcurrentConverge(t *testing.T) {
	n := newNames()
	const goroutines, count = 8, 32
	out := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = make([]string, count)
			for i := 0; i < count; i++ {
				if name := fmt.Sprintf("conv-%d", i); g%2 == 0 {
					out[g][i] = n.bytes([]byte(name))
				} else {
					out[g][i] = n.lookup(n.index(name))
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < count; i++ {
		for g := 1; g < goroutines; g++ {
			if !same(out[0][i], out[g][i]) {
				t.Fatalf("goroutines disagree on conv-%d", i)
			}
		}
	}
}

// TestReceiverNamesArePerStore: a store's receiver-name table holds the
// names its own live appends carried and the names it decoded — here
// while recovering an archive written under a receiver no other store
// saw — and nothing from any other store.
func TestReceiverNamesArePerStore(t *testing.T) {
	far := wire.MustStreamID(5, 0)
	mem := archive.NewMem()
	opts := Options{MaxMessages: 16, BlockSize: 8, ColdBudget: 1, Archive: mem}
	w := New(opts)
	for seq := 0; seq < 100; seq++ {
		d := del(far, wire.Seq(seq), epoch.Add(time.Duration(seq)*time.Second), []byte{byte(seq)})
		d.Receiver = "rx-far"
		w.Append(d)
	}
	// A cut inside the first archived block: recovery decodes that block
	// to count what survives it.
	w.EvictTo(far, extBase+4)

	held := func(s *Store) []string { return slices.Sorted(maps.Keys(s.names.cur.Load().idx)) }

	a := New(Options{})
	da := del(wire.MustStreamID(1, 0), 0, epoch, []byte("a"))
	da.Receiver = "rx-a"
	a.Append(da)

	b := New(opts)
	if got := held(b); !slices.Equal(got, []string{"rx-far"}) {
		t.Fatalf("recovered store holds %q, want the receiver its archive names", got)
	}
	db := del(wire.MustStreamID(2, 0), 0, epoch, []byte("b"))
	db.Receiver = "rx-b"
	b.Append(db)

	if got := held(a); !slices.Equal(got, []string{"rx-a"}) {
		t.Fatalf("store a holds %q, want only its own receiver", got)
	}
	if got := held(b); !slices.Equal(got, []string{"rx-b", "rx-far"}) {
		t.Fatalf("store b holds %q, want its live and its recovered receiver", got)
	}
	for _, d := range b.Range(far, 0, ^uint64(0)) {
		if d.Receiver != "rx-far" || !same(d.Receiver, b.names.lookup(b.names.index("rx-far"))) {
			t.Fatalf("archived entry %d names %q apart from the store's table", d.StoreSeq, d.Receiver)
		}
	}
	if d, ok := b.Latest(db.Msg.Stream); !ok || d.Receiver != "rx-b" {
		t.Fatalf("hot entry names %q, want rx-b", d.Receiver)
	}
}
