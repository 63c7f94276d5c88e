package intern

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// same reports whether two strings share a backing pointer.
func same(a, b string) bool {
	return unsafe.StringData(a) == unsafe.StringData(b)
}

func TestCanonicalPointer(t *testing.T) {
	a := String("rx-" + fmt.Sprint(1)) // defeat constant folding
	b := String("rx-" + fmt.Sprint(1))
	if a != b || !same(a, b) {
		t.Fatalf("two String calls returned distinct backings")
	}
	c := Bytes([]byte("rx-1"))
	if !same(a, c) {
		t.Fatalf("Bytes did not return the canonical string")
	}
	if String("") != "" || Bytes(nil) != "" {
		t.Fatalf("empty forms must pass through")
	}
	if i := Index("rx-" + fmt.Sprint(1)); i == 0 || i != Index(a) || !same(Lookup(i), a) {
		t.Fatalf("Index/Lookup do not name the canonical string: index %d", i)
	}
	if Index("") != 0 || Lookup(0) != "" {
		t.Fatalf("the empty string must be index 0")
	}
}

func TestBytesZeroAllocWhenInterned(t *testing.T) {
	b := []byte("rx-warm")
	Bytes(b)
	allocs := testing.AllocsPerRun(100, func() {
		if Bytes(b) == "" {
			t.Fatal("lost interned string")
		}
	})
	if allocs != 0 {
		t.Fatalf("interned Bytes lookup allocates %.1f/op, want 0", allocs)
	}
}

// TestConcurrentConverge hammers the copy-on-write publish path from
// many goroutines (run under -race) and checks every caller of the same
// spelling converges on one canonical pointer.
func TestConcurrentConverge(t *testing.T) {
	const goroutines, names = 8, 32
	out := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = make([]string, names)
			for i := 0; i < names; i++ {
				if name := fmt.Sprintf("conv-%d", i); g%2 == 0 {
					out[g][i] = String(name)
				} else {
					out[g][i] = Lookup(Index(name))
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < names; i++ {
		for g := 1; g < goroutines; g++ {
			if !same(out[0][i], out[g][i]) {
				t.Fatalf("goroutines disagree on canonical conv-%d", i)
			}
		}
	}
}
