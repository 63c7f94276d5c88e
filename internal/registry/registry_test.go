package registry

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/sim"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

func newRegistry() *Registry {
	return New([]byte("deployment-secret"), sim.NewVirtualClock(epoch))
}

func TestRegisterAndAuthenticate(t *testing.T) {
	r := newRegistry()
	tok, err := r.Register("habitat-app", PermSubscribe|PermActuate)
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.authenticate(tok)
	if err != nil {
		t.Fatal(err)
	}
	if id.Name != "habitat-app" || !id.Permissions.Has(PermSubscribe|PermActuate) {
		t.Fatalf("identity = %+v", id)
	}
	if !id.RegisteredAt.Equal(epoch) {
		t.Fatalf("RegisteredAt = %v", id.RegisteredAt)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	r := newRegistry()
	if _, err := r.Register("app", PermSubscribe); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("app", PermSubscribe); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("err = %v, want ErrNameTaken", err)
	}
}

func TestEmptyNameRejected(t *testing.T) {
	r := newRegistry()
	if _, err := r.Register("", PermSubscribe); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("err = %v, want ErrEmptyName", err)
	}
}

func TestForgedTokenRejected(t *testing.T) {
	r := newRegistry()
	tok, err := r.Register("app", PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		tok  Token
	}{
		{"garbage", Token("not-a-token")},
		{"two parts", Token("aaaa.bbbb")},
		{"flipped mac byte", flipLastChar(tok)},
		{"empty", Token("")},
		{"bad base64 body", Token("!!!!." + strings.Split(string(tok), ".")[1] + "." + strings.Split(string(tok), ".")[2])},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := r.authenticate(tt.tok); !errors.Is(err, ErrBadToken) {
				t.Errorf("err = %v, want ErrBadToken", err)
			}
		})
	}
}

func flipLastChar(tok Token) Token {
	b := []byte(tok)
	if b[len(b)-1] == 'A' {
		b[len(b)-1] = 'B'
	} else {
		b[len(b)-1] = 'A'
	}
	return Token(b)
}

func TestTokenFromDifferentSecretRejected(t *testing.T) {
	r1 := newRegistry()
	r2 := New([]byte("other-secret"), sim.NewVirtualClock(epoch))
	tok, err := r1.Register("app", PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Register("app", PermSubscribe); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.authenticate(tok); !errors.Is(err, ErrBadToken) {
		t.Fatalf("cross-deployment token accepted: %v", err)
	}
}

func TestPermissionEscalationRejected(t *testing.T) {
	r := newRegistry()
	tok, err := r.Register("app", PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	// An attacker re-encodes the body claiming PermTrusted but cannot forge
	// the mac.
	parts := strings.Split(string(tok), ".")
	forged := Token(parts[0] + "." + "HQ" + "." + parts[2]) // body changed, mac stale
	if _, err := r.authenticate(forged); !errors.Is(err, ErrBadToken) {
		t.Fatalf("escalated token accepted: %v", err)
	}
}

func TestRevoke(t *testing.T) {
	r := newRegistry()
	tok, err := r.Register("app", PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Revoke("app") {
		t.Fatal("Revoke returned false")
	}
	if r.Revoke("app") {
		t.Fatal("second Revoke returned true")
	}
	if _, err := r.authenticate(tok); !errors.Is(err, ErrRevoked) {
		t.Fatalf("err = %v, want ErrRevoked", err)
	}
}

func TestRequire(t *testing.T) {
	r := newRegistry()
	tok, err := r.Register("app", PermSubscribe|PermHint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Require(tok, PermSubscribe); err != nil {
		t.Fatalf("Require(subscribe) = %v", err)
	}
	if _, err := r.Require(tok, PermSubscribe|PermHint); err != nil {
		t.Fatalf("Require(both) = %v", err)
	}
	if _, err := r.Require(tok, PermActuate); !errors.Is(err, ErrPermission) {
		t.Fatalf("Require(actuate) = %v, want ErrPermission", err)
	}
	if _, err := r.Require(tok, PermTrusted); !errors.Is(err, ErrPermission) {
		t.Fatalf("Require(trusted) = %v, want ErrPermission", err)
	}
}

// TestRequireDoesNotAllocate pins the verification hot path: every
// privileged facade call makes one, so the keyed hasher is pooled and the
// token is parsed in place. The bound of 2 leaves room for the identity's
// name; today the path allocates nothing.
func TestRequireDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts, so the pooled signer allocates")
	}
	r := newRegistry()
	tok, err := r.Register("actuator-3", PermActuate)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.Require(tok, PermActuate); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Require allocates %v times per call, want <= 2", allocs)
	}
}

// TestMalformedTokenShapesRejected feeds the in-place parser every shape
// the strings.Split + DecodeString parse it replaced turned away: too few
// or too many dots, segments cut short, stretched or emptied, and bytes
// outside the alphabet — each built from a genuine token, so only the
// shape is wrong.
func TestMalformedTokenShapesRejected(t *testing.T) {
	r := newRegistry()
	tok, err := r.Register("app", PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(string(tok), ".")
	name, perms, mac := parts[0], parts[1], parts[2]
	join := func(segs ...string) Token { return Token(strings.Join(segs, ".")) }
	tests := []struct {
		name string
		tok  Token
	}{
		{"no dots", Token(name + perms + mac)},
		{"first dot missing", Token(name + perms + "." + mac)},
		{"second dot missing", Token(name + "." + perms + mac)},
		{"only dots", Token("..")},
		{"one dot only", Token(".")},
		{"fourth segment", join(name, perms, mac, mac)},
		{"leading dot", Token("." + string(tok))},
		{"trailing dot", Token(string(tok) + ".")},
		{"truncated by one", tok[:len(tok)-1]},
		{"truncated to half the mac", tok[:len(tok)-len(mac)/2]},
		{"truncated to the body", join(name, perms, "")},
		{"truncated before perms", join(name, "", mac)},
		{"empty name", join("", perms, mac)},
		{"mac one char long", join(name, perms, mac+"A")},
		{"mac doubled", join(name, perms, mac+mac)},
		{"mac padded", join(name, perms, mac+"=")},
		{"mac with newline inside", join(name, perms, mac[:10]+"\n"+mac[11:])},
		{"mac outside alphabet", join(name, perms, "!"+mac[1:])},
		{"mac in std alphabet", join(name, perms, strings.Repeat("+", len(mac)))},
		{"perms one char", join(name, perms[:1], mac)},
		{"perms three chars", join(name, perms+"A", mac)},
		{"perms padded", join(name, perms+"==", mac)},
		{"perms outside alphabet", join(name, "!!", mac)},
		{"name stretched", join(name+"A", perms, mac)},
		{"name oversized", join(strings.Repeat(name, 200), perms, mac)},
		{"name outside alphabet", join(name[:1]+"!"+name[2:], perms, mac)},
		{"everything oversized", join(strings.Repeat("A", 4096), strings.Repeat("A", 4096), strings.Repeat("A", 4096))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := r.authenticate(tt.tok); !errors.Is(err, ErrBadToken) {
				t.Errorf("err = %v, want ErrBadToken", err)
			}
		})
	}
}

// TestLongNameAuthenticates covers the heap fall-back for a name too long
// for the stack buffers.
func TestLongNameAuthenticates(t *testing.T) {
	r := newRegistry()
	for _, n := range []int{95, 96, 97, 128, 1000} {
		name := strings.Repeat("n", n)
		tok, err := r.Register(name, PermHint)
		if err != nil {
			t.Fatal(err)
		}
		if id, err := r.Require(tok, PermHint); err != nil || id.Name != name {
			t.Fatalf("%d-byte name: id %q, err %v", n, id.Name, err)
		}
	}
}

// TestConcurrentAuthenticate shares the pooled keyed hashers between
// goroutines verifying different tokens, good and forged: each must get its
// own identity back and every forgery must be refused. Run under -race.
func TestConcurrentAuthenticate(t *testing.T) {
	r := newRegistry()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		name := "app-" + strconv.Itoa(w) + strings.Repeat("x", 20*w) // bodies of 1..4 hash blocks
		tok, err := r.Register(name, PermSubscribe)
		if err != nil {
			t.Fatal(err)
		}
		// The name's last character, not the MAC's: the final base64 digit of
		// a 32-byte sum carries two bits the decoder ignores.
		forged := Token(strings.Replace(string(tok), ".", "A.", 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if id, err := r.authenticate(tok); err != nil || id.Name != name {
					t.Errorf("Authenticate(%q) = %q, %v", name, id.Name, err)
					return
				}
				if _, err := r.authenticate(forged); !errors.Is(err, ErrBadToken) {
					t.Errorf("forged token for %q: err = %v, want ErrBadToken", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPermissionString(t *testing.T) {
	tests := []struct {
		p    Permission
		want string
	}{
		{0, "none"},
		{PermSubscribe, "subscribe"},
		{PermSubscribe | PermActuate, "subscribe|actuate"},
		{PermTrusted, "trusted"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Permission(%d).String() = %q, want %q", tt.p, got, tt.want)
		}
	}
}

func TestNewPanicsOnEmptySecret(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(nil, sim.NewVirtualClock(epoch))
}

func TestSecretIsCopied(t *testing.T) {
	secret := []byte("mutable")
	r := New(secret, sim.NewVirtualClock(epoch))
	tok, err := r.Register("app", PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	secret[0] = 'X' // caller mutates its buffer
	if _, err := r.authenticate(tok); err != nil {
		t.Fatal("registry aliased the caller's secret buffer")
	}
}

// BenchmarkRegistryAuthenticate measures concurrent token verification —
// every privileged facade call authenticates, so the HMAC must run
// outside the registry mutex or all authentications serialise.
func BenchmarkRegistryAuthenticate(b *testing.B) {
	r := newRegistry()
	tok, err := r.Register("bench-app", PermSubscribe|PermActuate|PermTrusted)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := r.authenticate(tok); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkRegistryRegister measures registration (mint under load):
// minting happens after the lock is released, so concurrent registrations
// only serialise on the identity-map insert.
func BenchmarkRegistryRegister(b *testing.B) {
	r := newRegistry()
	var n atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			name := "app-" + strconv.FormatInt(n.Add(1), 10)
			if _, err := r.Register(name, PermSubscribe); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
