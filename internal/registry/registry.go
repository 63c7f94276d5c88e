// Package registry implements the registration and authentication
// mechanisms of §3: consumers “use typical advertising, discovery,
// registration, authentication and publish/subscribe mechanisms to
// identify, subscribe to, and receive data streams of interest”.
//
// A consumer registers under a unique name with a set of capability
// permissions and receives an HMAC-signed bearer token. Every privileged
// middleware operation (subscribing, actuating, hinting, reading location
// streams, reporting state to the Super Coordinator) authenticates the
// token and checks the corresponding permission — including the paper's
// distinguished “trusted applications” that may provide advance warning of
// changing needs and override sensor-management policies (§9).
package registry

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"hash"
	"strings"
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/sim"
)

// Permission is the bit set of capabilities granted to a consumer.
type Permission uint8

const (
	// PermSubscribe allows subscribing to ordinary data streams.
	PermSubscribe Permission = 1 << iota
	// PermActuate allows submitting stream-update requests on the return
	// actuation path.
	PermActuate
	// PermHint allows supplying location hints to the Location Service.
	PermHint
	// PermLocation allows subscribing to the protected location streams
	// (§2: “location information may be regarded as sensitive and should
	// be protected by additional security mechanisms”).
	PermLocation
	// PermTrusted marks a trusted application: it may report state changes
	// to the Super Coordinator and override resource-management policies.
	PermTrusted
)

// Has reports whether every permission in q is granted.
func (p Permission) Has(q Permission) bool { return p&q == q }

// String lists granted permissions, e.g. "subscribe|actuate".
func (p Permission) String() string {
	if p == 0 {
		return "none"
	}
	names := []struct {
		bit  Permission
		name string
	}{
		{PermSubscribe, "subscribe"},
		{PermActuate, "actuate"},
		{PermHint, "hint"},
		{PermLocation, "location"},
		{PermTrusted, "trusted"},
	}
	var parts []string
	for _, n := range names {
		if p.Has(n.bit) {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "|")
}

// Identity is a registered consumer.
type Identity struct {
	Name         string
	Permissions  Permission
	RegisteredAt time.Time
}

// Token is a bearer credential returned by Register.
type Token string

// Registry errors.
var (
	ErrNameTaken  = errors.New("registry: name already registered")
	ErrBadToken   = errors.New("registry: malformed or forged token")
	ErrRevoked    = errors.New("registry: consumer revoked")
	ErrUnknown    = errors.New("registry: unknown consumer")
	ErrPermission = errors.New("registry: permission denied")
	ErrEmptyName  = errors.New("registry: empty consumer name")
)

// Registry issues and verifies consumer credentials.
type Registry struct {
	secret  []byte
	clock   sim.Clock
	signers sync.Pool // of *signer, keyed with secret

	mu     sync.Mutex
	byName map[string]Identity
}

// New creates a Registry signing tokens with the deployment secret. New
// panics on an empty secret (a deployment configuration error).
func New(secret []byte, clock sim.Clock) *Registry {
	if len(secret) == 0 {
		panic("registry: empty secret")
	}
	cp := make([]byte, len(secret))
	copy(cp, secret)
	r := &Registry{
		secret: cp,
		clock:  clock,
		byName: make(map[string]Identity),
	}
	r.signers.New = func() any { return &signer{mac: hmac.New(sha256.New, r.secret)} }
	return r
}

// signer is a keyed HMAC-SHA256 and the buffer one signature needs. It is
// pooled so that signing pays neither the key schedule nor an allocation:
// hash.Hash takes and returns byte slices through an interface, which would
// otherwise put the staged body and the sum on the heap per call.
type signer struct {
	mac hash.Hash
	buf [64]byte // stages the string being signed, a block at a time; then receives the sum
}

// Register adds a consumer and returns its bearer token. The HMAC is
// computed after the registry lock is released — it only needs the
// immutable signing secret — so minting never serialises other
// registrations or authentications.
func (r *Registry) Register(name string, perms Permission) (Token, error) {
	if name == "" {
		return "", ErrEmptyName
	}
	now := r.clock.Now()
	r.mu.Lock()
	if _, taken := r.byName[name]; taken {
		r.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrNameTaken, name)
	}
	r.byName[name] = Identity{Name: name, Permissions: perms, RegisteredAt: now}
	r.mu.Unlock()
	return r.mint(name, perms), nil
}

func (r *Registry) mint(name string, perms Permission) Token {
	body := encodeBody(name, perms)
	mac := r.sign(body)
	return Token(body + "." + base64.RawURLEncoding.EncodeToString(mac[:]))
}

func encodeBody(name string, perms Permission) string {
	return base64.RawURLEncoding.EncodeToString([]byte(name)) + "." +
		base64.RawURLEncoding.EncodeToString([]byte{byte(perms)})
}

func (r *Registry) sign(body string) [sha256.Size]byte {
	s := r.signers.Get().(*signer)
	s.mac.Reset()
	for len(body) > 0 {
		n := copy(s.buf[:], body)
		s.mac.Write(s.buf[:n])
		body = body[n:]
	}
	sum := [sha256.Size]byte(s.mac.Sum(s.buf[:0]))
	r.signers.Put(s)
	return sum
}

// Token segment sizes: "<name>.<perms>.<mac>", each unpadded URL-safe base64.
const (
	permsSegLen = 2  // one permission byte
	macSegLen   = 43 // one SHA-256 sum
)

// authenticate verifies a token and returns the live identity. It fails
// when the token is malformed or forged, the consumer was never
// registered, it was revoked, or its permissions changed since minting.
//
// Nothing is cached: every call computes the MAC over the body the token
// presents and compares all of it in constant time before any of that body
// is decoded, let alone trusted. The token is parsed where it lies — the two
// dots found by index, the body MACed as a prefix of the token, the segments
// decoded into stack buffers — so a successful call allocates nothing.
//
// The HMAC verification runs before the registry lock is taken (the
// signing secret is immutable), so concurrent authentications — every
// privileged facade call makes one — only serialise on the short
// identity-map lookup, not on the crypto.
func (r *Registry) authenticate(tok Token) (Identity, error) {
	t := string(tok)
	// Exactly three segments: <name> . <perms> . <mac>.
	dot1 := strings.IndexByte(t, '.')
	dot2 := strings.LastIndexByte(t, '.')
	if dot1 < 0 || dot2 == dot1 || strings.IndexByte(t[dot1+1:dot2], '.') >= 0 {
		return Identity{}, ErrBadToken
	}
	nameSeg, permsSeg, macSeg := t[:dot1], t[dot1+1:dot2], t[dot2+1:]
	if len(permsSeg) != permsSegLen || len(macSeg) != macSegLen {
		return Identity{}, ErrBadToken
	}

	// Decode takes bytes and the token is a string: each segment is staged
	// through stage on its way to its own buffer.
	var stage [128]byte
	var mac [sha256.Size]byte
	if n, err := decodeSegment(mac[:], stage[:], macSeg); err != nil || n != len(mac) {
		return Identity{}, ErrBadToken
	}
	want := r.sign(t[:dot2])
	if !hmac.Equal(mac[:], want[:]) {
		return Identity{}, ErrBadToken
	}

	var permRaw [1]byte
	if n, err := decodeSegment(permRaw[:], stage[:], permsSeg); err != nil || n != 1 {
		return Identity{}, ErrBadToken
	}
	// Names are short; one that outgrows the stack buffers is decoded on the
	// heap rather than refused.
	var nameRaw [96]byte // what a full stage decodes to
	src, name := stage[:], nameRaw[:]
	if len(nameSeg) > len(stage) {
		src = make([]byte, len(nameSeg))
		name = make([]byte, base64.RawURLEncoding.DecodedLen(len(nameSeg)))
	}
	n, err := decodeSegment(name, src, nameSeg)
	if err != nil {
		return Identity{}, ErrBadToken
	}
	name, perms := name[:n], Permission(permRaw[0])

	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.byName[string(name)]
	if !ok {
		return Identity{}, fmt.Errorf("%w: %q", ErrRevoked, string(name))
	}
	if id.Permissions != perms {
		// Permissions were changed after this token was minted; force
		// re-registration rather than honouring stale capabilities.
		return Identity{}, ErrBadToken
	}
	return id, nil
}

// decodeSegment decodes one token segment into dst, copying it through
// stage, which must be at least as long as the segment.
func decodeSegment(dst, stage []byte, seg string) (int, error) {
	return base64.RawURLEncoding.Decode(dst, stage[:copy(stage, seg)])
}

// Require authenticates tok and verifies it grants every permission in
// need, returning the identity on success.
func (r *Registry) Require(tok Token, need Permission) (Identity, error) {
	id, err := r.authenticate(tok)
	if err != nil {
		return Identity{}, err
	}
	if !id.Permissions.Has(need) {
		return Identity{}, fmt.Errorf("%w: %q lacks %v", ErrPermission, id.Name, need&^id.Permissions)
	}
	return id, nil
}

// Revoke removes a consumer; its outstanding tokens stop verifying.
// It reports whether the name was registered.
func (r *Registry) Revoke(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.byName[name]
	delete(r.byName, name)
	return ok
}
