// Package attest implements Treaty's distributed trust establishment
// (§VI): a simulated Intel Attestation Service (IAS) root of trust, the
// Configuration and Attestation Service (CAS) hosted inside the data
// center, and the per-node Local Attestation Service (LAS) that replaces
// the SGX Quoting Enclave.
//
// Bootstrap flow, exactly as the paper describes:
//
//  1. The service provider verifies the CAS over IAS and deploys it.
//  2. A LAS is deployed on every node, verified by the CAS over IAS; it
//     collects and signs quotes for all Treaty instances on that node.
//  3. Each Treaty enclave attests to the CAS (quote binding an ephemeral
//     X25519 public key). On success the CAS provisions the instance with
//     the cluster configuration — network key, storage key, peer
//     addresses — encrypted to the attested key, so only the genuine
//     enclave can read it.
//  4. Clients authenticate to the CAS with pre-registered credentials
//     and receive the keys needed to talk to the cluster.
//
// Avoiding per-restart round trips to the (high-latency, external) IAS is
// the point of hosting the CAS in the data center: node recovery
// re-attests against the local CAS only.
package attest

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"treaty/internal/enclave"
	"treaty/internal/seal"
	"treaty/internal/shardmap"
)

// Errors returned by this package.
var (
	// ErrUnknownPlatform indicates a quote from a platform the IAS has
	// no endorsement for.
	ErrUnknownPlatform = errors.New("attest: unknown platform")
	// ErrQuoteRejected indicates quote verification failed.
	ErrQuoteRejected = errors.New("attest: quote rejected")
	// ErrWrongMeasurement indicates the attested code is not the
	// expected Treaty build.
	ErrWrongMeasurement = errors.New("attest: unexpected enclave measurement")
	// ErrBadCredentials indicates a client failed authentication.
	ErrBadCredentials = errors.New("attest: bad client credentials")
)

// IAS simulates the manufacturer attestation service: the only party that
// can verify platform signatures. It is consulted once per platform (CAS
// and LAS deployment), not on node restarts.
type IAS struct {
	mu        sync.RWMutex
	platforms map[string]seal.Key // platform name -> root key endorsement
}

// NewIAS creates an empty registry.
func NewIAS() *IAS {
	return &IAS{platforms: make(map[string]seal.Key)}
}

// RegisterPlatform records a platform endorsement (the manufacturer
// knows each CPU's root key).
func (s *IAS) RegisterPlatform(p *enclave.Platform) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.platforms[p.Name] = p.RootKey()
}

// Verify checks a quote against the platform endorsement.
func (s *IAS) Verify(q *enclave.Quote) error {
	s.mu.RLock()
	key, ok := s.platforms[q.Platform]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPlatform, q.Platform)
	}
	if err := enclave.VerifyQuote(key, q); err != nil {
		return fmt.Errorf("%w: %v", ErrQuoteRejected, err)
	}
	return nil
}

// ClusterConfig is what the CAS provisions to attested instances: "the
// necessary configuration, e.g., network key, nodes' IPs, etc.".
type ClusterConfig struct {
	// NetworkKey protects all inter-node RPC traffic.
	NetworkKey seal.Key
	// StorageKey is the master key for the node's persistent structures.
	StorageKey seal.Key
	// Nodes lists the cluster members' RPC addresses, indexed by node id.
	Nodes []string
	// CounterReplicas lists the trusted counter protection group.
	CounterReplicas []string
}

// encodeConfig serializes a ClusterConfig.
func encodeConfig(c *ClusterConfig) []byte {
	var b []byte
	b = append(b, c.NetworkKey[:]...)
	b = append(b, c.StorageKey[:]...)
	b = appendStringList(b, c.Nodes)
	b = appendStringList(b, c.CounterReplicas)
	return b
}

// decodeConfig deserializes a ClusterConfig.
func decodeConfig(data []byte) (*ClusterConfig, error) {
	if len(data) < 2*seal.KeySize {
		return nil, errors.New("attest: short config")
	}
	var c ClusterConfig
	copy(c.NetworkKey[:], data)
	copy(c.StorageKey[:], data[seal.KeySize:])
	rest := data[2*seal.KeySize:]
	var err error
	c.Nodes, rest, err = readStringList(rest)
	if err != nil {
		return nil, err
	}
	c.CounterReplicas, _, err = readStringList(rest)
	if err != nil {
		return nil, err
	}
	return &c, nil
}

func appendStringList(b []byte, list []string) []byte {
	b = append(b, byte(len(list)))
	for _, s := range list {
		b = append(b, byte(len(s)))
		b = append(b, s...)
	}
	return b
}

func readStringList(b []byte) ([]string, []byte, error) {
	if len(b) < 1 {
		return nil, nil, errors.New("attest: short list")
	}
	n := int(b[0])
	b = b[1:]
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, nil, errors.New("attest: short list")
		}
		l := int(b[0])
		b = b[1:]
		if len(b) < l {
			return nil, nil, errors.New("attest: short list")
		}
		out = append(out, string(b[:l]))
		b = b[l:]
	}
	return out, b, nil
}

// CAS is the Configuration and Attestation Service. One instance runs in
// the data center; the service provider verified it over IAS at
// deployment.
type CAS struct {
	ias      *IAS
	expected enclave.Measurement

	mu      sync.Mutex
	config  ClusterConfig
	lass    map[string]bool   // platforms with a verified LAS
	clients map[string][]byte // client id -> credential secret

	// Shard-map authority: the CAS signs every shard-map epoch under a
	// key derived from the network key and binds the epoch to shardCtr,
	// a trusted monotonic counter (simulated here exactly like the
	// nodes' trusted counters — it only ever ratchets forward). The
	// counter's stable value is the freshness floor every verifier
	// holds: a replayed older epoch fails verification against it.
	shardKey seal.Key
	shard    *shardmap.Map
	shardCtr uint64

	// Replication witness state (promotion.go): per (primary, stream),
	// the last group sequence replicated before stabilization and the
	// prefix digest at it.
	repl map[witnessKey]*StreamWitness
}

// NewCAS deploys a CAS trusting enclaves with the expected measurement
// and distributing config. The epoch-1 shard map (slots dealt uniformly
// across config.Nodes) is signed and counter-bound immediately.
func NewCAS(ias *IAS, expected enclave.Measurement, config ClusterConfig) *CAS {
	c := &CAS{
		ias:      ias,
		expected: expected,
		config:   config,
		lass:     make(map[string]bool),
		clients:  make(map[string][]byte),
		shardKey: shardmap.KeyFor(config.NetworkKey),
	}
	members := make([]shardmap.Member, len(config.Nodes))
	for i, addr := range config.Nodes {
		members[i] = shardmap.Member{ID: uint64(i), Addr: addr}
	}
	if len(members) > 0 {
		m := shardmap.Uniform(members)
		m.Sign(c.shardKey)
		c.shard = m
		c.shardCtr = m.Epoch
	}
	return c
}

// ShardMap returns the current signed shard map (a copy; maps are
// immutable once signed).
func (c *CAS) ShardMap() *shardmap.Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shard == nil {
		return nil
	}
	return c.shard.Clone()
}

// ShardMapStable returns the shard-map trusted counter's stable value:
// the minimum epoch any verifier should accept.
func (c *CAS) ShardMapStable() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shardCtr
}

// InstallShardMap publishes the next shard-map epoch: it must advance
// the epoch by exactly one from the current map and reference only
// known members. The CAS signs it and stabilizes the trusted counter
// to the new epoch BEFORE releasing the map — the ordering that makes
// rollback detection sound (no verifier can ever have seen an epoch
// above the counter).
func (c *CAS) InstallShardMap(next *shardmap.Map) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shard == nil {
		return errors.New("attest: no shard map deployed")
	}
	if next.Epoch != c.shard.Epoch+1 {
		return fmt.Errorf("attest: shard map epoch must advance by one (%d -> %d)", c.shard.Epoch, next.Epoch)
	}
	m := next.Clone()
	m.Counter = m.Epoch
	m.Sign(c.shardKey)
	if err := m.Verify(c.shardKey, c.shardCtr); err != nil {
		return fmt.Errorf("attest: refusing to install shard map: %w", err)
	}
	// Stabilize the counter first, then swap: the map is only reachable
	// once its epoch is the counter's floor.
	c.shardCtr = m.Epoch
	c.shard = m
	return nil
}

// AddNode extends the cluster with a new member: the address joins the
// provisioned node list (so the new node's attestation sees itself),
// and a new shard-map epoch adds the member owning zero slots and with
// no backup — slots move to it only through explicit migration. Returns
// the new map.
func (c *CAS) AddNode(addr string) (*shardmap.Map, error) {
	c.mu.Lock()
	if c.shard == nil {
		c.mu.Unlock()
		return nil, errors.New("attest: no shard map deployed")
	}
	id := uint64(len(c.config.Nodes))
	c.config.Nodes = append(c.config.Nodes, addr)
	next := c.shard.Clone()
	next.Epoch++
	next.Members = append(next.Members, shardmap.Member{ID: id, Addr: addr, Backup: shardmap.NoBackup})
	c.mu.Unlock()
	if err := c.InstallShardMap(next); err != nil {
		return nil, err
	}
	return c.ShardMap(), nil
}

// DeployLAS verifies (over IAS) and registers a LAS for a platform. Until
// a platform has a LAS, its instances cannot attest.
func (c *CAS) DeployLAS(las *LAS) error {
	if err := c.ias.Verify(&las.quote); err != nil {
		return fmt.Errorf("attest: LAS verification: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lass[las.platform.Name] = true
	return nil
}

// RegisterClient stores a client credential for later authentication.
func (c *CAS) RegisterClient(id string, secret []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clients[id] = append([]byte(nil), secret...)
}

// AttestationRequest is what an instance sends: its quote (signed by the
// node's LAS), with the instance's ephemeral X25519 public key bound into
// the report data.
type AttestationRequest struct {
	// Quote attests the instance.
	Quote enclave.Quote
	// PublicKey is the instance's ephemeral X25519 key (also bound in
	// Quote.ReportData — the binding is what defeats relay attacks).
	PublicKey []byte
}

// AttestationResponse carries the config sealed to the attested key.
type AttestationResponse struct {
	// CASPublicKey is the CAS's ephemeral X25519 key for this exchange.
	CASPublicKey []byte
	// SealedConfig is the ClusterConfig encrypted under the ECDH-derived
	// session key.
	SealedConfig []byte
}

// Attest verifies an instance and, on success, provisions the cluster
// configuration encrypted to its attested key.
func (c *CAS) Attest(req *AttestationRequest) (*AttestationResponse, error) {
	c.mu.Lock()
	hasLAS := c.lass[req.Quote.Platform]
	cfg := c.config
	cfg.Nodes = append([]string(nil), c.config.Nodes...)
	c.mu.Unlock()
	if !hasLAS {
		return nil, fmt.Errorf("%w: no LAS on %s", ErrQuoteRejected, req.Quote.Platform)
	}
	// The LAS signs with the platform key (it replaced the QE), so the
	// IAS endorsement verifies node-local quotes without contacting IAS.
	if err := c.ias.Verify(&req.Quote); err != nil {
		return nil, err
	}
	if req.Quote.Measurement != c.expected {
		return nil, ErrWrongMeasurement
	}
	// The quote must bind the offered public key.
	if len(req.PublicKey) == 0 || !bytes.HasPrefix(req.Quote.ReportData[:], req.PublicKey) {
		return nil, fmt.Errorf("%w: public key not bound in quote", ErrQuoteRejected)
	}

	sessionKey, casPub, err := deriveSessionKey(req.PublicKey)
	if err != nil {
		return nil, err
	}
	ciph, err := seal.NewCipher(sessionKey)
	if err != nil {
		return nil, err
	}
	return &AttestationResponse{
		CASPublicKey: casPub,
		SealedConfig: ciph.Seal(encodeConfig(&cfg), req.PublicKey),
	}, nil
}

// AuthenticateClient verifies a client credential and returns the
// network key sealed to the client's ephemeral key.
func (c *CAS) AuthenticateClient(id string, secret, clientPub []byte) (*AttestationResponse, error) {
	c.mu.Lock()
	want, ok := c.clients[id]
	cfg := ClusterConfig{NetworkKey: c.config.NetworkKey, Nodes: append([]string(nil), c.config.Nodes...)}
	c.mu.Unlock()
	if !ok || !bytes.Equal(want, secret) {
		return nil, ErrBadCredentials
	}
	sessionKey, casPub, err := deriveSessionKey(clientPub)
	if err != nil {
		return nil, err
	}
	ciph, err := seal.NewCipher(sessionKey)
	if err != nil {
		return nil, err
	}
	return &AttestationResponse{
		CASPublicKey: casPub,
		SealedConfig: ciph.Seal(encodeConfig(&cfg), clientPub),
	}, nil
}

// deriveSessionKey performs the CAS side of the X25519 exchange.
func deriveSessionKey(peerPub []byte) (seal.Key, []byte, error) {
	curve := ecdh.X25519()
	peer, err := curve.NewPublicKey(peerPub)
	if err != nil {
		return seal.Key{}, nil, fmt.Errorf("attest: peer key: %w", err)
	}
	priv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return seal.Key{}, nil, fmt.Errorf("attest: keygen: %w", err)
	}
	shared, err := priv.ECDH(peer)
	if err != nil {
		return seal.Key{}, nil, fmt.Errorf("attest: ecdh: %w", err)
	}
	key, err := seal.KeyFromBytes(shared)
	if err != nil {
		return seal.Key{}, nil, err
	}
	return seal.DeriveKey(key, "attest/session"), priv.PublicKey().Bytes(), nil
}

// LAS is the Local Attestation Service for one platform: it replaces the
// Quoting Enclave, collecting and signing quotes for all Treaty instances
// on the node. Its own identity was verified by the CAS over IAS at
// deployment.
type LAS struct {
	platform *enclave.Platform
	quote    enclave.Quote
}

// NewLAS launches a LAS on the platform.
func NewLAS(p *enclave.Platform) (*LAS, error) {
	encl, err := p.Launch("treaty-las", enclave.RuntimeConfig{Mode: enclave.ModeNative})
	if err != nil {
		return nil, fmt.Errorf("attest: launching LAS: %w", err)
	}
	return &LAS{platform: p, quote: encl.Quote(nil)}, nil
}

// QuoteFor produces a signed quote for a local instance. (On this
// simulated hardware the platform key signs directly; the LAS is the
// component authorized to use it, as the QE is on SGX.)
func (l *LAS) QuoteFor(instance *enclave.Enclave, reportData []byte) enclave.Quote {
	return instance.Quote(reportData)
}

// Instance is the node-side attestation helper: it generates the
// ephemeral key, obtains a quote via the LAS, and opens the CAS response.
type Instance struct {
	encl *enclave.Enclave
	las  *LAS
	priv *ecdh.PrivateKey
}

// NewInstance prepares an instance attestation for encl via las.
func NewInstance(encl *enclave.Enclave, las *LAS) (*Instance, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("attest: keygen: %w", err)
	}
	return &Instance{encl: encl, las: las, priv: priv}, nil
}

// Request builds the attestation request (quote binds the public key).
func (i *Instance) Request() *AttestationRequest {
	pub := i.priv.PublicKey().Bytes()
	return &AttestationRequest{
		Quote:     i.las.QuoteFor(i.encl, pub),
		PublicKey: pub,
	}
}

// OpenResponse decrypts the provisioned configuration.
func (i *Instance) OpenResponse(resp *AttestationResponse) (*ClusterConfig, error) {
	curve := ecdh.X25519()
	casPub, err := curve.NewPublicKey(resp.CASPublicKey)
	if err != nil {
		return nil, fmt.Errorf("attest: cas key: %w", err)
	}
	shared, err := i.priv.ECDH(casPub)
	if err != nil {
		return nil, fmt.Errorf("attest: ecdh: %w", err)
	}
	key, err := seal.KeyFromBytes(shared)
	if err != nil {
		return nil, err
	}
	ciph, err := seal.NewCipher(seal.DeriveKey(key, "attest/session"))
	if err != nil {
		return nil, err
	}
	plain, err := ciph.Open(resp.SealedConfig, i.priv.PublicKey().Bytes())
	if err != nil {
		return nil, fmt.Errorf("attest: opening config: %w", err)
	}
	return decodeConfig(plain)
}

// ClientSession is the client-side counterpart for CAS authentication.
type ClientSession struct {
	priv *ecdh.PrivateKey
}

// NewClientSession creates a client key exchange session.
func NewClientSession() (*ClientSession, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("attest: keygen: %w", err)
	}
	return &ClientSession{priv: priv}, nil
}

// PublicKey returns the session public key to send to the CAS.
func (s *ClientSession) PublicKey() []byte { return s.priv.PublicKey().Bytes() }

// OpenResponse decrypts the CAS's client-auth response.
func (s *ClientSession) OpenResponse(resp *AttestationResponse) (*ClusterConfig, error) {
	i := Instance{priv: s.priv}
	return i.OpenResponse(resp)
}
