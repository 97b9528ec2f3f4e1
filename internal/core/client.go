package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"treaty/internal/attest"
	"treaty/internal/erpc"
	"treaty/internal/fibers"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/shardmap"
	"treaty/internal/simnet"
	"treaty/internal/twopc"
)

// Client-facing RPC request types ("Clients are registered to TREATY
// nodes and thereafter are able to execute transactions", §V-A). Each
// client operation is forwarded by the coordinator node into the 2PC
// machinery; the coordinator interacts with the client and distributes
// requests to the involved participants.
const (
	reqClientBegin uint8 = 0x30 + iota
	reqClientGet
	reqClientPut
	reqClientDelete
	reqClientCommit
	reqClientRollback
)

// clientTxKey identifies one client transaction at the coordinator.
type clientTxKey struct {
	client uint64
	tx     uint64
}

// clientSessions tracks the server side of client transactions.
type clientSessions struct {
	node *Node
	mu   sync.Mutex
	txns map[clientTxKey]*twopc.DistTxn
}

// newClientSessions registers the client protocol handlers.
func newClientSessions(n *Node) *clientSessions {
	cs := &clientSessions{node: n, txns: make(map[clientTxKey]*twopc.DistTxn)}
	n.ep.Register(reqClientBegin, twopc.OnFiber(n.sched, cs.handleBegin))
	n.ep.Register(reqClientGet, twopc.OnFiber(n.sched, cs.handleOp))
	n.ep.Register(reqClientPut, twopc.OnFiber(n.sched, cs.handleOp))
	n.ep.Register(reqClientDelete, twopc.OnFiber(n.sched, cs.handleOp))
	n.ep.Register(reqClientCommit, twopc.OnFiber(n.sched, cs.handleEnd))
	n.ep.Register(reqClientRollback, twopc.OnFiber(n.sched, cs.handleEnd))
	return cs
}

// keyOf builds the session key from request metadata.
func keyOf(req *erpc.Request) clientTxKey {
	return clientTxKey{client: req.Meta.NodeID, tx: req.Meta.TxID}
}

// handleBegin opens a distributed transaction for the client.
func (cs *clientSessions) handleBegin(f *fibers.Fiber, req *erpc.Request) {
	tx := cs.node.coord.Begin(nil)
	cs.mu.Lock()
	cs.txns[keyOf(req)] = tx
	cs.mu.Unlock()
	req.Reply(nil)
}

// lookup finds the client's transaction.
func (cs *clientSessions) lookup(req *erpc.Request) *twopc.DistTxn {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.txns[keyOf(req)]
}

// drop removes a finished transaction.
func (cs *clientSessions) drop(req *erpc.Request) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	delete(cs.txns, keyOf(req))
}

// handleOp forwards one keyed operation — get, put or delete, told apart
// by the request type — into the client's distributed transaction. A
// request whose declared sizes overrun its payload is rejected, whatever
// the operation.
func (cs *clientSessions) handleOp(f *fibers.Fiber, req *erpc.Request) {
	tx := cs.lookup(req)
	if tx == nil {
		req.ReplyError("core: no such transaction")
		return
	}
	key, value, ok := twopc.SplitKV(req)
	if !ok {
		req.ReplyError("core: malformed sizes")
		return
	}
	tx.SetFiber(f)
	var reply []byte
	var err error
	switch req.Type() {
	case reqClientGet:
		var v []byte
		var found bool
		if v, found, err = tx.Get(key); found {
			reply = append([]byte{twopc.GetFound}, v...)
		} else {
			reply = []byte{twopc.GetNotFound}
		}
	case reqClientPut:
		err = tx.Put(key, value)
	case reqClientDelete:
		err = tx.Delete(key)
	}
	if err != nil {
		req.ReplyError(err.Error())
		return
	}
	req.Reply(reply)
}

// handleEnd finishes the client's transaction. A commit runs 2PC and
// acknowledges the client after the decision is stabilized; a rollback
// aborts everywhere.
func (cs *clientSessions) handleEnd(f *fibers.Fiber, req *erpc.Request) {
	tx := cs.lookup(req)
	if tx == nil {
		req.ReplyError("core: no such transaction")
		return
	}
	tx.SetFiber(f)
	cs.drop(req)
	end := tx.Rollback
	if req.Type() == reqClientCommit {
		end = tx.Commit
	}
	if err := end(); err != nil {
		req.ReplyError(err.Error())
		return
	}
	req.Reply(nil)
}

// Client is a Treaty client: it authenticates to the CAS, receives the
// network key, and runs interactive transactions against a coordinator
// node over a mutually authenticated channel (§IV-A).
type Client struct {
	id      uint64
	ep      *erpc.Endpoint
	poller  *erpc.Poller
	coord   string
	nodes   []string
	timeout time.Duration
	nextTx  uint64

	// Shard-map view: clients verify the CAS-signed map like nodes do
	// (signature under the network key, epoch bound to the trusted
	// counter) so a replayed older map cannot redirect their traffic.
	cas      *attest.CAS
	shardKey seal.Key
	shard    *shardmap.Holder
	shardMin uint64
	met      *obs.Registry
}

// ClientOptions configures Connect.
type ClientOptions struct {
	// ID must be unique among clients (it namespaces transactions).
	ID uint64
	// Addr is the client's own network address.
	Addr string
	// Net is the network substrate.
	Net *simnet.Network
	// CAS authenticates the client.
	CAS *attest.CAS
	// Credential is the pre-registered client secret.
	CredentialID string
	// Secret is the credential's secret bytes.
	Secret []byte
	// Coordinator selects the coordinator node (empty: derived from ID).
	Coordinator string
	// Timeout bounds each operation (0 = 5s).
	Timeout time.Duration
	// Secure must match the cluster's RPC security mode.
	Secure bool
	// Metrics, when non-nil, exports client-side shard-map counters
	// (shardmap.stale_epoch_rejected fires when a replayed map is
	// refused).
	Metrics *obs.Registry
}

// Connect authenticates with the CAS and opens a coordinator session.
func Connect(opts ClientOptions) (*Client, error) {
	sess, err := attest.NewClientSession()
	if err != nil {
		return nil, err
	}
	resp, err := opts.CAS.AuthenticateClient(opts.CredentialID, opts.Secret, sess.PublicKey())
	if err != nil {
		return nil, fmt.Errorf("core: client auth: %w", err)
	}
	cfg, err := sess.OpenResponse(resp)
	if err != nil {
		return nil, err
	}
	nep, err := opts.Net.Listen(opts.Addr)
	if err != nil {
		return nil, err
	}
	ep, err := erpc.NewEndpoint(erpc.Config{
		NodeID:     opts.ID,
		Transport:  erpc.NewSimTransport(nep, nil, erpc.KindDPDK),
		NetworkKey: cfg.NetworkKey,
		Secure:     opts.Secure,
	})
	if err != nil {
		return nil, err
	}
	coord := opts.Coordinator
	if coord == "" {
		coord = cfg.Nodes[opts.ID%uint64(len(cfg.Nodes))]
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	c := &Client{
		id:       opts.ID,
		ep:       ep,
		poller:   erpc.StartPoller(ep),
		coord:    coord,
		nodes:    cfg.Nodes,
		timeout:  timeout,
		cas:      opts.CAS,
		shardKey: shardmap.KeyFor(cfg.NetworkKey),
		shard:    shardmap.NewHolder(nil),
		met:      opts.Metrics,
	}
	// Establish the initial verified shard-map view. A client that
	// cannot verify the routing epoch must not connect.
	if m := opts.CAS.ShardMap(); m != nil {
		if err := c.ApplyShardMap(m); err != nil {
			c.poller.Stop()
			_ = c.ep.Close()
			return nil, fmt.Errorf("core: client shard map rejected: %w", err)
		}
	}
	return c, nil
}

// ApplyShardMap verifies a presented shard map against the CAS
// signature, the trusted counter, and the client's highest-seen epoch,
// and adopts it if it advances the view. A replayed older map — even a
// genuinely signed one — fails the counter binding and fires
// shardmap.stale_epoch_rejected on the client's registry.
func (c *Client) ApplyShardMap(m *shardmap.Map) error {
	floor := c.shardMin
	if ctr := c.cas.ShardMapStable(); ctr > floor {
		floor = ctr
	}
	if err := m.Verify(c.shardKey, floor); err != nil {
		if errors.Is(err, shardmap.ErrStaleEpoch) {
			c.met.Counter("shardmap.stale_epoch_rejected").Inc()
		}
		return err
	}
	if m.Epoch > c.shardMin {
		c.shardMin = m.Epoch
	}
	if cur := c.shard.View(); cur == nil || m.Epoch > cur.Epoch {
		c.shard.Store(m.Clone())
	}
	return nil
}

// RefreshShardMap refetches and re-verifies the CAS map (after a
// wrong-epoch rejection).
func (c *Client) RefreshShardMap() error {
	m := c.cas.ShardMap()
	if m == nil {
		return errors.New("core: CAS has no shard map")
	}
	return c.ApplyShardMap(m)
}

// ShardEpoch reports the client's verified shard-map epoch (0 before
// any map was accepted).
func (c *Client) ShardEpoch() uint64 {
	if v := c.shard.View(); v != nil {
		return v.Epoch
	}
	return 0
}

// IsRetriable reports whether a transaction error is a transient
// routing condition — wrong epoch or a migration fence — that a client
// resolves by refreshing its shard map and retrying the transaction.
func IsRetriable(err error) bool {
	return twopc.IsWrongEpoch(err) || twopc.IsSlotFenced(err)
}

// Close releases the client.
func (c *Client) Close() error {
	c.poller.Stop()
	return c.ep.Close()
}

// ClientTxn is one interactive transaction from the client's view.
type ClientTxn struct {
	c    *Client
	tx   uint64
	done bool
}

// ErrTxnDone indicates use of a finished client transaction.
var ErrTxnDone = errors.New("core: transaction already finished")

// call performs one client-protocol request.
func (c *Client) call(reqType uint8, tx uint64, key, value []byte) ([]byte, error) {
	md := seal.MsgMetadata{
		TxID:     tx,
		OpType:   uint32(reqType),
		KeyLen:   uint32(len(key)),
		ValueLen: uint32(len(value)),
	}
	payload := make([]byte, 0, len(key)+len(value))
	payload = append(payload, key...)
	payload = append(payload, value...)
	return erpc.Call(c.ep, c.coord, reqType, md, payload, c.timeout, nil)
}

// BeginTxn starts an interactive transaction.
func (c *Client) BeginTxn() (*ClientTxn, error) {
	c.nextTx++
	tx := c.nextTx
	if _, err := c.call(reqClientBegin, tx, nil, nil); err != nil {
		return nil, err
	}
	return &ClientTxn{c: c, tx: tx}, nil
}

// op sends one request of the transaction; the commit and rollback
// requests are its last.
func (t *ClientTxn) op(reqType uint8, key, value []byte) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	t.done = reqType == reqClientCommit || reqType == reqClientRollback
	return t.c.call(reqType, t.tx, key, value)
}

// TxnGet reads a key.
func (t *ClientTxn) TxnGet(key []byte) ([]byte, bool, error) {
	resp, err := t.op(reqClientGet, key, nil)
	if err != nil || len(resp) == 0 || resp[0] == twopc.GetNotFound {
		return nil, false, err
	}
	return resp[1:], true, nil
}

// TxnPut writes a key.
func (t *ClientTxn) TxnPut(key, value []byte) error {
	_, err := t.op(reqClientPut, key, value)
	return err
}

// TxnDelete removes a key.
func (t *ClientTxn) TxnDelete(key []byte) error {
	_, err := t.op(reqClientDelete, key, nil)
	return err
}

// TxnCommit commits; success means the transaction is durable and
// rollback-protected on every involved node.
func (t *ClientTxn) TxnCommit() error {
	_, err := t.op(reqClientCommit, nil, nil)
	return err
}

// TxnRollback aborts the transaction.
func (t *ClientTxn) TxnRollback() error {
	_, err := t.op(reqClientRollback, nil, nil)
	return err
}
