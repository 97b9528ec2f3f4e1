package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
)

// Txn is the transactional interface the workloads drive. Both the
// in-process coordinator transactions (twopc.DistTxn) and single-node
// transactions (txn.Txn / txn.OTxn) satisfy it.
type Txn interface {
	Get(key []byte) ([]byte, bool, error)
	Put(key, value []byte) error
	Commit() error
	Rollback() error
}

// Begin starts one transaction (supplied by the system under test).
type Begin func() Txn

// TPC-C implementation notes. The schema is encoded as key-value records
// with fixed binary layouts; secondary access paths (customer-by-last-
// name) use index records. Scale: the spec's 10 districts per warehouse
// and the five-transaction mix (45/43/4/4/4) with NURand key skew and
// remote-warehouse probabilities (1% of new-order lines, 15% of
// payments) are implemented exactly — the remote touches are what make
// transactions distributed. Row *populations* (customers per district,
// item count) are configurable: the paper's full population (3000
// customers/district, 100k items) is the default for benchmarks, and
// tests shrink it while preserving the conflict structure.

// TPCCConfig parameterizes the benchmark.
type TPCCConfig struct {
	// Warehouses is the scale factor (the paper uses 10 and 100).
	Warehouses int
	// DistrictsPerWarehouse defaults to the spec's 10.
	DistrictsPerWarehouse int
	// CustomersPerDistrict defaults to the spec's 3000.
	CustomersPerDistrict int
	// Items defaults to the spec's 100_000.
	Items int
}

// withDefaults fills zero fields.
func (c TPCCConfig) withDefaults() TPCCConfig {
	if c.Warehouses == 0 {
		c.Warehouses = 10
	}
	if c.DistrictsPerWarehouse == 0 {
		c.DistrictsPerWarehouse = 10
	}
	if c.CustomersPerDistrict == 0 {
		c.CustomersPerDistrict = 3000
	}
	if c.Items == 0 {
		c.Items = 100000
	}
	return c
}

// TPC-C transaction types.
type TPCCTxnType int

const (
	// TxnNewOrder is the 45% order-entry transaction.
	TxnNewOrder TPCCTxnType = iota + 1
	// TxnPayment is the 43% payment transaction.
	TxnPayment
	// TxnOrderStatus is the 4% order-status query.
	TxnOrderStatus
	// TxnDelivery is the 4% batch delivery transaction.
	TxnDelivery
	// TxnStockLevel is the 4% stock-level query.
	TxnStockLevel
)

// String names the transaction type.
func (t TPCCTxnType) String() string {
	switch t {
	case TxnNewOrder:
		return "NewOrder"
	case TxnPayment:
		return "Payment"
	case TxnOrderStatus:
		return "OrderStatus"
	case TxnDelivery:
		return "Delivery"
	case TxnStockLevel:
		return "StockLevel"
	default:
		return fmt.Sprintf("TPCCTxnType(%d)", int(t))
	}
}

// ErrAbortedByUser marks the spec-mandated 1% new-order rollbacks.
var ErrAbortedByUser = errors.New("tpcc: user-initiated rollback (invalid item)")

// --- key construction ---

func kWarehouse(w int) []byte      { return []byte(fmt.Sprintf("w:%04d", w)) }
func kDistrict(w, d int) []byte    { return []byte(fmt.Sprintf("d:%04d:%02d", w, d)) }
func kCustomer(w, d, c int) []byte { return []byte(fmt.Sprintf("c:%04d:%02d:%04d", w, d, c)) }
func kItem(i int) []byte           { return []byte(fmt.Sprintf("i:%06d", i)) }
func kStock(w, i int) []byte       { return []byte(fmt.Sprintf("s:%04d:%06d", w, i)) }
func kOrder(w, d, o int) []byte    { return []byte(fmt.Sprintf("o:%04d:%02d:%08d", w, d, o)) }
func kNewOrder(w, d, o int) []byte { return []byte(fmt.Sprintf("no:%04d:%02d:%08d", w, d, o)) }
func kOrderLine(w, d, o, l int) []byte {
	return []byte(fmt.Sprintf("ol:%04d:%02d:%08d:%02d", w, d, o, l))
}
func kCustIdx(w, d int, last string) []byte {
	return []byte(fmt.Sprintf("cidx:%04d:%02d:%s", w, d, last))
}

// --- row encodings (fixed little-endian layouts) ---

type warehouseRow struct {
	YTD uint64
	Tax uint32 // basis points
}

func (r warehouseRow) encode() []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint64(b, r.YTD)
	binary.LittleEndian.PutUint32(b[8:], r.Tax)
	return b
}

func decodeWarehouse(b []byte) (warehouseRow, error) {
	if len(b) < 12 {
		return warehouseRow{}, errors.New("tpcc: short warehouse row")
	}
	return warehouseRow{
		YTD: binary.LittleEndian.Uint64(b),
		Tax: binary.LittleEndian.Uint32(b[8:]),
	}, nil
}

type districtRow struct {
	YTD       uint64
	Tax       uint32
	NextOID   uint32
	NextDelvO uint32 // delivery cursor: oldest undelivered order
}

func (r districtRow) encode() []byte {
	b := make([]byte, 20)
	binary.LittleEndian.PutUint64(b, r.YTD)
	binary.LittleEndian.PutUint32(b[8:], r.Tax)
	binary.LittleEndian.PutUint32(b[12:], r.NextOID)
	binary.LittleEndian.PutUint32(b[16:], r.NextDelvO)
	return b
}

func decodeDistrict(b []byte) (districtRow, error) {
	if len(b) < 20 {
		return districtRow{}, errors.New("tpcc: short district row")
	}
	return districtRow{
		YTD:       binary.LittleEndian.Uint64(b),
		Tax:       binary.LittleEndian.Uint32(b[8:]),
		NextOID:   binary.LittleEndian.Uint32(b[12:]),
		NextDelvO: binary.LittleEndian.Uint32(b[16:]),
	}, nil
}

type customerRow struct {
	Balance     int64 // cents
	YTDPayment  uint64
	PaymentCnt  uint32
	DeliveryCnt uint32
	Last        string // last name (spec syllables)
}

func (r customerRow) encode() []byte {
	b := make([]byte, 24+2+len(r.Last))
	binary.LittleEndian.PutUint64(b, uint64(r.Balance))
	binary.LittleEndian.PutUint64(b[8:], r.YTDPayment)
	binary.LittleEndian.PutUint32(b[16:], r.PaymentCnt)
	binary.LittleEndian.PutUint32(b[20:], r.DeliveryCnt)
	binary.LittleEndian.PutUint16(b[24:], uint16(len(r.Last)))
	copy(b[26:], r.Last)
	return b
}

func decodeCustomer(b []byte) (customerRow, error) {
	if len(b) < 26 {
		return customerRow{}, errors.New("tpcc: short customer row")
	}
	n := int(binary.LittleEndian.Uint16(b[24:]))
	if len(b) < 26+n {
		return customerRow{}, errors.New("tpcc: short customer row")
	}
	return customerRow{
		Balance:     int64(binary.LittleEndian.Uint64(b)),
		YTDPayment:  binary.LittleEndian.Uint64(b[8:]),
		PaymentCnt:  binary.LittleEndian.Uint32(b[16:]),
		DeliveryCnt: binary.LittleEndian.Uint32(b[20:]),
		Last:        string(b[26 : 26+n]),
	}, nil
}

type itemRow struct {
	Price uint32 // cents
}

func (r itemRow) encode() []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, r.Price)
	return b
}

func decodeItem(b []byte) (itemRow, error) {
	if len(b) < 4 {
		return itemRow{}, errors.New("tpcc: short item row")
	}
	return itemRow{Price: binary.LittleEndian.Uint32(b)}, nil
}

type stockRow struct {
	Quantity  int32
	YTD       uint64
	OrderCnt  uint32
	RemoteCnt uint32
}

func (r stockRow) encode() []byte {
	b := make([]byte, 20)
	binary.LittleEndian.PutUint32(b, uint32(r.Quantity))
	binary.LittleEndian.PutUint64(b[4:], r.YTD)
	binary.LittleEndian.PutUint32(b[12:], r.OrderCnt)
	binary.LittleEndian.PutUint32(b[16:], r.RemoteCnt)
	return b
}

func decodeStock(b []byte) (stockRow, error) {
	if len(b) < 20 {
		return stockRow{}, errors.New("tpcc: short stock row")
	}
	return stockRow{
		Quantity:  int32(binary.LittleEndian.Uint32(b)),
		YTD:       binary.LittleEndian.Uint64(b[4:]),
		OrderCnt:  binary.LittleEndian.Uint32(b[12:]),
		RemoteCnt: binary.LittleEndian.Uint32(b[16:]),
	}, nil
}

type orderRow struct {
	CID      uint32
	Carrier  uint32 // 0 = undelivered
	OLCnt    uint32
	AllLocal bool
}

func (r orderRow) encode() []byte {
	b := make([]byte, 13)
	binary.LittleEndian.PutUint32(b, r.CID)
	binary.LittleEndian.PutUint32(b[4:], r.Carrier)
	binary.LittleEndian.PutUint32(b[8:], r.OLCnt)
	if r.AllLocal {
		b[12] = 1
	}
	return b
}

func decodeOrder(b []byte) (orderRow, error) {
	if len(b) < 13 {
		return orderRow{}, errors.New("tpcc: short order row")
	}
	return orderRow{
		CID:      binary.LittleEndian.Uint32(b),
		Carrier:  binary.LittleEndian.Uint32(b[4:]),
		OLCnt:    binary.LittleEndian.Uint32(b[8:]),
		AllLocal: b[12] == 1,
	}, nil
}

type orderLineRow struct {
	ItemID   uint32
	SupplyW  uint32
	Quantity uint32
	Amount   uint32 // cents
}

func (r orderLineRow) encode() []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint32(b, r.ItemID)
	binary.LittleEndian.PutUint32(b[4:], r.SupplyW)
	binary.LittleEndian.PutUint32(b[8:], r.Quantity)
	binary.LittleEndian.PutUint32(b[12:], r.Amount)
	return b
}

func decodeOrderLine(b []byte) (orderLineRow, error) {
	if len(b) < 16 {
		return orderLineRow{}, errors.New("tpcc: short order line")
	}
	return orderLineRow{
		ItemID:   binary.LittleEndian.Uint32(b),
		SupplyW:  binary.LittleEndian.Uint32(b[4:]),
		Quantity: binary.LittleEndian.Uint32(b[8:]),
		Amount:   binary.LittleEndian.Uint32(b[12:]),
	}, nil
}

// lastNameSyllables are the spec's name fragments.
var lastNameSyllables = []string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// lastName renders the spec's C_LAST for a number in [0, 999].
func lastName(num int) string {
	return lastNameSyllables[num/100] + lastNameSyllables[(num/10)%10] + lastNameSyllables[num%10]
}

// TPCC drives the benchmark. One instance per client (not safe for
// concurrent use).
type TPCC struct {
	cfg TPCCConfig
	rng *rand.Rand
	// cLoad is the NURand C constant (fixed at load time per spec).
	cLoad int
}

// NewTPCC creates a driver.
func NewTPCC(cfg TPCCConfig, seed int64) *TPCC {
	cfg = cfg.withDefaults()
	return &TPCC{cfg: cfg, rng: rand.New(rand.NewSource(seed)), cLoad: 123}
}

// nuRand is the spec's non-uniform random function.
func (t *TPCC) nuRand(a, x, y int) int {
	return (((t.rng.Intn(a+1) | (x + t.rng.Intn(y-x+1))) + t.cLoad) % (y - x + 1)) + x
}

// randCustomer draws a customer id with NURand(1023).
func (t *TPCC) randCustomer() int {
	n := t.cfg.CustomersPerDistrict
	if n >= 3000 {
		return t.nuRand(1023, 1, n)
	}
	return 1 + t.rng.Intn(n)
}

// randItem draws an item id with NURand(8191).
func (t *TPCC) randItem() int {
	n := t.cfg.Items
	if n >= 8192 {
		return t.nuRand(8191, 1, n)
	}
	return 1 + t.rng.Intn(n)
}

// Load populates the database through the supplied transaction factory,
// batching rows into transactions of batchSize operations.
func (t *TPCC) Load(begin Begin, batchSize int) error {
	if batchSize <= 0 {
		batchSize = 500
	}
	var tx Txn
	ops := 0
	put := func(k, v []byte) error {
		if tx == nil {
			tx = begin()
		}
		if err := tx.Put(k, v); err != nil {
			tx.Rollback()
			return err
		}
		ops++
		if ops >= batchSize {
			if err := tx.Commit(); err != nil {
				return err
			}
			tx = nil
			ops = 0
		}
		return nil
	}

	for i := 1; i <= t.cfg.Items; i++ {
		if err := put(kItem(i), itemRow{Price: uint32(100 + t.rng.Intn(9900))}.encode()); err != nil {
			return err
		}
	}
	for w := 1; w <= t.cfg.Warehouses; w++ {
		if err := put(kWarehouse(w), warehouseRow{YTD: 30000000, Tax: uint32(t.rng.Intn(2000))}.encode()); err != nil {
			return err
		}
		for i := 1; i <= t.cfg.Items; i++ {
			row := stockRow{Quantity: int32(10 + t.rng.Intn(91))}
			if err := put(kStock(w, i), row.encode()); err != nil {
				return err
			}
		}
		for d := 1; d <= t.cfg.DistrictsPerWarehouse; d++ {
			row := districtRow{YTD: 3000000, Tax: uint32(t.rng.Intn(2000)), NextOID: 1, NextDelvO: 1}
			if err := put(kDistrict(w, d), row.encode()); err != nil {
				return err
			}
			for c := 1; c <= t.cfg.CustomersPerDistrict; c++ {
				ln := lastName((c - 1) % 1000)
				cr := customerRow{Balance: -1000, Last: ln}
				if err := put(kCustomer(w, d, c), cr.encode()); err != nil {
					return err
				}
				// Last-name index: append customer id (fixed 4-byte ids).
				// Loading writes the full bucket once per (d, name) when
				// the last customer with the name arrives; to keep the
				// loader single-pass we append per customer under unique
				// suffixes instead.
				idx := make([]byte, 4)
				binary.LittleEndian.PutUint32(idx, uint32(c))
				if err := put(append(kCustIdx(w, d, ln), []byte(fmt.Sprintf(":%04d", c))...), idx); err != nil {
					return err
				}
			}
		}
	}
	if tx != nil {
		return tx.Commit()
	}
	return nil
}

// NextType draws a transaction type from the standard mix
// (45/43/4/4/4).
func (t *TPCC) NextType() TPCCTxnType {
	r := t.rng.Intn(100)
	switch {
	case r < 45:
		return TxnNewOrder
	case r < 88:
		return TxnPayment
	case r < 92:
		return TxnOrderStatus
	case r < 96:
		return TxnDelivery
	default:
		return TxnStockLevel
	}
}

// Run executes one transaction of the given type against begin, on home
// warehouse w. It returns the spec's user-initiated rollbacks as
// ErrAbortedByUser (still a successful protocol run).
func (t *TPCC) Run(begin Begin, typ TPCCTxnType, homeW int) error {
	switch typ {
	case TxnNewOrder:
		return t.newOrder(begin, homeW)
	case TxnPayment:
		return t.payment(begin, homeW)
	case TxnOrderStatus:
		return t.orderStatus(begin, homeW)
	case TxnDelivery:
		return t.delivery(begin, homeW)
	case TxnStockLevel:
		return t.stockLevel(begin, homeW)
	default:
		return fmt.Errorf("tpcc: unknown txn type %d", typ)
	}
}

// otherWarehouse picks a warehouse != w (remote touch).
func (t *TPCC) otherWarehouse(w int) int {
	if t.cfg.Warehouses == 1 {
		return w
	}
	for {
		o := 1 + t.rng.Intn(t.cfg.Warehouses)
		if o != w {
			return o
		}
	}
}

// newOrder is the TPC-C New-Order transaction: 5-15 order lines, 1% of
// lines supplied by a remote warehouse (forcing a distributed
// transaction), 1% user rollback on an invalid item.
func (t *TPCC) newOrder(begin Begin, w int) error {
	d := 1 + t.rng.Intn(t.cfg.DistrictsPerWarehouse)
	cID := t.randCustomer()
	nLines := 5 + t.rng.Intn(11)
	rollback := t.rng.Intn(100) == 0

	tx := begin()
	ok := false
	defer func() {
		if !ok {
			tx.Rollback()
		}
	}()

	wRaw, found, err := tx.Get(kWarehouse(w))
	if err != nil || !found {
		return fmt.Errorf("tpcc: warehouse %d: %w", w, errOr(err, found))
	}
	if _, err := decodeWarehouse(wRaw); err != nil {
		return err
	}
	dRaw, found, err := tx.Get(kDistrict(w, d))
	if err != nil || !found {
		return fmt.Errorf("tpcc: district: %w", errOr(err, found))
	}
	dist, err := decodeDistrict(dRaw)
	if err != nil {
		return err
	}
	if _, found, err = tx.Get(kCustomer(w, d, cID)); err != nil || !found {
		return fmt.Errorf("tpcc: customer: %w", errOr(err, found))
	}

	oID := int(dist.NextOID)
	dist.NextOID++
	if err := tx.Put(kDistrict(w, d), dist.encode()); err != nil {
		return err
	}

	allLocal := true
	var total uint64
	for l := 1; l <= nLines; l++ {
		iID := t.randItem()
		if rollback && l == nLines {
			// Spec: the last line references an unused item; the whole
			// transaction rolls back.
			return ErrAbortedByUser
		}
		supplyW := w
		if t.rng.Intn(100) == 0 {
			supplyW = t.otherWarehouse(w)
			allLocal = false
		}
		iRaw, found, err := tx.Get(kItem(iID))
		if err != nil || !found {
			return fmt.Errorf("tpcc: item %d: %w", iID, errOr(err, found))
		}
		item, err := decodeItem(iRaw)
		if err != nil {
			return err
		}
		sRaw, found, err := tx.Get(kStock(supplyW, iID))
		if err != nil || !found {
			return fmt.Errorf("tpcc: stock: %w", errOr(err, found))
		}
		stock, err := decodeStock(sRaw)
		if err != nil {
			return err
		}
		qty := int32(1 + t.rng.Intn(10))
		if stock.Quantity >= qty+10 {
			stock.Quantity -= qty
		} else {
			stock.Quantity += 91 - qty
		}
		stock.YTD += uint64(qty)
		stock.OrderCnt++
		if supplyW != w {
			stock.RemoteCnt++
		}
		if err := tx.Put(kStock(supplyW, iID), stock.encode()); err != nil {
			return err
		}
		amount := uint32(qty) * item.Price
		total += uint64(amount)
		ol := orderLineRow{ItemID: uint32(iID), SupplyW: uint32(supplyW), Quantity: uint32(qty), Amount: amount}
		if err := tx.Put(kOrderLine(w, d, oID, l), ol.encode()); err != nil {
			return err
		}
	}
	order := orderRow{CID: uint32(cID), OLCnt: uint32(nLines), AllLocal: allLocal}
	if err := tx.Put(kOrder(w, d, oID), order.encode()); err != nil {
		return err
	}
	if err := tx.Put(kNewOrder(w, d, oID), []byte{1}); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	ok = true
	return nil
}

// payment is the TPC-C Payment transaction; 15% of payments are for a
// customer of a remote warehouse.
func (t *TPCC) payment(begin Begin, w int) error {
	d := 1 + t.rng.Intn(t.cfg.DistrictsPerWarehouse)
	cW, cD := w, d
	if t.rng.Intn(100) < 15 {
		cW = t.otherWarehouse(w)
		cD = 1 + t.rng.Intn(t.cfg.DistrictsPerWarehouse)
	}
	cID := t.randCustomer()
	amount := uint64(100 + t.rng.Intn(500000))

	tx := begin()
	ok := false
	defer func() {
		if !ok {
			tx.Rollback()
		}
	}()

	wRaw, found, err := tx.Get(kWarehouse(w))
	if err != nil || !found {
		return fmt.Errorf("tpcc: warehouse: %w", errOr(err, found))
	}
	wh, err := decodeWarehouse(wRaw)
	if err != nil {
		return err
	}
	wh.YTD += amount
	if err := tx.Put(kWarehouse(w), wh.encode()); err != nil {
		return err
	}

	dRaw, found, err := tx.Get(kDistrict(w, d))
	if err != nil || !found {
		return fmt.Errorf("tpcc: district: %w", errOr(err, found))
	}
	dist, err := decodeDistrict(dRaw)
	if err != nil {
		return err
	}
	dist.YTD += amount
	if err := tx.Put(kDistrict(w, d), dist.encode()); err != nil {
		return err
	}

	cRaw, found, err := tx.Get(kCustomer(cW, cD, cID))
	if err != nil || !found {
		return fmt.Errorf("tpcc: customer: %w", errOr(err, found))
	}
	cust, err := decodeCustomer(cRaw)
	if err != nil {
		return err
	}
	cust.Balance -= int64(amount)
	cust.YTDPayment += amount
	cust.PaymentCnt++
	if err := tx.Put(kCustomer(cW, cD, cID), cust.encode()); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	ok = true
	return nil
}

// orderStatus is the read-only Order-Status transaction: the customer's
// most recent order and its lines.
func (t *TPCC) orderStatus(begin Begin, w int) error {
	d := 1 + t.rng.Intn(t.cfg.DistrictsPerWarehouse)
	cID := t.randCustomer()

	tx := begin()
	ok := false
	defer func() {
		if !ok {
			tx.Rollback()
		}
	}()

	if _, found, err := tx.Get(kCustomer(w, d, cID)); err != nil || !found {
		return fmt.Errorf("tpcc: customer: %w", errOr(err, found))
	}
	dRaw, found, err := tx.Get(kDistrict(w, d))
	if err != nil || !found {
		return fmt.Errorf("tpcc: district: %w", errOr(err, found))
	}
	dist, err := decodeDistrict(dRaw)
	if err != nil {
		return err
	}
	// Scan back for the customer's most recent order (bounded walk).
	for o := int(dist.NextOID) - 1; o >= 1 && o > int(dist.NextOID)-21; o-- {
		oRaw, found, err := tx.Get(kOrder(w, d, o))
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		order, err := decodeOrder(oRaw)
		if err != nil {
			return err
		}
		if order.CID != uint32(cID) {
			continue
		}
		for l := 1; l <= int(order.OLCnt); l++ {
			if _, _, err := tx.Get(kOrderLine(w, d, o, l)); err != nil {
				return err
			}
		}
		break
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	ok = true
	return nil
}

// delivery is the batch Delivery transaction: for every district, the
// oldest undelivered order is delivered.
func (t *TPCC) delivery(begin Begin, w int) error {
	carrier := uint32(1 + t.rng.Intn(10))
	tx := begin()
	ok := false
	defer func() {
		if !ok {
			tx.Rollback()
		}
	}()

	for d := 1; d <= t.cfg.DistrictsPerWarehouse; d++ {
		dRaw, found, err := tx.Get(kDistrict(w, d))
		if err != nil || !found {
			return fmt.Errorf("tpcc: district: %w", errOr(err, found))
		}
		dist, err := decodeDistrict(dRaw)
		if err != nil {
			return err
		}
		o := int(dist.NextDelvO)
		if o >= int(dist.NextOID) {
			continue // nothing to deliver in this district
		}
		noKey := kNewOrder(w, d, o)
		if _, found, err := tx.Get(noKey); err != nil {
			return err
		} else if !found {
			// Order was never created (user rollback); skip past it.
			dist.NextDelvO++
			if err := tx.Put(kDistrict(w, d), dist.encode()); err != nil {
				return err
			}
			continue
		}
		oRaw, found, err := tx.Get(kOrder(w, d, o))
		if err != nil || !found {
			return fmt.Errorf("tpcc: order: %w", errOr(err, found))
		}
		order, err := decodeOrder(oRaw)
		if err != nil {
			return err
		}
		order.Carrier = carrier
		if err := tx.Put(kOrder(w, d, o), order.encode()); err != nil {
			return err
		}
		var total uint64
		for l := 1; l <= int(order.OLCnt); l++ {
			olRaw, found, err := tx.Get(kOrderLine(w, d, o, l))
			if err != nil || !found {
				return fmt.Errorf("tpcc: order line: %w", errOr(err, found))
			}
			ol, err := decodeOrderLine(olRaw)
			if err != nil {
				return err
			}
			total += uint64(ol.Amount)
		}
		cRaw, found, err := tx.Get(kCustomer(w, d, int(order.CID)))
		if err != nil || !found {
			return fmt.Errorf("tpcc: customer: %w", errOr(err, found))
		}
		cust, err := decodeCustomer(cRaw)
		if err != nil {
			return err
		}
		cust.Balance += int64(total)
		cust.DeliveryCnt++
		if err := tx.Put(kCustomer(w, d, int(order.CID)), cust.encode()); err != nil {
			return err
		}
		// Remove from the new-order queue and advance the cursor.
		dist.NextDelvO++
		if err := tx.Put(kDistrict(w, d), dist.encode()); err != nil {
			return err
		}
		if err := tx.Put(noKey, []byte{0}); err != nil { // mark delivered
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	ok = true
	return nil
}

// stockLevel is the read-only Stock-Level transaction: count recent
// order lines whose stock is below a threshold.
func (t *TPCC) stockLevel(begin Begin, w int) error {
	d := 1 + t.rng.Intn(t.cfg.DistrictsPerWarehouse)
	threshold := int32(10 + t.rng.Intn(11))

	tx := begin()
	ok := false
	defer func() {
		if !ok {
			tx.Rollback()
		}
	}()

	dRaw, found, err := tx.Get(kDistrict(w, d))
	if err != nil || !found {
		return fmt.Errorf("tpcc: district: %w", errOr(err, found))
	}
	dist, err := decodeDistrict(dRaw)
	if err != nil {
		return err
	}
	low := 0
	for o := int(dist.NextOID) - 1; o >= 1 && o > int(dist.NextOID)-21; o-- {
		oRaw, found, err := tx.Get(kOrder(w, d, o))
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		order, err := decodeOrder(oRaw)
		if err != nil {
			return err
		}
		for l := 1; l <= int(order.OLCnt); l++ {
			olRaw, found, err := tx.Get(kOrderLine(w, d, o, l))
			if err != nil || !found {
				continue
			}
			ol, err := decodeOrderLine(olRaw)
			if err != nil {
				return err
			}
			sRaw, found, err := tx.Get(kStock(w, int(ol.ItemID)))
			if err != nil || !found {
				continue
			}
			stock, err := decodeStock(sRaw)
			if err != nil {
				return err
			}
			if stock.Quantity < threshold {
				low++
			}
		}
	}
	_ = low
	if err := tx.Commit(); err != nil {
		return err
	}
	ok = true
	return nil
}

// errOr builds a not-found error when err is nil.
func errOr(err error, found bool) error {
	if err != nil {
		return err
	}
	if !found {
		return errors.New("row not found")
	}
	return nil
}
