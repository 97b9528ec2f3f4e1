package workload

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"treaty/internal/lsm"
	"treaty/internal/seal"
	"treaty/internal/txn"
)

func TestYCSBDefaults(t *testing.T) {
	y := NewYCSB(YCSBConfig{ReadRatio: 0.5}, 1)
	ops := y.NextTxn()
	if len(ops) != 10 {
		t.Errorf("ops/txn = %d, want 10", len(ops))
	}
	for _, op := range ops {
		if !op.Read && len(op.Value) != 1000 {
			t.Errorf("value size = %d, want 1000", len(op.Value))
		}
		if op.Read && op.Value != nil {
			t.Error("reads must carry no value")
		}
	}
}

func TestYCSBReadRatio(t *testing.T) {
	for _, ratio := range []float64{0.2, 0.8} {
		y := NewYCSB(YCSBConfig{ReadRatio: ratio, OpsPerTxn: 10}, 42)
		reads := 0
		total := 0
		for i := 0; i < 500; i++ {
			for _, op := range y.NextTxn() {
				total++
				if op.Read {
					reads++
				}
			}
		}
		got := float64(reads) / float64(total)
		if got < ratio-0.05 || got > ratio+0.05 {
			t.Errorf("read fraction = %.3f, want ~%.2f", got, ratio)
		}
	}
}

func TestYCSBKeysInRange(t *testing.T) {
	y := NewYCSB(YCSBConfig{ReadRatio: 0.5, Keys: 100}, 7)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		for _, op := range y.NextTxn() {
			seen[string(op.Key)] = true
		}
	}
	if len(seen) > 100 {
		t.Errorf("%d distinct keys generated, want <= 100", len(seen))
	}
	keys, _ := y.LoadKeys()
	if len(keys) != 100 {
		t.Errorf("LoadKeys returned %d", len(keys))
	}
}

func TestZipfianSkew(t *testing.T) {
	y := NewYCSB(YCSBConfig{ReadRatio: 1, Keys: 1000, Zipfian: true}, 3)
	counts := map[string]int{}
	const draws = 20000
	for i := 0; i < draws/10; i++ {
		for _, op := range y.NextTxn() {
			counts[string(op.Key)]++
		}
	}
	// The hottest key must be drawn far more often than uniform (1/1000).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/draws < 0.02 {
		t.Errorf("hottest key got %.4f of draws; zipfian should be > 0.02", float64(max)/draws)
	}
}

func TestLastName(t *testing.T) {
	if lastName(0) != "BARBARBAR" {
		t.Errorf("lastName(0) = %s", lastName(0))
	}
	if lastName(371) != "PRICALLYOUGHT" {
		t.Errorf("lastName(371) = %s", lastName(371))
	}
	if lastName(999) != "EINGEINGEING" {
		t.Errorf("lastName(999) = %s", lastName(999))
	}
}

// miniTPCC is a small-but-structurally-faithful configuration for tests.
func miniTPCC() TPCCConfig {
	return TPCCConfig{
		Warehouses:            2,
		DistrictsPerWarehouse: 2,
		CustomersPerDistrict:  10,
		Items:                 50,
	}
}

// localBegin adapts a txn.Manager to the workload Txn interface.
func localBegin(m *txn.Manager) Begin {
	return func() Txn { return m.BeginPessimistic(nil) }
}

func newTestManager(t *testing.T) *txn.Manager {
	t.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	db, err := lsm.Open(lsm.Options{Dir: t.TempDir(), Level: seal.LevelEncrypted, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return txn.NewManager(txn.Config{DB: db, LockTimeout: 2 * time.Second})
}

func TestTPCCLoadAndRun(t *testing.T) {
	m := newTestManager(t)
	driver := NewTPCC(miniTPCC(), 17)
	if err := driver.Load(localBegin(m), 200); err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Every warehouse/district/customer row must exist.
	check := m.BeginPessimistic(nil)
	for w := 1; w <= 2; w++ {
		if _, found, err := check.Get(kWarehouse(w)); err != nil || !found {
			t.Fatalf("warehouse %d: %v %v", w, found, err)
		}
		for d := 1; d <= 2; d++ {
			if _, found, err := check.Get(kDistrict(w, d)); err != nil || !found {
				t.Fatalf("district %d/%d: %v %v", w, d, found, err)
			}
		}
	}
	check.Rollback()

	// Run a mixed stream; all five types must succeed.
	ran := map[TPCCTxnType]int{}
	for i := 0; i < 200; i++ {
		typ := driver.NextType()
		err := driver.Run(localBegin(m), typ, 1+i%2)
		if err != nil && !errors.Is(err, ErrAbortedByUser) {
			t.Fatalf("%v: %v", typ, err)
		}
		ran[typ]++
	}
	for _, typ := range []TPCCTxnType{TxnNewOrder, TxnPayment, TxnOrderStatus, TxnDelivery, TxnStockLevel} {
		if ran[typ] == 0 {
			t.Errorf("type %v never ran in 200 draws", typ)
		}
	}
	if fmt.Sprint(TxnNewOrder) != "NewOrder" {
		t.Error("TPCC txn label")
	}
}

func TestTPCCNewOrderAdvancesOrderID(t *testing.T) {
	m := newTestManager(t)
	driver := NewTPCC(miniTPCC(), 5)
	if err := driver.Load(localBegin(m), 200); err != nil {
		t.Fatal(err)
	}
	readNextOID := func(w, d int) uint32 {
		tx := m.BeginPessimistic(nil)
		defer tx.Rollback()
		raw, found, err := tx.Get(kDistrict(w, d))
		if err != nil || !found {
			t.Fatalf("district: %v %v", found, err)
		}
		dist, err := decodeDistrict(raw)
		if err != nil {
			t.Fatal(err)
		}
		return dist.NextOID
	}
	var before uint32 = readNextOID(1, 1) + readNextOID(1, 2)
	orders := 0
	for i := 0; i < 40; i++ {
		err := driver.Run(localBegin(m), TxnNewOrder, 1)
		if errors.Is(err, ErrAbortedByUser) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		orders++
	}
	after := readNextOID(1, 1) + readNextOID(1, 2)
	if int(after-before) != orders {
		t.Errorf("NextOID advanced %d, want %d", after-before, orders)
	}
}

func TestTPCCPaymentMovesMoney(t *testing.T) {
	m := newTestManager(t)
	driver := NewTPCC(miniTPCC(), 9)
	if err := driver.Load(localBegin(m), 200); err != nil {
		t.Fatal(err)
	}
	readYTD := func(w int) uint64 {
		tx := m.BeginPessimistic(nil)
		defer tx.Rollback()
		raw, _, _ := tx.Get(kWarehouse(w))
		wh, err := decodeWarehouse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return wh.YTD
	}
	before := readYTD(1)
	for i := 0; i < 10; i++ {
		if err := driver.Run(localBegin(m), TxnPayment, 1); err != nil {
			t.Fatal(err)
		}
	}
	if readYTD(1) <= before {
		t.Error("warehouse YTD must grow with payments")
	}
}

func TestTPCCDeliveryConsumesNewOrders(t *testing.T) {
	m := newTestManager(t)
	driver := NewTPCC(miniTPCC(), 13)
	if err := driver.Load(localBegin(m), 200); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		err := driver.Run(localBegin(m), TxnNewOrder, 1)
		if err != nil && !errors.Is(err, ErrAbortedByUser) {
			t.Fatal(err)
		}
	}
	if err := driver.Run(localBegin(m), TxnDelivery, 1); err != nil {
		t.Fatal(err)
	}
	// After delivery, district 1's delivery cursor must have advanced.
	tx := m.BeginPessimistic(nil)
	defer tx.Rollback()
	raw, _, _ := tx.Get(kDistrict(1, 1))
	dist, err := decodeDistrict(raw)
	if err != nil {
		t.Fatal(err)
	}
	if dist.NextDelvO == 1 && dist.NextOID > 1 {
		t.Error("delivery cursor did not advance")
	}
}

func TestRowCodecsRoundTrip(t *testing.T) {
	w := warehouseRow{YTD: 123456, Tax: 1999}
	if got, err := decodeWarehouse(w.encode()); err != nil || got != w {
		t.Errorf("warehouse: %+v %v", got, err)
	}
	d := districtRow{YTD: 9, Tax: 8, NextOID: 7, NextDelvO: 6}
	if got, err := decodeDistrict(d.encode()); err != nil || got != d {
		t.Errorf("district: %+v %v", got, err)
	}
	c := customerRow{Balance: -55, YTDPayment: 44, PaymentCnt: 3, DeliveryCnt: 2, Last: "BARBARBAR"}
	if got, err := decodeCustomer(c.encode()); err != nil || got != c {
		t.Errorf("customer: %+v %v", got, err)
	}
	s := stockRow{Quantity: -5, YTD: 10, OrderCnt: 2, RemoteCnt: 1}
	if got, err := decodeStock(s.encode()); err != nil || got != s {
		t.Errorf("stock: %+v %v", got, err)
	}
	o := orderRow{CID: 1, Carrier: 2, OLCnt: 3, AllLocal: true}
	if got, err := decodeOrder(o.encode()); err != nil || got != o {
		t.Errorf("order: %+v %v", got, err)
	}
	ol := orderLineRow{ItemID: 1, SupplyW: 2, Quantity: 3, Amount: 4}
	if got, err := decodeOrderLine(ol.encode()); err != nil || got != ol {
		t.Errorf("orderline: %+v %v", got, err)
	}
	// Truncated rows error.
	if _, err := decodeCustomer([]byte{1, 2, 3}); err == nil {
		t.Error("short customer row must fail")
	}
}

func TestBankTransfers(t *testing.T) {
	b := NewBank(BankConfig{Accounts: 8, MaxAmount: 5}, 42)
	for i := 0; i < 1000; i++ {
		tr := b.Next()
		if tr.From == tr.To {
			t.Fatal("self-transfer generated")
		}
		if tr.From < 0 || tr.From >= 8 || tr.To < 0 || tr.To >= 8 {
			t.Fatalf("account out of range: %+v", tr)
		}
		if tr.Amount < 1 || tr.Amount > 5 {
			t.Fatalf("amount out of range: %+v", tr)
		}
	}
}

func TestBankDeterministic(t *testing.T) {
	a := NewBank(BankConfig{}, 7)
	b := NewBank(BankConfig{}, 7)
	for i := 0; i < 100; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, x, y)
		}
		if a.Intn(10) != b.Intn(10) {
			t.Fatalf("auxiliary RNG diverged at %d", i)
		}
	}
	if NewBank(BankConfig{}, 7).Next() == NewBank(BankConfig{}, 8).Next() {
		t.Log("different seeds produced equal first transfers (possible, but suspicious)")
	}
	if got := string(BankAccountKey(3)); got != "bank/acct/0003" {
		t.Fatalf("account key = %q", got)
	}
	if got := string(BankWorkerKey(2)); got != "bank/worker/2" {
		t.Fatalf("worker key = %q", got)
	}
}
