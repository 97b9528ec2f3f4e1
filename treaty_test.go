package treaty

import (
	"fmt"
	"testing"
)

// The facade test exercises the public API exactly as the README's
// quick-start does.
func TestPublicAPIQuickstart(t *testing.T) {
	cluster, err := NewCluster(ClusterOptions{
		Nodes:   3,
		Mode:    ModeSconeEncStab,
		BaseDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cluster.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()

	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tx, err := client.BeginTxn()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := tx.TxnPut([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, found, err := tx.TxnGet([]byte("key-3"))
	if err != nil || !found || string(v) != "value-3" {
		t.Fatalf("TxnGet = %q/%v/%v", v, found, err)
	}
	if err := tx.TxnCommit(); err != nil {
		t.Fatal(err)
	}

	tx2, err := client.BeginTxn()
	if err != nil {
		t.Fatal(err)
	}
	v, found, err = tx2.TxnGet([]byte("key-5"))
	if err != nil || !found || string(v) != "value-5" {
		t.Fatalf("after commit: %q/%v/%v", v, found, err)
	}
	if err := tx2.TxnRollback(); err != nil {
		t.Fatal(err)
	}
}

func TestModeLabels(t *testing.T) {
	want := map[SecurityMode]string{
		ModeRocksDB:      "RocksDB",
		ModeSconeEncStab: "Treaty w/ Enc w/ Stab",
	}
	for mode, label := range want {
		if mode.String() != label {
			t.Errorf("%d label = %q, want %q", mode, mode.String(), label)
		}
	}
}
