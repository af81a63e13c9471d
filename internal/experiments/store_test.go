package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/store"
)

// TestTable2StoreRegimes is the evaluation-level bit-identity contract
// of the artifact store: the full Table 2 experiment (the exhaustive
// 81-design grid plus Algorithm 1) must render byte-identical output
// with the store disabled, cold, warm, and half-corrupted on disk. A
// corrupt store may cost rebuilds — it must never change a result.
func TestTable2StoreRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 is slow")
	}
	dir := t.TempDir()
	detach := func() {
		kernel.AttachStore(nil)
		energy.AttachStore(nil)
		kernel.DropCaches()
		energy.DropCaches()
	}
	detach()
	t.Cleanup(detach)

	s, err := NewSetup(1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	table2 := func() string {
		r, err := s.Table2(15)
		if err != nil {
			t.Fatal(err)
		}
		return s.FormatTable2(r)
	}

	// Regime 1: store disabled — the golden trace.
	ref := table2()

	// Regime 2: cold store — identical output, artifacts published.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	kernel.DropCaches()
	energy.DropCaches()
	kernel.AttachStore(st)
	energy.AttachStore(st)
	if out := table2(); out != ref {
		t.Fatal("cold-store Table 2 output differs from store-off run")
	}
	if st.Stats().Puts == 0 {
		t.Fatalf("cold run published nothing: %+v", st.Stats())
	}

	// Regime 3: warm store — identical output, served from disk.
	kernel.DropCaches()
	energy.DropCaches()
	kernel.AttachStore(st)
	energy.AttachStore(st)
	if out := table2(); out != ref {
		t.Fatal("warm-store Table 2 output differs from store-off run")
	}
	if st.Stats().Hits == 0 {
		t.Fatalf("warm run hit nothing: %+v", st.Stats())
	}

	// Regime 4: half the blobs bit-flipped, one truncated — identical
	// output, corruption detected and quarantined, the rest still served.
	ents, err := os.ReadDir(st.BlobDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 4 {
		t.Fatalf("only %d blobs on disk; corruption regime needs more", len(ents))
	}
	for i, e := range ents {
		p := filepath.Join(st.BlobDir(), e.Name())
		if i%2 != 0 {
			continue
		}
		if i == 0 {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xa5
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	kernel.DropCaches()
	energy.DropCaches()
	kernel.AttachStore(st2)
	energy.AttachStore(st2)
	if out := table2(); out != ref {
		t.Fatal("half-corrupted-store Table 2 output differs from store-off run")
	}
	stats := st2.Stats()
	if stats.Corrupt == 0 {
		t.Fatalf("no corruption detected in the mangled store: %+v", stats)
	}
	if stats.Hits == 0 {
		t.Fatalf("surviving blobs not served: %+v", stats)
	}
}
