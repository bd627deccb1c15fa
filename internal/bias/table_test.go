package bias

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNewTableValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 100, 4095} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%d) did not panic", bad)
				}
			}()
			NewTable(bad)
		}()
	}
	if got := NewTable(8).Size(); got != 8 {
		t.Errorf("Size = %d, want 8", got)
	}
}

func TestNewTable2DValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 256}, {3, 256}, {4, 0}, {4, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable2D(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			NewTable2D(bad[0], bad[1])
		}()
	}
	tab := NewTable2D(4, 256)
	if !tab.Sectored() || tab.Size() != 1024 {
		t.Errorf("2D table misconfigured: sectored=%v size=%d", tab.Sectored(), tab.Size())
	}
}

func TestSharedTableGeometry(t *testing.T) {
	tab := SharedTable()
	rows := DefaultTableSize / DefaultRowLen
	if tab.Size() != DefaultTableSize {
		t.Fatalf("shared table has %d slots, want %d (paper §3)", tab.Size(), DefaultTableSize)
	}
	if !tab.Sectored() || int(tab.rows) != rows || tab.rowLen != DefaultRowLen {
		t.Fatalf("shared table geometry %dx%d (sectored=%v), want BRAVO-2D %dx%d",
			tab.rows, tab.rowLen, tab.Sectored(), rows, DefaultRowLen)
	}
	// A revocation on a default-table engine scans one column, not the
	// table.
	e, st := biasedEngine(t, onShared)
	e.Revoke()
	if got := st.RevokeScanned.Load(); got != uint64(rows) {
		t.Fatalf("revocation scanned %d slots, want one column of %d", got, rows)
	}
}

// onShared points a test engine at the process-wide default table.
func onShared(e *Engine) { e.SetTable(SharedTable()) }

// sameRowIDs returns two reader identities that the shared table places
// in one row. A lock's column is fixed, so the two then share that lock's
// slot.
func sameRowIDs(t *testing.T, lockID uintptr) (a, b uint64) {
	t.Helper()
	tab := SharedTable()
	home := tab.Index(lockID, 1)
	for id := uint64(2); id < 1<<12; id++ {
		if tab.Index(lockID, id) == home {
			return 1, id
		}
	}
	t.Fatal("no identity shares a row with identity 1")
	return 0, 0
}

// TestSharedTableRowmatesCollide pins how two handles whose identities
// hash to one row share a lock: the second diverts, stays diverted for the
// rest of the bias epoch even once the slot is free, and gets its home
// slot back after a revoke and re-enable.
func TestSharedTableRowmatesCollide(t *testing.T) {
	e, st := biasedEngine(t, onShared)
	a, b := sameRowIDs(t, e.ID())
	r1, r2 := NewReaderWithID(a), NewReaderWithID(b)
	home := SharedTable().Index(e.ID(), b)

	tok1, ok := e.TryFastH(r1)
	if !ok || tok1.Index() != home {
		t.Fatalf("first handle: ok=%v slot=%d, want fast at %d", ok, tok1.Index(), home)
	}
	if _, ok := e.TryFastH(r2); ok {
		t.Fatal("rowmate published into an occupied slot")
	}
	if _, diverted, _ := r2.CachedSlot(e); !diverted {
		t.Fatal("colliding handle did not divert")
	}
	e.ReleaseFastAt(r1, tok1)
	if _, ok := e.TryFastH(r2); ok {
		t.Fatal("diverted handle retried its home slot within the same bias epoch")
	}

	e.Revoke()
	e.MaybeEnable()
	tok2, ok := e.TryFastH(r2)
	if !ok || tok2.Index() != home {
		t.Fatalf("after re-enable: ok=%v slot=%d, want fast at home %d", ok, tok2.Index(), home)
	}
	e.ReleaseFastAt(r2, tok2)
	if n := st.SlowCollision.Load(); n != 2 {
		t.Fatalf("collisions = %d, want 2: %s", n, st.Snapshot())
	}
	if SharedTable().Load(home) != 0 {
		t.Fatal("shared slot left occupied")
	}
}

// TestSharedTableStaleTokenPanicsAfterRowmateRepublishes is the generation
// guard on the 2D layout: a released token replayed after a rowmate has
// published the same lock in the same slot must still panic in ClearOwned,
// and the rowmate's live token must still release.
func TestSharedTableStaleTokenPanicsAfterRowmateRepublishes(t *testing.T) {
	e, _ := biasedEngine(t, onShared)
	a, b := sameRowIDs(t, e.ID())
	stale, ok := e.TryFast(a)
	if !ok {
		t.Fatal("first publication failed")
	}
	e.ClearFast(stale)
	live, ok := e.TryFast(b)
	if !ok || live.Index() != stale.Index() {
		t.Fatalf("rowmate: ok=%v slot=%d, want slot %d", ok, live.Index(), stale.Index())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("stale token released a slot its rowmate republished")
			}
		}()
		e.ClearFast(stale)
	}()
	e.ClearFast(live)
	if SharedTable().Load(live.Index()) != 0 {
		t.Fatal("live token did not release its slot")
	}
}

func TestPublishClearRoundTrip(t *testing.T) {
	tab := NewTable(64)
	id := uintptr(0xdeadbeef0)
	idx := tab.Index(id, 42)
	gen, ok := tab.TryPublishAt(idx, id)
	if !ok {
		t.Fatal("publish into empty slot failed")
	}
	if tab.Load(idx) != id {
		t.Fatal("slot does not hold the published identity")
	}
	if _, ok := tab.TryPublishAt(idx, 0xabc0); ok {
		t.Fatal("publish into occupied slot succeeded (collision must fail)")
	}
	tab.ClearOwned(idx, gen, id)
	if tab.Load(idx) != 0 {
		t.Fatal("slot not cleared by owned clear")
	}
	if _, ok := tab.TryPublishAt(idx, id); !ok {
		t.Fatal("republish after owned clear failed")
	}
	tab.Clear(idx)
	if tab.Load(idx) != 0 {
		t.Fatal("slot not cleared")
	}
	if tab.Occupancy() != 0 {
		t.Fatal("occupancy nonzero after clear")
	}
}

func TestIndexInBounds(t *testing.T) {
	tab1 := NewTable(4096)
	tab2 := NewTable2D(64, 256)
	f := func(lock uint64, self uint64) bool {
		a := tab1.Index(uintptr(lock), self)
		b := tab1.Index2(uintptr(lock), self)
		c := tab2.Index(uintptr(lock), self)
		d := tab2.Index2(uintptr(lock), self)
		return a < 4096 && b < 4096 && c < 64*256 && d < 64*256
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func Test2DColumnFixedPerLock(t *testing.T) {
	// BRAVO-2D's revocation scans one column, so every identity must map a
	// given lock to the same column regardless of the thread.
	tab := NewTable2D(16, 256)
	lock := uintptr(0xc000001230)
	col := tab.Index(lock, 0) % tab.rowLen
	f := func(self uint64) bool {
		return tab.Index(lock, self)%tab.rowLen == col &&
			tab.Index2(lock, self)%tab.rowLen == col
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func Test2DRowSelectedByThread(t *testing.T) {
	// Distinct thread identities should spread over rows.
	tab := NewTable2D(16, 256)
	lock := uintptr(0xc000001230)
	rows := map[uint32]bool{}
	for id := uint64(0); id < 64; id++ {
		rows[tab.Index(lock, id)/tab.rowLen] = true
	}
	if len(rows) < 8 {
		t.Errorf("64 identities hit only %d/16 rows", len(rows))
	}
}

func TestWaitEmptyScanCounts(t *testing.T) {
	tab := NewTable(256)
	scanned, conflicts := tab.WaitEmpty(uintptr(0x1230))
	if scanned != 256 || conflicts != 0 {
		t.Fatalf("1D empty scan: scanned=%d conflicts=%d, want 256, 0", scanned, conflicts)
	}
	tab2 := NewTable2D(8, 32)
	scanned, conflicts = tab2.WaitEmpty(uintptr(0x1230))
	if scanned != 8 || conflicts != 0 {
		t.Fatalf("2D empty scan: scanned=%d conflicts=%d, want 8 (one per row), 0", scanned, conflicts)
	}
}

func TestWaitEmptyAwaitsConflicts(t *testing.T) {
	tab := NewTable(64)
	id := uintptr(0x5550)
	idx := tab.Index(id, 7)
	if _, ok := tab.TryPublishAt(idx, id); !ok {
		t.Fatal("publish failed")
	}
	done := make(chan int)
	go func() {
		_, conflicts := tab.WaitEmpty(id)
		done <- conflicts
	}()
	// Give the scanner time to reach the occupied slot and block on it.
	time.Sleep(30 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("waitEmpty returned while a reader was published")
	default:
	}
	tab.Clear(idx)
	if conflicts := <-done; conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", conflicts)
	}
}

func TestWaitEmptyIgnoresOtherLocks(t *testing.T) {
	tab := NewTable(64)
	other := uintptr(0x7770)
	if _, ok := tab.TryPublishAt(3, other); !ok {
		t.Fatal("publish failed")
	}
	scanned, conflicts := tab.WaitEmpty(uintptr(0x5550))
	if scanned != 64 || conflicts != 0 {
		t.Fatalf("scan over foreign entries: scanned=%d conflicts=%d", scanned, conflicts)
	}
	tab.Clear(3)
}

func TestOccupancyCountsDistinctSlots(t *testing.T) {
	tab := NewTable(64)
	tab.TryPublishAt(1, 0x10)
	tab.TryPublishAt(5, 0x20)
	tab.TryPublishAt(9, 0x10) // same lock in two slots (two fast readers)
	if got := tab.Occupancy(); got != 3 {
		t.Fatalf("occupancy = %d, want 3", got)
	}
}
