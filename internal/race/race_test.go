package race

import (
	"strings"
	"testing"

	"pctwm/internal/memmodel"
	"pctwm/internal/vclock"
)

func name(l memmodel.Loc) string { return "x" }

// clockFor builds a clock for thread t at time n, optionally covering
// other epochs.
func clockFor(t int, n int32, covers ...[2]int32) vclock.VC {
	var v vclock.VC
	v.Set(t, n)
	for _, c := range covers {
		v.Set(int(c[0]), c[1])
	}
	return v
}

// TestUnorderedNAWriteRead: a non-atomic write and a read with no
// happens-before edge race.
func TestUnorderedNAWriteRead(t *testing.T) {
	d := NewDetector(name, 8)
	if r := d.OnAccess(1, 0, 1, true, true, 1, clockFor(1, 1)); len(r) != 0 {
		t.Fatalf("first access raced: %v", r)
	}
	races := d.OnAccess(2, 1, 1, false, true, 1, clockFor(2, 1))
	if len(races) != 1 {
		t.Fatalf("expected one race, got %v", races)
	}
	r := races[0]
	if r.Prior.TID != 1 || r.Current.TID != 2 || !r.Prior.Write || r.Current.Write {
		t.Fatalf("bad race %+v", r)
	}
	if !strings.Contains(r.String(), "non-atomic write") {
		t.Fatalf("bad rendering %q", r)
	}
}

// TestHappensBeforeSuppressesRace: covering the writer's epoch removes
// the race.
func TestHappensBeforeSuppressesRace(t *testing.T) {
	d := NewDetector(name, 8)
	d.OnAccess(1, 0, 1, true, true, 3, clockFor(1, 3))
	// Reader's clock covers (1,3): ordered, no race.
	if r := d.OnAccess(2, 1, 1, false, true, 1, clockFor(2, 1, [2]int32{1, 3})); len(r) != 0 {
		t.Fatalf("ordered accesses raced: %v", r)
	}
}

// TestAtomicAccessesNeverRace: conflicting atomic accesses are not races.
func TestAtomicAccessesNeverRace(t *testing.T) {
	d := NewDetector(name, 8)
	d.OnAccess(1, 0, 1, true, false, 1, clockFor(1, 1))
	if r := d.OnAccess(2, 1, 1, true, false, 1, clockFor(2, 1)); len(r) != 0 {
		t.Fatalf("atomic/atomic raced: %v", r)
	}
}

// TestAtomicVsNonAtomicRaces: one non-atomic side suffices.
func TestAtomicVsNonAtomicRaces(t *testing.T) {
	d := NewDetector(name, 8)
	d.OnAccess(1, 0, 1, true, true, 1, clockFor(1, 1)) // na write
	if r := d.OnAccess(2, 1, 1, false, false, 1, clockFor(2, 1)); len(r) != 1 {
		t.Fatalf("atomic read vs na write should race: %v", r)
	}
}

// TestReadsDoNotRaceWithReads: two unordered reads are fine.
func TestReadsDoNotRaceWithReads(t *testing.T) {
	d := NewDetector(name, 8)
	d.OnAccess(1, 0, 1, false, true, 1, clockFor(1, 1))
	if r := d.OnAccess(2, 1, 1, false, true, 1, clockFor(2, 1)); len(r) != 0 {
		t.Fatalf("read/read raced: %v", r)
	}
}

// TestLaterAtomicWriteDoesNotMaskNAWrite: the msqueue pattern — plain
// initialization followed by the same thread's atomic update must still
// race with an unordered atomic read.
func TestLaterAtomicWriteDoesNotMaskNAWrite(t *testing.T) {
	d := NewDetector(name, 8)
	d.OnAccess(1, 0, 1, true, true, 1, clockFor(1, 1))  // na init
	d.OnAccess(1, 1, 1, true, false, 2, clockFor(1, 2)) // atomic update
	races := d.OnAccess(2, 2, 1, false, false, 1, clockFor(2, 1))
	if len(races) != 1 || !races[0].Prior.NonAtomic {
		t.Fatalf("na write masked by the atomic write: %v", races)
	}
}

// TestDistinctLocationsIndependent: accesses to different locations never
// race.
func TestDistinctLocationsIndependent(t *testing.T) {
	d := NewDetector(name, 8)
	d.OnAccess(1, 0, 1, true, true, 1, clockFor(1, 1))
	if r := d.OnAccess(2, 1, 2, true, true, 1, clockFor(2, 1)); len(r) != 0 {
		t.Fatalf("cross-location race: %v", r)
	}
}

// TestMaxRacesCap: the stored race list is bounded.
func TestMaxRacesCap(t *testing.T) {
	d := NewDetector(name, 2)
	for i := 0; i < 6; i++ {
		d.OnAccess(memmodel.ThreadID(i+1), memmodel.EventID(i), 1, true, true, 1, clockFor(i+1, 1))
	}
	if len(d.Races()) != 2 {
		t.Fatalf("cap not applied: %d races stored", len(d.Races()))
	}
}

// TestSameThreadNeverRaces: program order covers same-thread accesses.
func TestSameThreadNeverRaces(t *testing.T) {
	d := NewDetector(name, 8)
	d.OnAccess(1, 0, 1, true, true, 1, clockFor(1, 1))
	if r := d.OnAccess(1, 1, 1, true, true, 2, clockFor(1, 2)); len(r) != 0 {
		t.Fatalf("same-thread race: %v", r)
	}
}

// TestLocNameOnlyForKeptRaces: the location is named only for races the
// detector keeps; once the list is full, conflicting pairs cost no name.
func TestLocNameOnlyForKeptRaces(t *testing.T) {
	calls := 0
	d := NewDetector(func(memmodel.Loc) string { calls++; return "x" }, 2)
	for i := 0; i < 6; i++ {
		d.OnAccess(memmodel.ThreadID(i+1), memmodel.EventID(i), 1, true, true, 1, clockFor(i+1, 1))
	}
	if calls != 2 {
		t.Errorf("locName called %d times for 2 kept races", calls)
	}
	for _, r := range d.Races() {
		if r.LocName != "x" {
			t.Errorf("kept race not named: %+v", r)
		}
	}
}
