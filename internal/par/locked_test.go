package par

import (
	"errors"
	"testing"
)

// TestLockedDoReleasesOnEveryExit pins the scoped lock: whether f
// returns normally, returns an error or panics, Do hands f the value
// and leaves l unlocked. TryLock makes a missing unlock fail here
// instead of hanging.
func TestLockedDoReleasesOnEveryExit(t *testing.T) {
	var l Locked[int]
	boom := errors.New("boom")
	exits := []struct {
		name string
		f    func(*int) error
		want error
	}{
		{"return", func(v *int) error { *v++; return nil }, nil},
		{"error", func(v *int) error { *v++; return boom }, boom},
		{"panic", func(v *int) error { *v++; panic(boom) }, boom},
	}
	for i, e := range exits {
		var got error
		func() {
			defer func() {
				if r := recover(); r != nil {
					got = r.(error)
				}
			}()
			got = l.Do(e.f)
		}()
		if got != e.want {
			t.Errorf("%s exit: Do gave %v, want %v", e.name, got, e.want)
		}
		// Either TryLock took the lock or the exit leaked it; unlocking
		// covers both, so one failure does not hang the next exit.
		leaked := !l.mu.TryLock()
		l.mu.Unlock()
		if leaked {
			t.Errorf("%s exit left the value locked", e.name)
		}
		if l.v != i+1 {
			t.Errorf("%s exit: value %d, want %d (f must run on the held value)", e.name, l.v, i+1)
		}
	}
}
