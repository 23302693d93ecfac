package par

import "sync"

// Locked holds a value that only Do can reach: Do locks, runs its
// callback on the value and unlocks with defer, so no exit of the
// callback — a return, an error or a panic — leaves the value held,
// and code that reads or writes the value without the lock does not
// compile. The zero Locked holds the zero T, unlocked. It must not be
// copied after first use.
type Locked[T any] struct {
	mu sync.Mutex
	v  T
}

// Do locks l, runs f on its value and unlocks when f returns or
// panics, returning f's error. f must not retain the pointer after it
// returns, and must not call Do on the same Locked: it would deadlock.
func (l *Locked[T]) Do(f func(*T) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return f(&l.v)
}
