package exp

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightOneLeader: concurrent callers of one key run fn once, and every
// waiter shares the leader's value.
func TestFlightOneLeader(t *testing.T) {
	var f flight[int]
	var runs atomic.Int64
	release := make(chan struct{})
	fn := func() (int, error) {
		runs.Add(1)
		<-release
		return 42, nil
	}
	const callers = 8
	var wg sync.WaitGroup
	var sharers atomic.Int64
	vals := make([]int, callers)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := f.do(context.Background(), "k", fn)
			if err != nil {
				t.Error(err)
			}
			if shared {
				sharers.Add(1)
			}
			vals[i] = v
		}(i)
	}
	for !f.has("k") {
		time.Sleep(time.Millisecond)
	}
	// Give the callers time to park on the entry; one arriving after the
	// leader finishes replays the outcome instead, with the same result.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if n := sharers.Load(); n != callers-1 {
		t.Fatalf("%d callers shared the outcome, want %d", n, callers-1)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
	// A later caller replays the memoized outcome without running fn.
	if v, shared, _ := f.do(context.Background(), "k", fn); v != 42 || !shared || runs.Load() != 1 {
		t.Fatalf("replay = %d (shared %v), runs %d", v, shared, runs.Load())
	}
}

// TestFlightEvictsCancellation: a cancellation outcome is not memoized, so
// the next caller recomputes.
func TestFlightEvictsCancellation(t *testing.T) {
	var f flight[int]
	_, _, err := f.do(context.Background(), "k", func() (int, error) {
		return 0, context.Canceled
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if f.has("k") {
		t.Fatal("cancellation outcome stayed memoized")
	}
	v, shared, err := f.do(context.Background(), "k", func() (int, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Fatalf("recompute = %d, shared %v, err %v", v, shared, err)
	}
}

// TestFlightMemoizesErrors: an error other than cancellation stays
// memoized; later callers share it without running fn.
func TestFlightMemoizesErrors(t *testing.T) {
	var f flight[int]
	boom := errors.New("boom")
	if _, _, err := f.do(context.Background(), "k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("leader err = %v", err)
	}
	_, shared, err := f.do(context.Background(), "k", func() (int, error) {
		t.Fatal("fn reran for a memoized error")
		return 0, nil
	})
	if err != boom || !shared {
		t.Fatalf("replay err = %v (shared %v), want the memoized error", err, shared)
	}
}

// TestFlightWaiterCancel: a waiter whose own ctx ends returns its ctx error
// and leaves the leader's entry intact.
func TestFlightWaiterCancel(t *testing.T) {
	var f flight[int]
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		f.do(context.Background(), "k", func() (int, error) {
			<-release
			return 9, nil
		})
	}()
	for !f.has("k") {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, shared, err := f.do(ctx, "k", nil); err != context.Canceled || !shared {
		t.Fatalf("canceled waiter = err %v, shared %v", err, shared)
	}
	if !f.has("k") {
		t.Fatal("a waiter's cancel evicted the leader's entry")
	}
	close(release)
	<-leaderDone
	if v, shared, err := f.do(context.Background(), "k", nil); v != 9 || !shared || err != nil {
		t.Fatalf("after the waiter's cancel: %d, shared %v, err %v", v, shared, err)
	}
}

// TestFlightPanicReleasesWaiters: a panicking leader releases its waiters
// with an error naming the key and the panic.
func TestFlightPanicReleasesWaiters(t *testing.T) {
	var f flight[int]
	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := f.do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
		leaderErr <- err
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := f.do(context.Background(), "k", nil)
		waiterErr <- err
	}()
	// Give the waiter time to park; arriving after the panic, it replays
	// the memoized panic error instead, which the checks below accept too.
	time.Sleep(20 * time.Millisecond)
	close(release)
	for _, ch := range []chan error{leaderErr, waiterErr} {
		select {
		case err := <-ch:
			if err == nil || !strings.Contains(err.Error(), "exp: k: panic: kaboom") {
				t.Fatalf("err = %v, want the contained panic", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a panicking leader left a caller blocked")
		}
	}
}
