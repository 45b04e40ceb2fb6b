package qcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func key(i int) Key {
	return Key{Fingerprint: uint64(i), Canon: fmt.Sprintf("q%d", i)}
}

// TestHitMissAccounting walks the basic protocol: first lookup computes
// and counts a miss, second lookup is a hit, stats and Len agree.
func TestHitMissAccounting(t *testing.T) {
	c := New[string](4)
	v, hit, err := c.GetOrCompute(key(1), func() (string, error) { return "one", nil })
	if err != nil || hit || v != "one" {
		t.Fatalf("cold: v=%q hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompute(key(1), func() (string, error) {
		t.Fatal("recompute on a resolved entry")
		return "", nil
	})
	if err != nil || !hit || v != "one" {
		t.Fatalf("warm: v=%q hit=%v err=%v", v, hit, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

// TestLRUEviction fills past capacity and checks the least-recently-used
// entry is the one dropped, with the eviction counted.
func TestLRUEviction(t *testing.T) {
	c := New[int](2)
	for i := 0; i < 2; i++ {
		c.GetOrCompute(key(i), func() (int, error) { return i, nil })
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, hit, _ := c.GetOrCompute(key(0), func() (int, error) { return -1, nil }); !hit {
		t.Fatal("expected hit on key 0")
	}
	c.GetOrCompute(key(2), func() (int, error) { return 2, nil })
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("key 1 should have been evicted")
	}
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 (recently used) should survive")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestSingleFlight: 64 goroutines requesting the same key must trigger
// exactly one compute; exactly one caller reports the miss-that-computed,
// and joiners neither hit nor recompute.
func TestSingleFlight(t *testing.T) {
	c := New[int](8)
	var computes atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	hits := atomic.Int32{}
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.GetOrCompute(key(7), func() (int, error) {
				computes.Add(1)
				<-release // hold every other goroutine in the join path
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("v=%d err=%v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	// Let the other 63 goroutines pile up on the pending entry, then
	// release the one compute.
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	// Joining an in-flight compile is not a hit: only lookups that find a
	// resolved entry count.
	st := c.Stats()
	if uint64(hits.Load()) != st.Hits {
		t.Fatalf("reported hits %d != counted hits %d", hits.Load(), st.Hits)
	}
	if st.Hits+st.Misses != 64 {
		t.Fatalf("hits+misses = %d, want 64", st.Hits+st.Misses)
	}
}

// TestErrorsNotCached: a failed compute leaves no entry behind, and the
// next request retries.
func TestErrorsNotCached(t *testing.T) {
	c := New[int](4)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(key(3), func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed compute left %d entries", c.Len())
	}
	v, hit, err := c.GetOrCompute(key(3), func() (int, error) { return 9, nil })
	if err != nil || hit || v != 9 {
		t.Fatalf("retry: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestInvalidate removes matching resolved entries and counts them; a
// pending entry is dropped on publish instead (never visible stale).
func TestInvalidate(t *testing.T) {
	c := New[int](8)
	for i := 0; i < 4; i++ {
		c.GetOrCompute(key(i), func() (int, error) { return i, nil })
	}
	n := c.Invalidate(func(k Key) bool { return k.Fingerprint%2 == 0 })
	if n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if st := c.Stats(); st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", st.Invalidations)
	}
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("key 0 should be gone")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("key 1 should survive")
	}
}

// TestInvalidatePending: invalidating while a compute is in flight must
// prevent the stale result from being published, without disturbing the
// value returned to the in-flight callers.
func TestInvalidatePending(t *testing.T) {
	c := New[int](8)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, hit, err := c.GetOrCompute(key(5), func() (int, error) {
			close(started)
			<-release
			return 5, nil
		})
		if err != nil || hit || v != 5 {
			t.Errorf("in-flight caller: v=%d hit=%v err=%v", v, hit, err)
		}
	}()
	<-started
	// Invalidate while pending: not counted (nothing resolved to remove),
	// but the publish must be suppressed.
	if n := c.Invalidate(func(k Key) bool { return true }); n != 0 {
		t.Fatalf("pending invalidation counted %d entries", n)
	}
	close(release)
	<-done
	if _, ok := c.Get(key(5)); ok {
		t.Fatal("dropped pending entry was published anyway")
	}
	// The key computes fresh on the next request.
	v, hit, err := c.GetOrCompute(key(5), func() (int, error) { return 55, nil })
	if err != nil || hit || v != 55 {
		t.Fatalf("post-drop recompute: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestConcurrentMixedTraffic hammers the cache from many goroutines with
// overlapping keys, plain gets, single-flight computes and invalidations;
// run under -race this is the memory-safety gate, and the accounting must
// still balance.
func TestConcurrentMixedTraffic(t *testing.T) {
	c := New[int](8)
	var wg sync.WaitGroup
	const G = 16
	const N = 200
	var lookups atomic.Uint64
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				k := key((g + i) % 12)
				switch i % 7 {
				case 3:
					if v, ok := c.Get(k); ok && v != int(k.Fingerprint) {
						t.Errorf("Get(%d) = %d", k.Fingerprint, v)
					}
					lookups.Add(1)
				case 5:
					c.Invalidate(func(q Key) bool { return q == k })
				default:
					v, _, err := c.GetOrCompute(k, func() (int, error) { return int(k.Fingerprint), nil })
					lookups.Add(1)
					if err != nil {
						t.Errorf("GetOrCompute: %v", err)
					}
					_ = v
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != lookups.Load() {
		t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, lookups.Load())
	}
	if c.Len() > 8 {
		t.Fatalf("len %d exceeds capacity", c.Len())
	}
}
