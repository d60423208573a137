package guard

// Admission-gate tests: bounded queueing, typed shedding, drain
// semantics, and the CodeOf classification the protocol layers rely on.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestGateFastPathAndShed(t *testing.T) {
	g := NewGate(2, 1)

	r1, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := g.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Third acquirer queues (capacity 1); a fourth must shed typed.
	queued := make(chan error, 1)
	go func() {
		r, err := g.Acquire(context.Background())
		if err == nil {
			defer r()
		}
		queued <- err
	}()
	waitFor(t, func() bool { return g.Queued() == 1 })

	if _, err := g.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue acquire: got %v, want ErrOverloaded", err)
	}

	r1() // frees a slot; the queued acquirer takes it
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	r2()
	// Double release must be a no-op.
	r2()
	waitFor(t, func() bool { return g.InFlight() == 0 })
}

func TestGateQueuedCallerContextExpiry(t *testing.T) {
	g := NewGate(1, 4)
	r, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer r()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued caller with expired deadline: got %v, want ErrDeadline", err)
	}
	if got := g.Queued(); got != 0 {
		t.Fatalf("Queued after expiry = %d, want 0", got)
	}
}

func TestGateDrain(t *testing.T) {
	g := NewGate(1, 4)
	r, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// A queued waiter must be refused when the drain starts.
	queued := make(chan error, 1)
	go func() {
		_, err := g.Acquire(context.Background())
		queued <- err
	}()
	waitFor(t, func() bool { return g.Queued() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- g.Drain(context.Background()) }()
	waitFor(t, func() bool { return g.Draining() })

	if err := <-queued; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued acquire during drain: got %v, want ErrDraining", err)
	}
	if _, err := g.Acquire(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("new acquire during drain: got %v, want ErrDraining", err)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with work still in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	r()
	if err := <-drained; err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", got)
	}
	// Idempotent.
	if err := g.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

func TestGateDrainDeadline(t *testing.T) {
	g := NewGate(1, 0)
	r, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer r()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Drain(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Drain past deadline with stuck work: got %v, want ErrDeadline", err)
	}
	if got := g.InFlight(); got != 1 {
		t.Fatalf("InFlight after failed drain = %d, want 1 (the stuck holder)", got)
	}
}

// TestGateConcurrentAccounting hammers the gate from many goroutines and
// checks the invariant the server relies on: admissions never exceed the
// slot bound, shed work is typed, and everything balances to zero. Run
// under -race in CI.
func TestGateConcurrentAccounting(t *testing.T) {
	const slots, queue, callers = 4, 8, 64
	g := NewGate(slots, queue)
	var mu sync.Mutex
	var admitted, shed int
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := g.Acquire(context.Background())
			if err != nil {
				if !errors.Is(err, ErrOverloaded) {
					t.Errorf("unexpected acquire error: %v", err)
				}
				mu.Lock()
				shed++
				mu.Unlock()
				return
			}
			if in := g.InFlight(); in > slots {
				t.Errorf("InFlight %d exceeds slot bound %d", in, slots)
			}
			time.Sleep(time.Millisecond)
			r()
			mu.Lock()
			admitted++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if admitted+shed != callers {
		t.Fatalf("admitted %d + shed %d != %d callers", admitted, shed, callers)
	}
	if admitted == 0 {
		t.Fatal("nothing was admitted")
	}
	if g.InFlight() != 0 || g.Queued() != 0 {
		t.Fatalf("gate not empty: inflight=%d queued=%d", g.InFlight(), g.Queued())
	}
}

// TestGateInFlightNeverExceedsSlots polls InFlight while holders cycle
// acquire/release as fast as they can: a release that frees its slot
// before decrementing the count lets a fast-path acquire slip in between,
// and InFlight then reads one above the bound.
func TestGateInFlightNeverExceedsSlots(t *testing.T) {
	const slots, holders, cycles = 2, 4, 20000
	g := NewGate(slots, holders)
	stop := make(chan struct{})
	maxSeen := make(chan int)
	go func() {
		hi := 0
		for {
			select {
			case <-stop:
				maxSeen <- hi
				return
			default:
			}
			if in := g.InFlight(); in > hi {
				hi = in
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < holders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				r, err := g.Acquire(context.Background())
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				r()
			}
		}()
	}
	wg.Wait()
	close(stop)
	if hi := <-maxSeen; hi > slots {
		t.Fatalf("InFlight read %d, above the slot bound %d", hi, slots)
	}
}

func TestCodeOf(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{nil, CodeOK},
		{ErrOverloaded, CodeOverloaded},
		{fmt.Errorf("gate: %w", ErrDraining), CodeDraining},
		{fmt.Errorf("%w (X call 3)", ErrInjected), CodeInjected},
		{fmt.Errorf("%w: detail", ErrDeadline), CodeDeadline},
		{context.DeadlineExceeded, CodeDeadline},
		{fmt.Errorf("%w: 12 steps", ErrStepBudget), CodeStepBudget},
		{fmt.Errorf("%w: 900 nodes", ErrTermSize), CodeTermSize},
		{fmt.Errorf("engine: %w: 100 rows", ErrRowBudget), CodeRowBudget},
		{context.Canceled, CodeCanceled},
		{NewExternalPanic(ExtConstraint, "r", "F", "[0]", "boom"), CodeExternalPanic},
		{&ExternalError{Kind: ExtADT, External: "F", Err: errors.New("bad")}, CodeExternalError},
		// An external wrapping an injected fault keeps the INJECTED code.
		{&ExternalError{Kind: ExtMethod, External: "M", Err: fmt.Errorf("%w (M call 1)", ErrInjected)}, CodeInjected},
		{errors.New("mystery"), CodeInternal},
	}
	for _, tc := range cases {
		if got := CodeOf(tc.err); got != tc.want {
			t.Errorf("CodeOf(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
}

func TestInjectorEvery(t *testing.T) {
	in := NewInjector()
	in.Set("e", Fault{Every: 3, Mode: FaultError})
	var fired []int
	for i := 1; i <= 10; i++ {
		if err := in.Hit(nil, "e"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: got %v, want ErrInjected", i, err)
			}
			fired = append(fired, i)
		}
	}
	if fmt.Sprint(fired) != "[3 6 9]" {
		t.Fatalf("Every=3 fired on %v, want [3 6 9]", fired)
	}
	// OnCall takes precedence over Every.
	in.Set("o", Fault{OnCall: 2, Every: 1, Mode: FaultError})
	fired = nil
	for i := 1; i <= 4; i++ {
		if err := in.Hit(nil, "o"); err != nil {
			fired = append(fired, i)
		}
	}
	if fmt.Sprint(fired) != "[2]" {
		t.Fatalf("OnCall=2 fired on %v, want [2]", fired)
	}
}

// waitFor polls a condition with a bounded spin, failing the test on
// timeout. Used where the interesting state is a goroutine mid-queue.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
