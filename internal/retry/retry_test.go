package retry

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// recorder is an injectable Sleep that records delays without sleeping.
type recorder struct{ delays []time.Duration }

func (r *recorder) sleep(ctx context.Context, d time.Duration) error {
	r.delays = append(r.delays, d)
	return ctx.Err()
}

func seeded(seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64
}

func TestSucceedsFirstTry(t *testing.T) {
	rec := &recorder{}
	p := Default()
	p.Sleep = rec.sleep
	calls := 0
	if err := p.Do(context.Background(), func(context.Context) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(rec.delays) != 0 {
		t.Fatalf("calls=%d delays=%v, want 1 call and no sleeps", calls, rec.delays)
	}
}

func TestRetriesTransientUntilSuccess(t *testing.T) {
	rec := &recorder{}
	p := Default()
	p.Sleep = rec.sleep
	p.Rand = seeded(1)
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(rec.delays) != 2 {
		t.Fatalf("calls=%d sleeps=%d, want 3 and 2", calls, len(rec.delays))
	}
}

func TestExhaustionWrapsLastError(t *testing.T) {
	sentinel := errors.New("backend down")
	p := Default()
	p.Attempts = 3
	p.Sleep = (&recorder{}).sleep
	p.Rand = seeded(2)
	err := p.Do(context.Background(), func(context.Context) error { return sentinel })
	var re *Error
	if !errors.As(err, &re) || re.Attempts != 3 {
		t.Fatalf("err = %v, want retry.Error with 3 attempts", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatal("exhausted error must unwrap to the last attempt's error")
	}
}

func TestTerminalAbortsImmediately(t *testing.T) {
	terminal := errors.New("bad request")
	p := Default()
	p.Sleep = (&recorder{}).sleep
	p.Classify = func(err error) Class {
		if errors.Is(err, terminal) {
			return Terminal
		}
		return Transient
	}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error { calls++; return terminal })
	if calls != 1 || !errors.Is(err, terminal) {
		t.Fatalf("calls=%d err=%v, want 1 call returning the terminal error", calls, err)
	}
}

func TestRetryAfterHintRaisesBackoff(t *testing.T) {
	rec := &recorder{}
	p := Default()
	p.Attempts = 2
	p.Sleep = rec.sleep
	p.Rand = func() float64 { return 0 } // jitter would pick 0 without the hint
	hinted := After(errors.New("shed"), 750*time.Millisecond)
	_ = p.Do(context.Background(), func(context.Context) error { return hinted })
	if len(rec.delays) != 1 || rec.delays[0] < 750*time.Millisecond {
		t.Fatalf("delays=%v, want one sleep >= 750ms (Retry-After honored)", rec.delays)
	}
	if hint, ok := Hint(hinted); !ok || hint != 750*time.Millisecond {
		t.Fatalf("Hint = %v %v", hint, ok)
	}
	if _, ok := Hint(errors.New("plain")); ok {
		t.Fatal("plain error should carry no hint")
	}
}

func TestContextDeadlineStopsRetries(t *testing.T) {
	p := Default()
	p.Attempts = 10
	p.BaseDelay = time.Hour // any sleep would blow the deadline
	p.Rand = func() float64 { return 1 }
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	calls := 0
	start := time.Now()
	err := p.Do(ctx, func(context.Context) error { calls++; return errors.New("transient") })
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want failure after 1 call (sleep would pass deadline)", err, calls)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Do slept toward an unreachable deadline")
	}
}

func TestPerAttemptDeadline(t *testing.T) {
	p := Default()
	p.Attempts = 1
	p.PerAttempt = 10 * time.Millisecond
	err := p.Do(context.Background(), func(ctx context.Context) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want per-attempt deadline exceeded", err)
	}
}

// TestFullJitterSpreadsClients is the thundering-herd regression test: 200
// simulated clients that fail at the same instant must NOT choose the same
// backoff (the old linear policy slept exactly 50ms*attempt for everyone).
// With full jitter the first-retry delays are i.i.d. uniform over [0, base]:
// assert they are spread across the range, not clustered.
func TestFullJitterSpreadsClients(t *testing.T) {
	const clients = 200
	base := 100 * time.Millisecond
	delays := make([]time.Duration, 0, clients)
	for c := 0; c < clients; c++ {
		rec := &recorder{}
		p := Policy{
			Attempts:  2,
			BaseDelay: base,
			MaxDelay:  time.Second,
			Rand:      seeded(int64(c + 1)), // distinct seed per client, deterministic per run
			Sleep:     rec.sleep,
		}
		_ = p.Do(context.Background(), func(context.Context) error { return errors.New("outage") })
		if len(rec.delays) != 1 {
			t.Fatalf("client %d slept %d times, want 1", c, len(rec.delays))
		}
		delays = append(delays, rec.delays[0])
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	distinct := 1
	for i := 1; i < len(delays); i++ {
		if delays[i] != delays[i-1] {
			distinct++
		}
	}
	if distinct < clients*9/10 {
		t.Fatalf("only %d distinct delays across %d clients — jitter is not spreading retries", distinct, clients)
	}
	if spread := delays[len(delays)-1] - delays[0]; spread < base/2 {
		t.Fatalf("delay spread %v < %v — clients are clustered", spread, base/2)
	}
	// Quartiles each hold a reasonable share: uniform, not bimodal.
	q1 := delays[clients/4]
	q3 := delays[3*clients/4]
	if q1 > base/2 || q3 < base/2 {
		t.Fatalf("quartiles q1=%v q3=%v not straddling %v — distribution skewed", q1, q3, base/2)
	}
	for _, d := range delays {
		if d < 0 || d > base {
			t.Fatalf("delay %v outside [0, %v]", d, base)
		}
	}
}

func TestBackoffCapGrowsAndClamps(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 60 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{10, 20, 40, 60, 60}
	for i, w := range want {
		if got := p.cap(i); got != w*time.Millisecond {
			t.Fatalf("cap(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}
