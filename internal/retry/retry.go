// Package retry is the shared retry/backoff policy layer for the synapsed
// service path. It exists so every wire client retries the same way —
// exponential backoff with *full jitter* (each delay is drawn uniformly from
// [0, cap], so a fleet of clients that fail together does not retry
// together), per-attempt and overall context deadlines, and server-provided
// Retry-After hints.
//
// The zero Policy is not useful; start from Default() and override fields.
// Errors decide their own fate through the Classifier: Transient errors are
// retried with backoff, Terminal errors abort immediately.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Class is an error's retry classification.
type Class int

const (
	// Transient errors are worth another attempt after backoff.
	Transient Class = iota
	// Terminal errors abort the retry loop immediately.
	Terminal
)

// Classifier maps an attempt's error to its Class. A nil Classifier treats
// every error as Transient.
type Classifier func(error) Class

// Policy describes one retry discipline. It holds no shared state, so
// copy-by-value is fine.
type Policy struct {
	// Attempts is the total number of tries, including the first
	// (Attempts <= 1 means no retries).
	Attempts int
	// BaseDelay is the backoff cap for the first retry; the cap doubles
	// (times Multiplier) per retry up to MaxDelay. The actual sleep is
	// drawn uniformly from [0, cap] — full jitter.
	BaseDelay time.Duration
	// MaxDelay bounds the backoff cap.
	MaxDelay time.Duration
	// Multiplier grows the cap per retry; values <= 1 default to 2.
	Multiplier float64
	// PerAttempt, when positive, bounds each attempt with its own context
	// deadline (the overall deadline still comes from the caller's ctx).
	PerAttempt time.Duration
	// Classify decides which errors retry. Nil retries everything.
	Classify Classifier

	// Rand returns a uniform float64 in [0, 1). Nil uses a process-wide
	// seeded source; tests inject a deterministic one.
	Rand func() float64
	// Sleep waits for d or until ctx is done. Nil uses a timer; tests
	// inject a recorder to observe chosen delays without sleeping.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Default returns the policy used by the synapsed clients: 4 attempts,
// 25ms–2s full-jitter backoff, 10s per attempt.
func Default() Policy {
	return Policy{
		Attempts:   4,
		BaseDelay:  25 * time.Millisecond,
		MaxDelay:   2 * time.Second,
		Multiplier: 2,
		PerAttempt: 10 * time.Second,
	}
}

// Error is returned when every attempt failed; it unwraps to the last
// attempt's error so sentinel checks (errors.Is) see through it.
type Error struct {
	Attempts int
	Last     error
}

func (e *Error) Error() string {
	return fmt.Sprintf("retry: %d attempts failed: %v", e.Attempts, e.Last)
}

func (e *Error) Unwrap() error { return e.Last }

// afterError carries a server-provided Retry-After hint alongside the error.
type afterError struct {
	err  error
	hint time.Duration
}

func (a *afterError) Error() string             { return a.err.Error() }
func (a *afterError) Unwrap() error             { return a.err }
func (a *afterError) RetryAfter() time.Duration { return a.hint }

// After attaches a server-provided Retry-After hint to err: the next backoff
// sleeps at least d (still capped by the context deadline).
func After(err error, d time.Duration) error {
	if err == nil || d <= 0 {
		return err
	}
	return &afterError{err: err, hint: d}
}

// Hint extracts the innermost Retry-After hint from err, if any.
func Hint(err error) (time.Duration, bool) {
	var a interface{ RetryAfter() time.Duration }
	if errors.As(err, &a) {
		return a.RetryAfter(), true
	}
	return 0, false
}

// globalRand is the default jitter source, seeded once per process and
// locked because policies may be used concurrently.
var (
	globalMu   sync.Mutex
	globalRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func defaultRand() float64 {
	globalMu.Lock()
	defer globalMu.Unlock()
	return globalRand.Float64()
}

func defaultSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cap returns the backoff ceiling for the i-th retry (i starts at 0).
func (p Policy) cap(i int) time.Duration {
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	base := float64(p.BaseDelay)
	if base <= 0 {
		base = float64(25 * time.Millisecond)
	}
	c := base * math.Pow(mult, float64(i))
	if max := float64(p.MaxDelay); max > 0 && c > max {
		c = max
	}
	return time.Duration(c)
}

// backoff draws the full-jitter delay for the i-th retry, raised to any
// server Retry-After hint carried by err.
func (p Policy) backoff(i int, err error) time.Duration {
	rnd := p.Rand
	if rnd == nil {
		rnd = defaultRand
	}
	d := time.Duration(rnd() * float64(p.cap(i)))
	if hint, ok := Hint(err); ok && hint > d {
		d = hint
	}
	return d
}

// Do runs op until it succeeds, a Terminal error occurs, the attempts are
// exhausted, or ctx expires. op receives a context that carries the
// per-attempt deadline (if configured) on top of ctx.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	classify := p.Classify
	sleep := p.Sleep
	if sleep == nil {
		sleep = defaultSleep
	}
	var last error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return &Error{Attempts: i, Last: last}
			}
			return err
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if p.PerAttempt > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, p.PerAttempt)
		}
		err := op(attemptCtx)
		cancel()
		if err == nil {
			return nil
		}
		last = err
		if classify != nil && classify(err) == Terminal {
			return err
		}
		if i == attempts-1 {
			break
		}
		d := p.backoff(i, err)
		// Don't sleep past the caller's deadline: fail now with the real
		// error instead of burning the remaining time waiting.
		if dl, ok := ctx.Deadline(); ok && time.Now().Add(d).After(dl) {
			return &Error{Attempts: i + 1, Last: last}
		}
		if serr := sleep(ctx, d); serr != nil {
			return &Error{Attempts: i + 1, Last: last}
		}
	}
	return &Error{Attempts: attempts, Last: last}
}
