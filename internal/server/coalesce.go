package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// flightGroup implements request coalescing (the singleflight pattern):
// when many goroutines ask for the same key at once, exactly one executes
// the computation and the rest wait for it and share its result. It is the
// daemon's only coalescing mechanism — search, enrichment, tiles, shard
// partials, scatters and tree builds all go through one — so a burst of
// identical queries costs one SPELL search, one enrichment pass, one tile
// render or one clustering, never N.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// maxFlightAttempts bounds Do's leader handovers.
const maxFlightAttempts = 3

// Do executes fn under key, coalescing concurrent duplicate calls. The
// first caller (the leader) runs fn; the others (followers) wait for its
// result or for their own ctx, whichever ends first. A flight shares its
// leader's fate, context included, so a flight that ends in a context error
// while the caller's own ctx is still live died of someone else's hangup:
// Do hands over — the caller leads or joins afresh, at most
// maxFlightAttempts times in all — instead of failing an innocent request.
// joined reports whether the returned value came from another caller's
// flight, retries how many handovers happened.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (any, error)) (val any, joined bool, retries int, err error) {
	for {
		val, joined, err = g.do(ctx, key, fn)
		if retries == maxFlightAttempts-1 || !isContextErr(err) || ctx.Err() != nil {
			return val, joined, retries, err
		}
		retries++
	}
}

// do is one attempt of Do.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (any, bool, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	func() {
		// Cleanup is deferred so a panicking fn cannot wedge the key and
		// leak every future caller onto a flight that never completes. The
		// panic itself becomes an error shared by leader and joiners alike.
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("server: query computation panicked: %v", r)
			}
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn()
	}()
	return c.val, false, c.err
}

// isContextErr reports whether err is a cancellation or deadline.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
