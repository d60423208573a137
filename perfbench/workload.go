package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lera/internal/core"
	"lera/internal/esql"
	"lera/internal/testdb"
)

// spillGrant is the per-operator memory grant (Limits.MaxMemBytes) of
// closure_spill and of closure_exec's governed twin. It is below the
// smallest full closure's and the smallest self-join's operator state, so
// their join builds, dedup sets and seen-sets all go out of core; point
// queries stay within it.
const spillGrant = 128 << 10

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up instance is the one timed.
const setupReps = 5

// warmBlocks is how many interleaving blocks of a separately seeded
// stream each client runs during set-up, so rewriter, join indexes and
// plan cache are warm before timing.
const warmBlocks = 2

// outcome is one executed query as a client saw it.
type outcome struct {
	got answer
	lat time.Duration // time spent in the program's entry point
	err error         // the query errored or was shed
	// bad names a workload-integrity violation: the run measured a
	// degenerate workload and must fail instead of reporting a number.
	bad string
}

// client is one closed-loop client: its query stream and how it runs a
// query through the system's public entry point.
type client struct {
	s    *stream
	exec func(ctx context.Context, q query) outcome
}

// instance is a workload that is set up and ready to time.
type instance struct {
	clients []*client
	// check evaluates the workload-wide integrity guards after the timed
	// window (nil when there are none).
	check func() error
	// driver builds the decomposed driver of the traced run.
	driver func() (*driver, error)
	close  func()
}

// setupFunc sets a workload up. spillDir is where closure_spill spills;
// warmUp runs the set-up warm-up, which the traced run replaces with its
// own.
type setupFunc func(seed int64, spillDir string, warmUp bool) (*instance, error)

// spec describes one workload.
type spec struct {
	name  string
	setup setupFunc
}

var workloads = []spec{
	{name: "rewrite_adhoc", setup: setupAdhoc},
	{
		name: "closure_exec",
		setup: func(seed int64, dir string, warmUp bool) (*instance, error) {
			return setupClosure(seed, dir, warmUp, false)
		},
	},
	{
		name: "closure_spill",
		setup: func(seed int64, dir string, warmUp bool) (*instance, error) {
			return setupClosure(seed, dir, warmUp, true)
		},
	},
	{name: "served_repeat", setup: setupServed},
}

func lookupWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// nproc is the load and pool size: clients on rewrite_adhoc and
// served_repeat, the engine worker pool on the closure workloads.
func nproc() int { return runtime.NumCPU() }

// clientSeed derives client c's stream seed; warm-up streams use their
// own seeds, so warming never replays the timed stream.
func clientSeed(seed int64, c int, warm bool) int64 {
	s := seed*7919 + int64(c)
	if warm {
		s = ^s
	}
	return s
}

// loadFilms loads the Figure 2 schema, the Figure 4/5 views and the
// sample instance into s, as the server's LoadFilms does.
func loadFilms(s *core.Session) error {
	for _, src := range []string{esql.Figure2DDL, esql.Figure4View, esql.Figure5View} {
		if _, err := s.Exec(src); err != nil {
			return err
		}
	}
	inst, err := testdb.Data()
	if err != nil {
		return err
	}
	for name, rows := range inst.Rows {
		if err := s.DB.Load(name, rows); err != nil {
			return err
		}
	}
	for oid, obj := range inst.Objects {
		s.SetObject(oid, obj)
	}
	return nil
}

// embeddedGuards are the per-query integrity guards of the embedded
// workloads.
type embeddedGuards struct {
	noDegrade bool // rewrite_adhoc: every rewrite completes
	spill     bool // closure_spill: governed queries spill; elsewhere nothing may
}

// embeddedExec runs queries through Session.QueryCtx on one session fork.
func embeddedExec(s *core.Session, g embeddedGuards) func(context.Context, query) outcome {
	return func(ctx context.Context, q query) outcome {
		before := s.DB.Spill.Bytes
		t0 := time.Now()
		res, err := s.QueryCtx(ctx, q.text)
		lat := time.Since(t0)
		if err != nil {
			return outcome{lat: lat, err: fmt.Errorf("%s: %w", q.text, err)}
		}
		o := outcome{got: answerOfValues(res.Rows), lat: lat}
		o.bad = g.violation(q, res.RewriteStats().Degraded, s.DB.Spill.Bytes-before)
		return o
	}
}

// violation checks one query against the guards.
func (g embeddedGuards) violation(q query, degraded bool, spilled int64) string {
	switch {
	case g.noDegrade && degraded:
		return "degraded rewrite: " + q.text
	case g.spill && q.governed && spilled == 0:
		return "governed query did not spill: " + q.text
	case !g.spill && spilled > 0:
		return "query spilled outside closure_spill: " + q.text
	}
	return ""
}

// warm runs warmBlocks blocks of a warm-up stream through every client
// and fails on any error, wrong answer or guard violation.
func warm(clients []*client, seed int64, fams []family) error {
	for c, cl := range clients {
		ws := newStream(clientSeed(seed, c, true), fams)
		for i := 0; i < warmBlocks*ws.blockLen(); i++ {
			q := ws.next()
			o := cl.exec(context.Background(), q)
			switch {
			case o.err != nil:
				return fmt.Errorf("warm-up: %w", o.err)
			case o.bad != "":
				return fmt.Errorf("warm-up: %s", o.bad)
			case o.got != q.want:
				return fmt.Errorf("warm-up: wrong answer to %s", q.text)
			}
		}
	}
	return nil
}

// setupAdhoc builds rewrite_adhoc: the films database with the §6
// constraint in the rule base and the seeded views, forked once per
// client, each fork with the serial engine and no plan cache.
func setupAdhoc(seed int64, _ string, warmUp bool) (*instance, error) {
	d, err := loadFilmsData()
	if err != nil {
		return nil, err
	}
	a := newAdhoc(d, seed)
	base := core.NewSession(core.WithConstraints(icCategory))
	base.Parallelism = 1
	t0 := time.Now()
	if err := loadFilms(base); err != nil {
		return nil, err
	}
	load := time.Since(t0)
	if _, err := base.Exec(a.ddl()); err != nil {
		return nil, err
	}
	inst := &instance{close: func() {}}
	g := embeddedGuards{noDegrade: true}
	fams := a.families()
	for c := 0; c < nproc(); c++ {
		f, err := base.Fork()
		if err != nil {
			return nil, err
		}
		inst.clients = append(inst.clients, &client{s: newStream(clientSeed(seed, c, false), fams), exec: embeddedExec(f, g)})
	}
	if warmUp {
		if err := warm(inst.clients, seed, fams); err != nil {
			return nil, err
		}
	}
	inst.driver = func() (*driver, error) { return newEmbeddedDriver(base, g, load) }
	return inst, nil
}

// setupClosure builds closure_exec, or closure_spill when governed: the
// seeded graphs, one client, the engine pool sized nproc. closure_spill
// runs under the grant with spillDir; closure_exec's traced run uses
// spillDir only for its governed twin evaluations.
func setupClosure(seed int64, spillDir string, warmUp, governed bool) (*instance, error) {
	gs := newGraphSet(seed, closureSizes)
	base := core.NewSession()
	base.Parallelism = nproc()
	if governed {
		base.Limits.MaxMemBytes = spillGrant
		base.SpillDir = spillDir
	}
	if _, err := base.Exec(gs.ddl()); err != nil {
		return nil, err
	}
	var load time.Duration
	for _, gr := range append(append([]*graph(nil), gs.tcs...), gs.joins...) {
		rows := gr.rows()
		t0 := time.Now()
		if err := base.DB.Load(gr.name, rows); err != nil {
			return nil, err
		}
		load += time.Since(t0)
	}
	f, err := base.Fork()
	if err != nil {
		return nil, err
	}
	g := embeddedGuards{spill: governed}
	fams := gs.families()
	inst := &instance{
		clients: []*client{{s: newStream(clientSeed(seed, 0, false), fams), exec: embeddedExec(f, g)}},
		close:   func() {},
	}
	if warmUp {
		if err := warm(inst.clients, seed, fams); err != nil {
			return nil, err
		}
	}
	inst.driver = func() (*driver, error) {
		d, err := newEmbeddedDriver(base, g, load)
		if err != nil || governed {
			return d, err
		}
		if d.twin, err = base.Fork(); err != nil {
			return nil, err
		}
		d.twin.Limits.MaxMemBytes = spillGrant
		d.twin.SpillDir = spillDir
		return d, nil
	}
	return inst, nil
}
