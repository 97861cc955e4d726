package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"

	"ximd/internal/hostcfg"
	"ximd/internal/runner"
	"ximd/internal/serve"
)

// expected is the oracle's answer for one job: the result document
// bytes and the simulated cycle count.
type expected struct {
	doc    []byte
	cycles uint64
}

// oracle reproduces result documents in-process with runner.Run and
// runner.NewResultDoc over the same (program, spec) a daemon received.
// The determinism contract makes a correct daemon's document
// byte-identical to it. Answers are memoized per request body.
type oracle struct {
	mu    sync.Mutex
	progs map[[32]byte]*runner.Program
	docs  map[string]expected
}

func newOracle() *oracle {
	return &oracle{progs: map[[32]byte]*runner.Program{}, docs: map[string]expected{}}
}

func (o *oracle) load(arch runner.Arch, src []byte) (*runner.Program, error) {
	key := sha256.Sum256(append([]byte(arch+"\x00"), src...))
	o.mu.Lock()
	p, ok := o.progs[key]
	o.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := runner.Load(arch, src)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.progs[key] = p
	o.mu.Unlock()
	return p, nil
}

// expect returns the oracle document for job, running it on first use.
func (o *oracle) expect(job serve.JobRequest) (expected, error) {
	key := string(encodeJSON(job))
	o.mu.Lock()
	e, ok := o.docs[key]
	o.mu.Unlock()
	if ok {
		return e, nil
	}
	r := request{job: job}
	arch, src := r.program()
	prog, err := o.load(arch, src)
	if err != nil {
		return expected{}, fmt.Errorf("oracle load: %w", err)
	}
	spec, peeks, err := jobSpec(job)
	if err != nil {
		return expected{}, err
	}
	res, err := runner.Run(context.Background(), prog, spec, runner.Options{})
	if err != nil {
		return expected{}, fmt.Errorf("oracle run: %w", err)
	}
	e = expected{doc: encodeJSON(runner.NewResultDoc(res, peeks, job.Profile)), cycles: res.Cycles}
	o.mu.Lock()
	o.docs[key] = e
	o.mu.Unlock()
	return e, nil
}

// jobSpec parses a job's host configuration into the runner spec and
// peeks, as the daemon's submit path does.
func jobSpec(job serve.JobRequest) (runner.Spec, []hostcfg.MemPeek, error) {
	spec := runner.Spec{
		MaxCycles:         job.MaxCycles,
		TolerateConflicts: job.TolerateConflicts,
		Seed:              job.Seed,
		Inject:            job.Inject,
	}
	var err error
	if spec.RegPokes, err = hostcfg.ParseRegPokes(job.Pokes); err != nil {
		return spec, nil, err
	}
	if spec.MemPokes, err = hostcfg.ParseMemPokes(job.Mem); err != nil {
		return spec, nil, err
	}
	peeks, err := hostcfg.ParseMemPeeks(job.Peeks)
	return spec, peeks, err
}

// prepare computes the oracle for every job on up to workers
// goroutines, so verification during the measured window is a lookup.
func (o *oracle) prepare(jobs []serve.JobRequest, workers int) error {
	work := make(chan serve.JobRequest)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for j := range work {
				if _, err := o.expect(j); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, j := range jobs {
		work <- j
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
