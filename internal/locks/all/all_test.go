package all

import (
	"testing"

	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/rwl"
)

// expected is the lineup the harness and docs promise.
var expected = []string{
	"ba", "pf-t", "pthread", "per-cpu", "cohort-rw", "mutex", "go-rw",
	"bravo-ba", "bravo-pf-t", "bravo-pthread", "bravo-mutex", "bravo-go",
	"bravo-ba-flat", "bravo-ba-private", "bravo-ba-probe2", "bravo-ba-revmu",
	"bravo-ba-random",
}

func TestRegistryLineup(t *testing.T) {
	names := map[string]bool{}
	for _, n := range rwl.Names() {
		names[n] = true
	}
	for _, want := range expected {
		if !names[want] {
			t.Errorf("lock %q not registered", want)
		}
	}
}

func TestEveryRegisteredLockSurvivesStorm(t *testing.T) {
	// Every configuration the benchmarks can select must uphold mutual
	// exclusion under a mixed storm — including the topology-sized locks
	// (Per-CPU sweeps 72 sub-locks per write on the X5-2 shape) and every
	// BRAVO variant.
	for _, name := range expected {
		name := name
		t.Run(name, func(t *testing.T) {
			f, ok := rwl.Lookup(name)
			if !ok {
				t.Fatalf("lookup %q failed", name)
			}
			iters := 400
			if name == "per-cpu" { // writer sweeps are expensive; keep it brisk
				iters = 100
			}
			lockcheck.Exclusion(t, func() rwl.RWLock { return f() }, 3, 2, iters)
		})
	}
}

func TestReadConcurrencyWhereGuaranteed(t *testing.T) {
	// All reader-writer locks must admit concurrent readers; the mutex
	// adapter (and BRAVO-mutex before bias engages) is the documented
	// exception.
	for _, name := range expected {
		if name == "mutex" || name == "bravo-mutex" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			l, err := rwl.New(name)
			if err != nil {
				t.Fatal(err)
			}
			// Engage bias where applicable so fast-path readers coexist.
			tok := l.RLock()
			l.RUnlock(tok)
			lockcheck.ReadersConcurrent(t, l)
		})
	}
}

func TestWriterExclusionEverywhere(t *testing.T) {
	for _, name := range expected {
		name := name
		t.Run(name, func(t *testing.T) {
			l, err := rwl.New(name)
			if err != nil {
				t.Fatal(err)
			}
			lockcheck.WriterExcludesReaders(t, l)
		})
	}
}
