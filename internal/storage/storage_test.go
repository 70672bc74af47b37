package storage

import (
	"errors"
	"testing"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

const us = vtime.Microsecond

type payload struct {
	X int64
	S string
}

func TestWriteReadRoundTrip(t *testing.T) {
	eng := simkern.NewEngine(monitor.NewLog(0), 3)
	eng.AddProcessor("n0", 0)
	s := New(eng, 0, 50*us)
	var werr error
	done := false
	s.Write("k", payload{X: 42, S: "hello"}, func(err error) { werr = err; done = true })
	eng.RunUntilIdle()
	if !done || werr != nil {
		t.Fatalf("write done=%v err=%v", done, werr)
	}
	var out payload
	if err := s.Read("k", &out); err != nil {
		t.Fatal(err)
	}
	if out.X != 42 || out.S != "hello" {
		t.Fatalf("read %+v", out)
	}
	if s.Writes != 1 {
		t.Fatalf("writes = %d", s.Writes)
	}
}

func TestWriteTakesTwoLatencies(t *testing.T) {
	eng := simkern.NewEngine(nil, 3)
	eng.AddProcessor("n0", 0)
	s := New(eng, 0, 100*us)
	var at vtime.Time
	s.Write("k", 1, func(error) { at = eng.Now() })
	eng.RunUntilIdle()
	if at != vtime.Time(200*us) {
		t.Fatalf("write completed at %s, want 200us (two copies)", at)
	}
}

func TestOverwriteKeepsNewest(t *testing.T) {
	eng := simkern.NewEngine(nil, 3)
	eng.AddProcessor("n0", 0)
	s := New(eng, 0, 10*us)
	s.Write("k", 1, func(error) {})
	eng.RunUntilIdle()
	s.Write("k", 2, func(error) {})
	eng.RunUntilIdle()
	var v int
	if err := s.Read("k", &v); err != nil || v != 2 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

func TestCrashBetweenCopiesRecovers(t *testing.T) {
	eng := simkern.NewEngine(nil, 3)
	eng.AddProcessor("n0", 0)
	s := New(eng, 0, 100*us)
	s.Write("k", "old", func(error) {})
	eng.RunUntilIdle()

	// Second write starts at t=200us: copy A lands at 300us, copy B at
	// 400us. Crash at 350us — exactly between the two copies.
	var gotErr error
	s.Write("k", "new", func(err error) { gotErr = err })
	eng.At(vtime.Time(350*us), eventq.ClassApp, func() { s.Crash() })
	eng.RunUntilIdle()
	if !errors.Is(gotErr, ErrCrashed) {
		t.Fatalf("write error = %v, want ErrCrashed", gotErr)
	}
	s.recover()
	var v string
	if err := s.Read("k", &v); err != nil {
		t.Fatal(err)
	}
	// Copy A carries "new" (valid, newer); recovery must pick it.
	if v != "new" {
		t.Fatalf("recovered %q", v)
	}
	if s.Recoveries == 0 {
		t.Fatal("recovery not counted")
	}
}

func TestCrashBeforeAnyCopy(t *testing.T) {
	eng := simkern.NewEngine(nil, 3)
	eng.AddProcessor("n0", 0)
	s := New(eng, 0, 100*us)
	s.Write("k", "old", func(error) {})
	eng.RunUntilIdle()
	// Second write starts at t=200us; crash at 250us, before copy A
	// lands (300us): the in-flight copy tears, the sibling survives.
	s.Write("k", "new", func(error) {})
	eng.At(vtime.Time(250*us), eventq.ClassApp, func() { s.Crash() })
	eng.RunUntilIdle()
	s.recover()
	var v string
	if err := s.Read("k", &v); err != nil {
		t.Fatal(err)
	}
	if v != "old" && v != "new" {
		t.Fatalf("recovered garbage %q", v)
	}
}

func TestReadMissing(t *testing.T) {
	eng := simkern.NewEngine(nil, 3)
	eng.AddProcessor("n0", 0)
	s := New(eng, 0, 10*us)
	var v int
	if err := s.Read("ghost", &v); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpsOnCrashedStore(t *testing.T) {
	eng := simkern.NewEngine(nil, 3)
	eng.AddProcessor("n0", 0)
	s := New(eng, 0, 10*us)
	s.Crash()
	var werr error
	s.Write("k", 1, func(err error) { werr = err })
	if !errors.Is(werr, ErrCrashed) {
		t.Fatal("write on crashed store accepted")
	}
	var v int
	if err := s.Read("k", &v); !errors.Is(err, ErrCrashed) {
		t.Fatal("read on crashed store accepted")
	}
	if !s.isCrashed() {
		t.Fatal("Crashed() false")
	}
}
