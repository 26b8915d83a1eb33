package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestValidateFlags(t *testing.T) {
	// ok is the flag defaults with a given target, classifier, worker
	// count and -loaddist path.
	ok := func(target, classifier string, workers int, loadDist string) flagValues {
		return flagValues{target: target, classifier: classifier, loadDist: loadDist,
			workers: workers, epochs: 5, hidden: 128, train: 8192, val: 2048, games: 20}
	}
	// Every registered scenario passes with a sane worker count.
	for _, name := range core.ScenarioNames() {
		if err := validateFlags(ok(name, "nn", 1, "")); err != nil {
			t.Errorf("validateFlags(%q) = %v", name, err)
		}
	}
	// Zero or negative workers are rejected even in -loaddist mode.
	for _, w := range []int{0, -1, -8} {
		if err := validateFlags(ok("speck", "nn", w, "")); err == nil {
			t.Errorf("workers=%d accepted", w)
		}
		if err := validateFlags(ok("", "", w, "d.gob")); err == nil {
			t.Errorf("workers=%d accepted with -loaddist", w)
		}
	}
	// Unknown targets produce a usage error that lists the registry.
	err := validateFlags(ok("aes", "nn", 1, ""))
	if err == nil {
		t.Fatal("unknown target accepted")
	}
	for _, name := range core.ScenarioNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("target error %q does not list scenario %q", err, name)
		}
	}
	if err := validateFlags(ok("speck", "forest", 1, "")); err == nil ||
		!strings.Contains(err.Error(), "svm") {
		t.Errorf("unknown classifier gave %v", err)
	}
	// -loaddist skips target/classifier checks: both come from the file.
	if err := validateFlags(ok("whatever", "whatever", 2, "d.gob")); err != nil {
		t.Errorf("loaddist mode rejected: %v", err)
	}

	// Sizes out of range are rejected by name. -games 0 skips the online
	// phase and -queries 0 sizes it from the accuracy, so both accept 0.
	for _, c := range []struct {
		flag     string
		set      func(*flagValues)
		loadDist bool // also rejected with -loaddist
	}{
		{"-epochs", func(f *flagValues) { f.epochs = 0 }, false},
		{"-hidden", func(f *flagValues) { f.hidden = -7 }, false},
		{"-hidden", func(f *flagValues) { f.hidden = 0 }, false},
		{"-train", func(f *flagValues) { f.train = 0 }, false},
		{"-val", func(f *flagValues) { f.val = -1 }, false},
		{"-games", func(f *flagValues) { f.games = -1 }, true},
		{"-queries", func(f *flagValues) { f.queries = -5 }, true},
	} {
		f := ok("speck", "nn", 1, "")
		c.set(&f)
		if err := validateFlags(f); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%+v: got %v, want an error naming %s", f, err, c.flag)
		}
		f.loadDist = "d.gob"
		if err := validateFlags(f); (err != nil) != c.loadDist {
			t.Errorf("%+v with -loaddist: got %v", f, err)
		}
	}
	for _, set := range []func(*flagValues){
		func(f *flagValues) { f.games = 0 },
		func(f *flagValues) { f.queries = 0 },
		func(f *flagValues) { f.queries = 5000 },
		func(f *flagValues) { f.epochs, f.hidden, f.train, f.val = 1, 1, 1, 1 },
	} {
		f := ok("speck", "nn", 1, "")
		set(&f)
		if err := validateFlags(f); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
}
