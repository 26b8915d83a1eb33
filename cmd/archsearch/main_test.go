package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(8, 8192, 2048, 5); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := validateFlags(1, 1, 1, 1); err != nil {
		t.Fatalf("minimum values rejected: %v", err)
	}
	for _, c := range []struct {
		flag                       string
		rounds, train, val, epochs int
	}{
		{"-rounds", 0, 8192, 2048, 5},
		{"-rounds", -1, 8192, 2048, 5},
		{"-train", 8, 0, 2048, 5},
		{"-val", 8, 8192, -4, 5},
		{"-epochs", 8, 8192, 2048, 0},
	} {
		err := validateFlags(c.rounds, c.train, c.val, c.epochs)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%+v: got %v, want an error naming %s", c, err, c.flag)
		}
	}
}
