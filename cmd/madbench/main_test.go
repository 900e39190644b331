package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		tasks, matrices int
		wantErr         string // flag named in the error; "" = accepted
	}{
		{256, 8, ""},
		{36, 2, ""},
		{0, 8, "-tasks"},  // RunMADbench would default to 256 ranks
		{-1, 8, "-tasks"}, // no ranks: the cluster panics
		{4, 0, "-matrices"},
		{4, -1, "-matrices"},
	}
	for _, c := range cases {
		err := checkFlags(c.tasks, c.matrices)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%+v: accepted, want a %s error", c, c.wantErr)
		case c.wantErr != "" && !strings.HasPrefix(err.Error(), c.wantErr):
			t.Errorf("%+v: error %q does not name %s", c, err, c.wantErr)
		}
	}
}
