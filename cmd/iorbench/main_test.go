package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		tasks           int
		block, transfer int64
		reps            int
		wantErr         string // flag named in the error; "" = accepted
	}{
		{1024, 512e6, 0, 5, ""},
		{16, 32e6, 8e6, 2, ""},
		{0, 512e6, 0, 5, "-tasks"},  // RunIOR would default to 1024 ranks
		{-5, 512e6, 0, 5, "-tasks"}, // no ranks: the cluster panics
		{4, 0, 0, 5, "-block"},
		{4, -5, 0, 5, "-block"},
		{4, 512e6, -5, 5, "-transfer"},
		{4, 100, 30, 5, "-block"}, // not a whole number of transfers
		{4, 512e6, 0, 0, "-reps"},
		{4, 512e6, 0, -1, "-reps"},
	}
	for _, c := range cases {
		err := checkFlags(c.tasks, c.block, c.transfer, c.reps)
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
