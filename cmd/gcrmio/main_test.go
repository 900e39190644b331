package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		tasks, aggs int
		wantErr     string // flag named in the error; "" = accepted
	}{
		{10240, 0, ""},
		{10240, 80, ""},
		{8, 8, ""},
		{0, 0, "-tasks"},
		{-4, 0, "-tasks"},
		{8, -2, "-aggregators"},
		{3, 7, "-tasks"}, // RunGCRM panics on an uneven split
		{10, 4, "-tasks"},
	}
	for _, c := range cases {
		err := checkFlags(c.tasks, c.aggs)
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
