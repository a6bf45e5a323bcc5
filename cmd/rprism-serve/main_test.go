package main

import (
	"os"
	"strings"
	"testing"
)

func TestEnvOrIntParsesWholeIntegers(t *testing.T) {
	const key = "RPRISM_DISK_CACHE"
	for _, tc := range []struct {
		value string
		set   bool
		want  int
		bad   bool
	}{
		{set: false, want: 7},
		{value: "", set: true, want: 7},
		{value: "12", set: true, want: 12},
		{value: "0", set: true, want: 0},
		{value: "-3", set: true, want: -3},
		{value: "1e3", set: true, bad: true},
		{value: "12abc", set: true, bad: true},
		{value: "abc", set: true, bad: true},
		{value: " 12", set: true, bad: true},
	} {
		t.Setenv(key, tc.value) // restored when the test ends
		if !tc.set {
			os.Unsetenv(key)
		}
		got, err := envOrInt(key, 7)
		if tc.bad {
			if err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("%s=%q: got %d, %v; want an error naming %s", key, tc.value, got, err, key)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s=%q (set %v): got %d, %v; want %d", key, tc.value, tc.set, got, err, tc.want)
		}
	}
}
