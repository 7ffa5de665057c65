package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"100", []int{100}},
		{"100,200,300", []int{100, 200, 300}},
		{" 1 , 2 ", []int{1, 2}},
		{"5,", []int{5}},
	}
	for _, tc := range cases {
		got := parseInts(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("parseInts(%q) = %v", tc.in, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("parseInts(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestParseExperiments(t *testing.T) {
	for _, in := range []string{"all", "f5", "f6,t1", " robust , scale ", "scenarios,", "f10,f10"} {
		if _, err := parseExperiments(in); err != nil {
			t.Fatalf("parseExperiments(%q): %v", in, err)
		}
	}
	got, err := parseExperiments("f6, t1")
	if err != nil || len(got) != 2 || !got["f6"] || !got["t1"] {
		t.Fatalf("parseExperiments(\"f6, t1\") = %v, %v", got, err)
	}
	// Unknown names, including the retired kernel comparisons, are rejected
	// before anything runs, and the error lists every valid name.
	for _, in := range []string{"bogus", "learn", "kernel", "f5,kernel", "F5", "", " , "} {
		_, err := parseExperiments(in)
		if err == nil {
			t.Fatalf("parseExperiments(%q) accepted", in)
		}
		for _, name := range experimentNames {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("parseExperiments(%q) error %q does not list %q", in, err, name)
			}
		}
	}
}

func TestParseNonEmptyInts(t *testing.T) {
	got, err := parseNonEmptyInts("sizes", "30, 60")
	if err != nil || len(got) != 2 || got[0] != 30 || got[1] != 60 {
		t.Fatalf("parseNonEmptyInts = %v, %v", got, err)
	}
	for _, in := range []string{"", ",", " , "} {
		if _, err := parseNonEmptyInts("ratios", in); err == nil || !strings.Contains(err.Error(), "-ratios") {
			t.Fatalf("parseNonEmptyInts(%q) error = %v, want one naming -ratios", in, err)
		}
	}
}

// TestMainRejectsBadCommandLine runs the command in a child process and
// checks that an unknown experiment and an empty grid list exit with status
// 2 and a usage message before any experiment starts.
func TestMainRejectsBadCommandLine(t *testing.T) {
	if args := os.Getenv("GLAPBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"glapbench"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-exp", "learn"}, `unknown experiment`},
		{[]string{"-exp", "kernel"}, `unknown experiment`},
		{[]string{"-exp", "robust", "-sizes", ""}, "-sizes"},
		{[]string{"-exp", "f5", "-ratios", ","}, "-ratios"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMainRejectsBadCommandLine$")
		cmd.Env = append(os.Environ(), "GLAPBENCH_TEST_ARGS="+strings.Join(tc.args, "\x1f"))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("glapbench %q: err %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Fatalf("glapbench %q: stderr %q does not mention %q", tc.args, stderr.String(), tc.msg)
		}
		if stdout.Len() != 0 {
			t.Fatalf("glapbench %q ran before rejecting its arguments: %q", tc.args, stdout.String())
		}
	}
}
