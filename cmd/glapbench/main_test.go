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
		{"", nil}, // -scale-sizes "": the built-in grid
	}
	for _, tc := range cases {
		got, err := parseInts("scale-sizes", tc.in)
		if err != nil || len(got) != len(tc.want) {
			t.Fatalf("parseInts(%q) = %v, %v", tc.in, got, err)
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
	// Malformed items are errors naming the flag, for every element type.
	if _, err := parseInts("scale-sizes", "1x"); err == nil || !strings.Contains(err.Error(), "-scale-sizes") {
		t.Fatalf("parseInts(\"1x\") error = %v", err)
	}
	if _, err := parseNonEmptyFloats("drops", "0,abc"); err == nil || !strings.Contains(err.Error(), "-drops") {
		t.Fatalf("parseNonEmptyFloats(\"0,abc\") error = %v", err)
	}
	if _, err := parseNonEmptyInt64s("lats", "1,2.5"); err == nil || !strings.Contains(err.Error(), "-lats") {
		t.Fatalf("parseNonEmptyInt64s(\"1,2.5\") error = %v", err)
	}
	if got, err := parseNonEmptyFloats("drops", "0, 0.2"); err != nil || len(got) != 2 || got[1] != 0.2 {
		t.Fatalf("parseNonEmptyFloats(\"0, 0.2\") = %v, %v", got, err)
	}
}

// TestMainRejectsBadCommandLine runs the command in a child process and
// checks that an unknown experiment, an empty list and a malformed number in
// any list flag exit with status 2 and a usage message before any
// experiment starts.
func TestMainRejectsBadCommandLine(t *testing.T) {
	if args := os.Getenv("GLAPBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"glapbench"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct {
		name string
		args []string
		msg  string
	}{
		{"exp-learn", []string{"-exp", "learn"}, `unknown experiment`},
		{"exp-kernel", []string{"-exp", "kernel"}, `unknown experiment`},
		{"empty-sizes", []string{"-exp", "robust", "-sizes", ""}, "-sizes"},
		{"empty-ratios", []string{"-exp", "f5", "-ratios", ","}, "-ratios"},
		{"empty-drops", []string{"-exp", "robust", "-sizes", "10", "-ratios", "2", "-rounds", "5", "-reps", "1", "-drops", ""}, "-drops"},
		{"empty-lats", []string{"-exp", "robust", "-sizes", "10", "-ratios", "2", "-rounds", "5", "-reps", "1", "-lats", ""}, "-lats"},
		{"empty-scen-sizes", []string{"-exp", "scenarios", "-scen-sizes", ""}, "-scen-sizes"},
		{"malformed-sizes", []string{"-exp", "f5", "-sizes", "1x"}, "-sizes"},
		{"malformed-drops", []string{"-exp", "robust", "-drops", "abc"}, "-drops"},
		{"malformed-scale-sizes", []string{"-exp", "scale", "-scale-sizes", "5,x"}, "-scale-sizes"},
		// -drops is parsed before -exp scenarios runs, not after.
		{"drops-parsed-before-scenarios", []string{"-exp", "scenarios,robust", "-scen-sizes", "8", "-drops", "abc"}, "-drops"},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
		})
	}
}
