package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainArg, as a test binary's first argument, makes it run the
// sierra command on the arguments after it instead of the tests.
const runMainArg = "-run-sierra-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnreadFlagsFailClosed: a flag the selected mode never reads is
// rejected with exit code 2 and a message naming it, before any input
// is touched — a one-app output in a corpus run, a corpus-run knob in
// a one-app run, and -gen-jobs outside -stream.
func TestUnreadFlagsFailClosed(t *testing.T) {
	missing := "no-such-dir/*.app"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-batch", missing, "-report-json", "r.json"}, "sierra: -batch never reads -report-json"},
		{[]string{"-app", "OpenSudoku", "-jobs", "2"}, "sierra: a one-app run never reads -jobs"},
		{[]string{"-batch", missing, "-gen-jobs", "2"}, "sierra: -batch never reads -gen-jobs"},
	} {
		out, err := exec.Command(os.Args[0], append([]string{runMainArg}, c.args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.TrimSpace(string(out)) != c.want {
			t.Errorf("sierra %s: %v, output %q; want exit 2 and %q", strings.Join(c.args, " "), err, out, c.want)
		}
	}
}
