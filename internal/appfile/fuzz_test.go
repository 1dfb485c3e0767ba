package appfile

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode"

	"sierra/internal/apk"
)

// FuzzRead pins Read to refRead, the line reader it replaced
// (reference_test.go). For every input under 64 KiB, Read must not
// panic, must fail exactly when refRead fails (a refRead panic counts
// as a failure) with the same error text, and when both accept, the
// two apps must serialize to the same bytes and number the same
// allocation sites; and every line must split into the fields
// strings.Fields finds. The only allowed divergences are two refRead
// bugs that Read fixes:
//
//   - duplicates: refRead panics on a duplicate class, a class that
//     redeclares a framework class, or a duplicate method (the panics
//     of ir.Program.AddClass and ir.Class.AddMethod); Read fails with an
//     error instead.
//   - string literals: refRead takes a string constant's literal from
//     the line's first " str ", Read from the rest of the line after
//     the third field. They differ when the destination is named "str"
//     or a separator other than a space precedes the kind; refRead then
//     misreads the literal or panics.
//
// The seed corpus is testdata/fuzz/FuzzRead, which plain `go test`
// runs; `go test -fuzz FuzzRead ./internal/appfile` explores further.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 64<<10 {
			t.Skip("inputs are bounded at 64 KiB")
		}
		for _, line := range strings.Split(string(data), "\n") {
			if got, want := splitFields(nil, line), strings.Fields(line); !slices.Equal(got, want) {
				t.Fatalf("splitFields(%q) = %q, strings.Fields = %q", line, got, want)
			}
		}
		app, err := Read(bytes.NewReader(data))
		refApp, refPanic, refErr := refReadRecover(data)

		if literalDivergence(data) {
			return
		}
		if s, ok := refPanic.(string); ok && strings.HasPrefix(s, "ir: duplicate ") {
			if err == nil {
				t.Fatalf("refRead panicked (%s) but Read accepted the input", s)
			}
			return
		}
		if refPanic != nil {
			refErr = fmt.Errorf("panic: %v", refPanic)
		}
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("Read error %v, refRead error %v", err, refErr)
		case err != nil:
			if err.Error() != refErr.Error() {
				t.Fatalf("error text differs:\n  Read:    %v\n  refRead: %v", err, refErr)
			}
		default:
			got, _ := Bytes(app)
			want, _ := Bytes(refApp)
			if !bytes.Equal(got, want) {
				t.Fatalf("serializations differ:\nRead:\n%s\nrefRead:\n%s", got, want)
			}
			if g, w := app.Program.NumAllocSites(), refApp.Program.NumAllocSites(); g != w {
				t.Fatalf("NumAllocSites: Read %d, refRead %d", g, w)
			}
		}
	})
}

// refReadRecover runs refRead, returning its panic value if it panics.
func refReadRecover(data []byte) (app *apk.App, panicked any, err error) {
	defer func() { panicked = recover() }()
	app, err = refRead(bytes.NewReader(data))
	return app, nil, err
}

// literalDivergence reports whether some line of data is a string
// constant whose literal refRead locates differently than Read: the
// text after the line's first " str " is not the text after its third
// field. The third field is found by a rune scan of its own, so the
// check does not lean on the reader under test.
func literalDivergence(data []byte) bool {
	for _, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "const" || f[2] != "str" {
			continue
		}
		i := strings.Index(line, " str ")
		if i < 0 || strings.TrimSpace(line[i+len(" str "):]) != restAfterThirdField(line) {
			return true
		}
	}
	return false
}

func restAfterThirdField(line string) string {
	fields, inField := 0, false
	for i, r := range line {
		switch {
		case !unicode.IsSpace(r):
			inField = true
		case inField:
			inField = false
			if fields++; fields == 3 {
				return strings.TrimSpace(line[i:])
			}
		}
	}
	return ""
}
