package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ldsprefetch/internal/sim"
)

// TestListConfigsNamesSpecs pins that -list-configs shows the spec name each
// -config resolves to, so report and benchmark names (e.g. stream+cdp+thr)
// can be traced back to the configuration that produces them.
func TestListConfigsNamesSpecs(t *testing.T) {
	var buf bytes.Buffer
	printConfigs(&buf)
	out := buf.String()
	if !strings.Contains(out, "  cdp+throttle   (spec stream+cdp+thr)\n") {
		t.Errorf("cdp+throttle line missing its spec name:\n%s", out)
	}
	for _, n := range sim.NamedConfigs() {
		sp, err := sim.Named(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("  %-14s (spec %s", n, sp.Name); !strings.Contains(out, want) {
			t.Errorf("no line %q for -config %s", want, n)
		}
	}
}

// TestSpecAcceptsDeprecatedEngine pins that -spec documents carrying the
// deprecated "engine" field still decode and validate.
func TestSpecAcceptsDeprecatedEngine(t *testing.T) {
	for _, eng := range []string{"serial", "parallel"} {
		sp, err := loadSpec(`{"name":"x","components":[{"kind":"stream"}],"engine":"` + eng + `"}`)
		if err != nil {
			t.Fatalf("engine %q: %v", eng, err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("engine %q: %v", eng, err)
		}
	}
}
