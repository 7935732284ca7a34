package lamofinder

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// ciEquivalents names the Makefile targets the CI workflow runs by some
// other command than `make <target>`, with the command that stands in.
var ciEquivalents = map[string]string{
	// The lamovet step runs the same suite with -json so its findings can
	// be uploaded as a build artifact.
	"lamovet": "go run ./cmd/lamovet -json ./...",
}

// makePrereqs parses the Makefile's rules into target -> prerequisites,
// joining backslash-continued lines. Recipe lines and variable
// assignments are skipped.
func makePrereqs(t *testing.T, makefile string) map[string][]string {
	t.Helper()
	rules := map[string][]string{}
	text := strings.ReplaceAll(makefile, "\\\n", " ")
	rule := regexp.MustCompile(`^([A-Za-z0-9_.-]+)\s*:([^=].*)?$`)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "#") {
			continue
		}
		if m := rule.FindStringSubmatch(line); m != nil {
			rules[m[1]] = strings.Fields(m[2])
		}
	}
	return rules
}

// TestCIRunsEveryMakeGate keeps .github/workflows/ci.yml in step with the
// Makefile: every prerequisite of `make ci` must be run by the workflow,
// either as `make <target>`, through the stand-in command listed in
// ciEquivalents, or — for an aggregate target such as lint — by covering
// each of its own prerequisites.
func TestCIRunsEveryMakeGate(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	wf, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	workflow := string(wf)
	ran := map[string]bool{}
	for _, m := range regexp.MustCompile(`\bmake ([A-Za-z0-9_.-]+)`).FindAllStringSubmatch(workflow, -1) {
		ran[m[1]] = true
	}
	rules := makePrereqs(t, string(mk))
	gates, ok := rules["ci"]
	if !ok || len(gates) == 0 {
		t.Fatal("Makefile has no `ci:` rule with prerequisites")
	}
	var covered func(target string, depth int) bool
	covered = func(target string, depth int) bool {
		if ran[target] {
			return true
		}
		if cmd, ok := ciEquivalents[target]; ok && strings.Contains(workflow, cmd) {
			return true
		}
		deps := rules[target]
		if len(deps) == 0 || depth > 8 {
			return false
		}
		for _, d := range deps {
			if !covered(d, depth+1) {
				return false
			}
		}
		return true
	}
	for _, g := range gates {
		if !covered(g, 0) {
			t.Errorf("`make ci` runs %q but .github/workflows/ci.yml does not (add a `run: make %s` step)", g, g)
		}
	}
}
