package driver_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statsize/internal/analyzers/driver"
)

// copyCorpus clones testdata/src/<name> into a fresh temp dir so fix
// mode can rewrite files without dirtying the checked-in corpus.
func copyCorpus(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "src", name)
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func run(t *testing.T, opts driver.Options) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	opts.Stdout = &out
	opts.Stderr = &errb
	code := driver.Run(opts)
	return code, out.String(), errb.String()
}

func TestFindingsExitOne(t *testing.T) {
	dir := copyCorpus(t, "fixme")
	code, out, errb := run(t, driver.Options{LoadDirs: []string{dir}})
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if n := strings.Count(out, "[boundeddecode]"); n != 2 {
		t.Errorf("stdout has %d boundeddecode findings, want 2:\n%s", n, out)
	}
}

func TestFixProducesCleanTree(t *testing.T) {
	dir := copyCorpus(t, "fixme")
	code, out, errb := run(t, driver.Options{LoadDirs: []string{dir}, Fix: true})
	if code != 0 {
		t.Fatalf("fix run exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "applied 2 fix(es)") {
		t.Errorf("fix run should report 2 applied fixes:\n%s", out)
	}

	// The fixed source must actually carry the repairs, not just quiet
	// the analyzers.
	data, err := os.ReadFile(filepath.Join(dir, "fixme.go"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	for _, want := range []string{"io.LimitReader(resp.Body, 1<<20)", "io.LimitReader(r.Body, 1<<20)"} {
		if !strings.Contains(src, want) {
			t.Errorf("fixed source missing bounded reader %q:\n%s", want, src)
		}
	}

	// Idempotence: a second -fix run finds nothing to apply and stays
	// clean.
	code, out, errb = run(t, driver.Options{LoadDirs: []string{dir}, Fix: true})
	if code != 0 {
		t.Fatalf("second fix run exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if strings.Contains(out, "applied") {
		t.Errorf("second fix run should be a no-op:\n%s", out)
	}
}

func TestJSONReportSchema(t *testing.T) {
	dir := copyCorpus(t, "fixme")
	jsonPath := filepath.Join(t.TempDir(), "statlint.json")
	code, out, errb := run(t, driver.Options{LoadDirs: []string{dir}, JSONPath: jsonPath})
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep driver.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, data)
	}
	if rep.Version != 1 || rep.Tool != "statlint" {
		t.Errorf("header = (%d, %q), want (1, statlint)", rep.Version, rep.Tool)
	}
	if len(rep.Findings) < 2 {
		t.Fatalf("findings = %d, want >= 2:\n%s", len(rep.Findings), data)
	}
	for _, f := range rep.Findings {
		if f.Analyzer != "boundeddecode" {
			t.Errorf("finding from %q, want boundeddecode", f.Analyzer)
		}
		if f.File == "" || !strings.HasSuffix(f.File, ".go") {
			t.Errorf("finding has bad file %q", f.File)
		}
		if f.Line <= 0 || f.Column <= 0 {
			t.Errorf("finding has bad position %d:%d", f.Line, f.Column)
		}
		if f.Message == "" {
			t.Errorf("finding has empty message")
		}
		if !f.Fixable {
			t.Errorf("fixme finding %s should be fixable", f.Analyzer)
		}
	}
	if len(rep.Fixed) != 0 {
		t.Errorf("non-fix run should record no fixed findings, got %d", len(rep.Fixed))
	}
}

func TestJSONReportRecordsFixed(t *testing.T) {
	dir := copyCorpus(t, "fixme")
	jsonPath := filepath.Join(t.TempDir(), "statlint.json")
	code, out, errb := run(t, driver.Options{LoadDirs: []string{dir}, Fix: true, JSONPath: jsonPath})
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep driver.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("post-fix findings = %d, want 0:\n%s", len(rep.Findings), data)
	}
	// The findings array must be present even when empty — CI consumers
	// index into it unconditionally.
	if !strings.Contains(string(data), `"findings"`) {
		t.Errorf("report omits empty findings array:\n%s", data)
	}
	if len(rep.Fixed) != 2 {
		t.Errorf("fixed = %d, want 2:\n%s", len(rep.Fixed), data)
	}
}

func TestStaleSuppressionFailsRun(t *testing.T) {
	dir := copyCorpus(t, "stale")
	code, out, errb := run(t, driver.Options{LoadDirs: []string{dir}})
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "stale suppression") || !strings.Contains(out, "suppressaudit") {
		t.Errorf("stdout missing stale-suppression finding:\n%s", out)
	}
}
