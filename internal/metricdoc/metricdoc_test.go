package metricdoc

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func writeDesign(t *testing.T, rows string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "DESIGN.md")
	table := "| Prefix | Names | Source |\n|---|---|---|\n" + rows
	if err := os.WriteFile(p, []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCheck(t *testing.T) {
	design := writeDesign(t, "| `x_` | `hits_total`, `req_<endpoint>_<code>_total`, `depth{class=\"a\"\\|\"b\"}` (gauge) | test |\n")
	clean := []string{"x_hits_total", "x_req_sim_200_total", "x_req_jobs_404_total", `x_depth{class="a"}`, `x_depth{class="b"}`, "y_other"}
	problems, err := Check(design, "x_", clean)
	if err != nil || len(problems) != 0 {
		t.Fatalf("clean registry: problems %q, err %v", problems, err)
	}

	problems, err = Check(design, "x_", []string{"x_hits_total", "x_misses_total", `x_depth{class="a"}`, `x_depth{class="c"}`})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"registered x_misses_total is missing from DESIGN.md's x_ row",
		`x_depth{class="c"}: class "c" is not documented in "depth{class=\"a\"|\"b\"}"`,
		"documented x_req_<endpoint>_<code>_total is never registered",
		`documented x_depth{class="a"|"b"}: class "b" is never registered`,
	}
	if !reflect.DeepEqual(problems, want) {
		t.Fatalf("problems:\n%q\nwant:\n%q", problems, want)
	}
}

func TestCheckRowErrors(t *testing.T) {
	design := writeDesign(t, "| `x_` | `a_<bogus>_total` | test |\n")
	if _, err := Check(design, "y_", nil); err == nil {
		t.Error("a missing row was accepted")
	}
	if _, err := Check(design, "x_", nil); err == nil {
		t.Error("an unknown placeholder was accepted")
	}
}
