// Package metricdoc holds DESIGN.md §6's metric inventory to the names a
// registry actually registers. Each row of that table documents one
// prefix: its Names column lists every series without the prefix, with
// templated parts in angle brackets (`requests_<endpoint>_<code>_total`)
// and labelled series as `name{class="a"\|"b"}`. Check compares one row
// with a registry's names in both directions, so a test that exercises
// a layer proves no documented name went unregistered and no registered
// name went undocumented.
package metricdoc

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// placeholders maps the inventory's templated name parts to what they
// stand for in a registered name.
var placeholders = map[string]string{
	"<endpoint>": `[a-z_]+`,
	"<code>":     `[0-9]{3}`,
	"<name>":     `[a-z0-9_]+`,
	"<event>":    `[a-z_]+`,
	"<class>":    `[a-z0-9]+`,
}

// entry is one documented name: a pattern over the unlabelled name and,
// for labelled series, the documented class values.
type entry struct {
	doc     string
	pattern *regexp.Regexp
	classes map[string]bool // nil when the series is unlabelled
	matched map[string]bool // "" for an unlabelled match, else the class
}

var (
	backticked = regexp.MustCompile("`([^`]+)`")
	classLabel = regexp.MustCompile(`^([a-z0-9_]+)\{class="([a-z]+)"\}$`)
)

// parseRow reads the Names column of the inventory row for prefix.
func parseRow(design, prefix string) ([]*entry, error) {
	data, err := os.ReadFile(design)
	if err != nil {
		return nil, err
	}
	var row string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "| `"+prefix+"` |") {
			row = line
			break
		}
	}
	if row == "" {
		return nil, fmt.Errorf("%s has no %s row in its metric inventory", design, prefix)
	}
	var entries []*entry
	names := strings.SplitN(row, " | ", 3)[1]
	for _, m := range backticked.FindAllStringSubmatch(names, -1) {
		doc := strings.ReplaceAll(m[1], `\|`, "|")
		e := &entry{doc: doc, matched: map[string]bool{}}
		base := doc
		if i := strings.IndexByte(doc, '{'); i >= 0 {
			base = doc[:i]
			labels := strings.TrimSuffix(strings.TrimPrefix(doc[i:], `{class=`), "}")
			e.classes = map[string]bool{}
			for _, v := range strings.Split(labels, "|") {
				e.classes[strings.Trim(v, `"`)] = true
			}
		}
		expr := regexp.QuoteMeta(prefix + base)
		for ph, re := range placeholders {
			expr = strings.ReplaceAll(expr, regexp.QuoteMeta(ph), re)
		}
		if strings.ContainsAny(expr, "<>") {
			return nil, fmt.Errorf("inventory name %q has an unknown placeholder", doc)
		}
		e.pattern = regexp.MustCompile("^" + expr + "$")
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%s's %s row lists no names", design, prefix)
	}
	return entries, nil
}

// Check compares the registered names that start with prefix against
// the DESIGN.md inventory row for prefix and returns one line per
// mismatch: a registered name the row does not document, a class value
// the row does not list, or a documented name (or class) that was never
// registered. The error reports an unreadable or malformed row.
func Check(design, prefix string, registered []string) ([]string, error) {
	entries, err := parseRow(design, prefix)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, name := range registered {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		base, class := name, ""
		if m := classLabel.FindStringSubmatch(name); m != nil {
			base, class = m[1], m[2]
		}
		found := false
		for _, e := range entries {
			if !e.pattern.MatchString(base) || (class != "") != (e.classes != nil) {
				continue
			}
			if class != "" && !e.classes[class] {
				problems = append(problems, fmt.Sprintf("%s: class %q is not documented in %q", name, class, e.doc))
			}
			e.matched[class] = true
			found = true
			break
		}
		if !found {
			problems = append(problems, fmt.Sprintf("registered %s is missing from DESIGN.md's %s row", name, prefix))
		}
	}
	for _, e := range entries {
		if e.classes == nil {
			if !e.matched[""] {
				problems = append(problems, fmt.Sprintf("documented %s%s is never registered", prefix, e.doc))
			}
			continue
		}
		classes := make([]string, 0, len(e.classes))
		for class := range e.classes {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			if !e.matched[class] {
				problems = append(problems, fmt.Sprintf("documented %s%s: class %q is never registered", prefix, e.doc, class))
			}
		}
	}
	return problems, nil
}
