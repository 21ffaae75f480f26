package sim

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// leaves appends the path of every exported leaf field of t (a struct
// type) to out, naming each field as name says.
func leaves(t reflect.Type, prefix string, name func(reflect.StructField) string, out []string) []string {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		path := prefix + name(f)
		if f.Type.Kind() == reflect.Struct {
			out = leaves(f.Type, path+".", name, out)
			continue
		}
		out = append(out, path)
	}
	return out
}

// jsonName is the key encoding/json writes for f.
func jsonName(f reflect.StructField) string {
	if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != "" {
		return tag
	}
	return f.Name
}

// Every settable value of a machine, and every config key the run report
// records, is listed in testdata/config_surface.txt: adding, dropping or
// renaming a knob shows up as a diff there, the way a flag does in the
// CLIs' usage.txt. The got text is printed on a mismatch; paste it over
// the file when the change is meant.
func TestConfigSurface(t *testing.T) {
	fields := leaves(reflect.TypeOf(Config{}), "", func(f reflect.StructField) string { return f.Name }, nil)
	keys := leaves(reflect.TypeOf(ReportConfig{}), "", jsonName, nil)
	var b strings.Builder
	fmt.Fprintf(&b, "# sim.Config: %d settable values\n", len(fields))
	for _, f := range fields {
		b.WriteString(f + "\n")
	}
	fmt.Fprintf(&b, "\n# %s config keys: %d\n", ReportSchema, len(keys))
	for _, k := range keys {
		b.WriteString(k + "\n")
	}
	want, err := os.ReadFile("testdata/config_surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("the config surface differs from testdata/config_surface.txt; got:\n%s", got)
	}
}
