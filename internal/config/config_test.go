package config

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ops"
	_ "repro/internal/ops/all"
)

func TestParseYAMLScalars(t *testing.T) {
	m, err := ParseYAML([]byte(`
name: demo
count: 42
ratio: 0.75
flag: true
off: false
nothing: null
quoted: "hello: world"
single: 'it''s fine'
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"name": "demo", "count": 42, "ratio": 0.75, "flag": true,
		"off": false, "nothing": nil, "quoted": "hello: world",
		"single": "it's fine",
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("got %#v", m)
	}
}

func TestParseYAMLNestedMaps(t *testing.T) {
	m, err := ParseYAML([]byte(`
outer:
  inner:
    deep: 1
  other: two
`))
	if err != nil {
		t.Fatal(err)
	}
	outer := m["outer"].(map[string]any)
	inner := outer["inner"].(map[string]any)
	if inner["deep"] != 1 || outer["other"] != "two" {
		t.Fatalf("got %#v", m)
	}
}

func TestParseYAMLLists(t *testing.T) {
	m, err := ParseYAML([]byte(`
scalars:
  - a
  - 2
  - true
inline: [x, 1, false]
opslist:
  - first_op:
  - second_op:
      p1: 10
      p2: hello
  - third_op:
      nested: [a, b]
`))
	if err != nil {
		t.Fatal(err)
	}
	scalars := m["scalars"].([]any)
	if len(scalars) != 3 || scalars[0] != "a" || scalars[1] != 2 || scalars[2] != true {
		t.Fatalf("scalars = %#v", scalars)
	}
	inline := m["inline"].([]any)
	if len(inline) != 3 || inline[0] != "x" || inline[1] != 1 || inline[2] != false {
		t.Fatalf("inline = %#v", inline)
	}
	opslist := m["opslist"].([]any)
	if len(opslist) != 3 {
		t.Fatalf("opslist = %#v", opslist)
	}
	second := opslist[1].(map[string]any)["second_op"].(map[string]any)
	if second["p1"] != 10 || second["p2"] != "hello" {
		t.Fatalf("second = %#v", second)
	}
	third := opslist[2].(map[string]any)["third_op"].(map[string]any)
	if nested := third["nested"].([]any); len(nested) != 2 || nested[1] != "b" {
		t.Fatalf("third = %#v", third)
	}
	first := opslist[0].(map[string]any)
	if v, ok := first["first_op"]; !ok || v != nil {
		t.Fatalf("first = %#v", first)
	}
}

func TestParseYAMLComments(t *testing.T) {
	m, err := ParseYAML([]byte(`
# full-line comment
key: value # trailing comment
url: "http://x#y" # hash inside quotes preserved
`))
	if err != nil {
		t.Fatal(err)
	}
	if m["key"] != "value" || m["url"] != "http://x#y" {
		t.Fatalf("got %#v", m)
	}
}

func TestParseYAMLErrors(t *testing.T) {
	cases := []string{
		"\tkey: tab-indent",
		"key: 1\nkey: 2",
		"just a line without colon",
	}
	for _, src := range cases {
		if _, err := ParseYAML([]byte(src)); err == nil {
			t.Errorf("ParseYAML(%q) should fail", src)
		}
	}
}

func TestParseYAMLEmpty(t *testing.T) {
	m, err := ParseYAML([]byte("\n# only comments\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 0 {
		t.Fatalf("got %#v", m)
	}
}

const sampleRecipe = `
project_name: unit
dataset_path: in.jsonl
export_path: out.jsonl
np: 4
use_cache: false
op_fusion: true
trace: true
process:
  - whitespace_normalization_mapper:
  - word_num_filter:
      min_num: 5
      max_num: 100
  - document_deduplicator:
      lowercase: false
`

func TestRecipeFromYAML(t *testing.T) {
	r, err := ParseRecipe(sampleRecipe)
	if err != nil {
		t.Fatal(err)
	}
	if r.ProjectName != "unit" || r.NP != 4 || r.UseCache || !r.OpFusion || !r.EnableTrace {
		t.Fatalf("recipe = %+v", r)
	}
	if len(r.Process) != 3 {
		t.Fatalf("process = %+v", r.Process)
	}
	if r.Process[1].Name != "word_num_filter" || r.Process[1].Params.Int("min_num", 0) != 5 {
		t.Fatalf("op spec = %+v", r.Process[1])
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecipeValidateUnknownOp(t *testing.T) {
	r, err := ParseRecipe("process:\n  - nonexistent_op:\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err == nil {
		t.Fatal("unknown op must fail validation")
	}
}

func TestRecipeValidateEmpty(t *testing.T) {
	r := Default()
	if err := r.Validate(); err == nil {
		t.Fatal("empty process must fail validation")
	}
}

func TestRecipeBuildOps(t *testing.T) {
	r, err := ParseRecipe(sampleRecipe)
	if err != nil {
		t.Fatal(err)
	}
	built, err := r.BuildOps()
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 3 {
		t.Fatalf("built %d ops", len(built))
	}
	if _, ok := built[0].(ops.Mapper); !ok {
		t.Fatal("op 0 should be a Mapper")
	}
	if _, ok := built[1].(ops.Filter); !ok {
		t.Fatal("op 1 should be a Filter")
	}
	if _, ok := built[2].(ops.Deduplicator); !ok {
		t.Fatal("op 2 should be a Deduplicator")
	}
}

func TestRecipeAddRemoveSetParam(t *testing.T) {
	r, _ := ParseRecipe(sampleRecipe)
	if n := r.Remove("word_num_filter"); n != 1 {
		t.Fatalf("Remove = %d", n)
	}
	if len(r.Process) != 2 {
		t.Fatalf("process after remove = %+v", r.Process)
	}
	r.Add(OpSpec{Name: "text_length_filter", Params: ops.Params{"min_len": 3}})
	if r.Process[len(r.Process)-1].Name != "text_length_filter" {
		t.Fatal("Add failed")
	}
	if !r.SetParam("text_length_filter", "min_len", 9) {
		t.Fatal("SetParam failed")
	}
	if r.Process[len(r.Process)-1].Params.Int("min_len", 0) != 9 {
		t.Fatal("SetParam did not stick")
	}
	if r.SetParam("missing_op", "k", 1) {
		t.Fatal("SetParam on missing op should be false")
	}
}

func TestApplyEnv(t *testing.T) {
	r := Default()
	env := map[string]string{
		"DJ_NP":            "16",
		"DJ_USE_CACHE":     "false",
		"DJ_OP_FUSION":     "1",
		"DJ_TARGET_MEM_MB": "128",
		"DJ_WORK_DIR":      "/tmp/dj",
	}
	if err := r.ApplyEnv(func(k string) string { return env[k] }); err != nil {
		t.Fatal(err)
	}
	if r.NP != 16 || r.UseCache || !r.OpFusion || r.TargetMemMB != 128 || r.WorkDir != "/tmp/dj" {
		t.Fatalf("recipe = %+v", r)
	}
}

// TestApplyEnvAdaptive: DJ_ADAPTIVE and DJ_MAX_WORKERS belonged to the
// removed runtime controller and no longer set anything, while
// DJ_TARGET_MEM_MB still applies.
func TestApplyEnvAdaptive(t *testing.T) {
	r := Default()
	env := map[string]string{
		"DJ_ADAPTIVE":      "true",
		"DJ_MAX_WORKERS":   "7",
		"DJ_TARGET_MEM_MB": "128",
	}
	if err := r.ApplyEnv(func(k string) string { return env[k] }); err != nil {
		t.Fatal(err)
	}
	if r.Adaptive || r.MaxWorkers != 0 || r.TargetMemMB != 128 {
		t.Fatalf("env overrides: %+v", r)
	}
}

// TestApplyEnvRejectsMalformed: a bool variable takes only
// true/false/1/0 and an int variable only an integer; anything else is
// an error naming the variable and its value, not a silent false or an
// ignored override.
func TestApplyEnvRejectsMalformed(t *testing.T) {
	for _, c := range []struct{ name, value string }{
		{"DJ_USE_CACHE", "yes"},
		{"DJ_USE_CACHE", "TRUE"},
		{"DJ_OP_FUSION", "on"},
		{"DJ_JOURNAL", "no"},
		{"DJ_NP", "four"},
		{"DJ_NP", "2.5"},
		{"DJ_TARGET_MEM_MB", "1g"},
	} {
		r := Default()
		err := r.ApplyEnv(func(k string) string {
			if k == c.name {
				return c.value
			}
			return ""
		})
		if err == nil {
			t.Errorf("%s=%s: accepted", c.name, c.value)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.name) || !strings.Contains(msg, c.value) {
			t.Errorf("%s=%s: error %q does not name the variable and value", c.name, c.value, msg)
		}
	}
}

// TestLoadReportsEnvError: config.Load surfaces a malformed override.
func TestLoadReportsEnvError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.yaml")
	if err := os.WriteFile(path, []byte(sampleRecipe), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("DJ_NP", "four")
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "DJ_NP") {
		t.Fatalf("Load error = %v, want one naming DJ_NP", err)
	}
}

func TestLoadYAMLAndJSONFiles(t *testing.T) {
	dir := t.TempDir()
	ypath := filepath.Join(dir, "r.yaml")
	os.WriteFile(ypath, []byte(sampleRecipe), 0o644)
	r, err := Load(ypath)
	if err != nil {
		t.Fatal(err)
	}
	if r.ProjectName != "unit" {
		t.Fatalf("yaml load = %+v", r)
	}

	jpath := filepath.Join(dir, "r.json")
	os.WriteFile(jpath, []byte(`{"project_name":"junit","np":2,"process":[{"word_num_filter":{"min_num":3}}]}`), 0o644)
	rj, err := Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if rj.ProjectName != "junit" || rj.NP != 2 || rj.Process[0].Params.Int("min_num", 0) != 3 {
		t.Fatalf("json load = %+v", rj)
	}
}

func TestUnknownRecipeKeyRejected(t *testing.T) {
	if _, err := ParseRecipe("bogus_key: 1\n"); err == nil {
		t.Fatal("unknown key must be rejected")
	}
}

func TestAllBuiltinRecipesParseAndValidate(t *testing.T) {
	names := BuiltinRecipeNames()
	if len(names) < 15 {
		t.Fatalf("expected a rich recipe library, got %d", len(names))
	}
	for _, name := range names {
		r, err := BuiltinRecipe(name)
		if err != nil {
			t.Errorf("recipe %s: %v", name, err)
			continue
		}
		if err := r.Validate(); err != nil {
			t.Errorf("recipe %s invalid: %v", name, err)
		}
		if _, err := r.BuildOps(); err != nil {
			t.Errorf("recipe %s build: %v", name, err)
		}
	}
	if _, err := BuiltinRecipe("no-such-recipe"); err == nil {
		t.Fatal("unknown builtin must error")
	}
}

// TestRecipeAdaptiveKeys: the removed runtime controller's keys are
// unknown recipe keys now, while target_mem_mb keeps parsing.
func TestRecipeAdaptiveKeys(t *testing.T) {
	for _, key := range []string{"adaptive: true", "max_workers: 12"} {
		_, err := ParseRecipe("project_name: adaptive-keys\n" + key + "\nprocess:\n  - whitespace_normalization_mapper:\n")
		if err == nil || !strings.Contains(err.Error(), "unknown recipe key") {
			t.Errorf("%q: error = %v, want unknown recipe key", key, err)
		}
	}
	r, err := ParseRecipe(`
project_name: adaptive-keys
target_mem_mb: 512
process:
  - whitespace_normalization_mapper:
`)
	if err != nil {
		t.Fatal(err)
	}
	if r.TargetMemMB != 512 {
		t.Fatalf("target_mem_mb not parsed: %+v", r)
	}
}

// TestRecipeScalarsStrict: a bool key takes only true/false and an int key
// only an integer; anything else is an error naming the key and the value
// rather than a silent coercion to false or 0.
func TestRecipeScalarsStrict(t *testing.T) {
	for _, c := range []struct{ yaml, key, value string }{
		{"use_cache: yes\n", "use_cache", "yes"},
		{"use_cache: TRUE\n", "use_cache", "TRUE"},
		{"op_fusion: 1\n", "op_fusion", "1"},
		{"np: \"4\"\n", "np", "4"},
		{"np: 2.5\n", "np", "2.5"},
		{"target_mem_mb: lots\n", "target_mem_mb", "lots"},
	} {
		_, err := ParseRecipe(c.yaml)
		if err == nil {
			t.Errorf("%q: accepted, want an error", c.yaml)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.key) || !strings.Contains(msg, c.value) {
			t.Errorf("%q: error %q does not name key %s and value %s", c.yaml, msg, c.key, c.value)
		}
	}
	// Well-formed scalars still parse, including an integral JSON number.
	r, err := FromMap(map[string]any{"np": 4.0, "use_cache": false, "target_mem_mb": 64})
	if err != nil {
		t.Fatal(err)
	}
	if r.NP != 4 || r.UseCache || r.TargetMemMB != 64 {
		t.Fatalf("well-formed scalars misread: %+v", r)
	}
}
