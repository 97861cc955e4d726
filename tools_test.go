package ximd_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end tests of the command-line tools, driving the shipped
// testdata programs exactly as a user would.

var toolBinDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ximd-tools")
	if err != nil {
		os.Exit(1)
	}
	// Build all tools once; individual tests exec the binaries.
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/xsim", "./cmd/vsim", "./cmd/xasm", "./cmd/xcc", "./cmd/xbench")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	toolBinDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func runTool(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(toolBinDir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestToolXSimRunsCountdown(t *testing.T) {
	out := runTool(t, "xsim", "-peek", "300:2", "testdata/countdown.xasm")
	if !strings.Contains(out, "halted after") {
		t.Fatalf("missing completion line:\n%s", out)
	}
	// FU0 counts 10 down to 0; FU1 doubles from 1 every other cycle while
	// FU0 runs (its exact value depends on the loop length, but it must
	// be a power of two greater than 1).
	if !strings.Contains(out, "M(300..301) = [0 ") {
		t.Fatalf("unexpected results:\n%s", out)
	}
}

func TestToolXSimTrace(t *testing.T) {
	out := runTool(t, "xsim", "-trace", "-timeline", "testdata/countdown.xasm")
	for _, needle := range []string{"Cycle 0", "Partition", "streams:", "{0,1}"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("trace output missing %q:\n%s", needle, out)
		}
	}
}

func TestToolXAsmListAndImageRoundTrip(t *testing.T) {
	img := filepath.Join(t.TempDir(), "countdown.img")
	out := runTool(t, "xasm", "-list", "-o", img, "testdata/countdown.xasm")
	if !strings.Contains(out, "2 FUs") {
		t.Fatalf("assembler summary missing:\n%s", out)
	}
	dis := runTool(t, "xasm", "-d", img)
	if !strings.Contains(dis, "if allss") || !strings.Contains(dis, "store r1, #300") {
		t.Fatalf("disassembly missing content:\n%s", dis)
	}
	// The simulator accepts the binary image directly.
	sim := runTool(t, "xsim", "-peek", "300:1", img)
	if !strings.Contains(sim, "M(300..300) = [0]") {
		t.Fatalf("image execution wrong:\n%s", sim)
	}
}

func TestToolXccCompileAndRun(t *testing.T) {
	out := runTool(t, "xcc", "-width", "4", "-run",
		"-mem", "n=10", "-peek", "out:2", "testdata/sum.mc")
	// sum of squares 1..10 = 385 > 300.
	if !strings.Contains(out, "out = [385 1]") {
		t.Fatalf("xcc run output wrong:\n%s", out)
	}
	if !strings.Contains(out, "halted after") {
		t.Fatalf("missing completion line:\n%s", out)
	}
}

func TestToolXccTiles(t *testing.T) {
	out := runTool(t, "xcc", "-tiles", "testdata/sum.mc")
	if !strings.Contains(out, "width  length  area") {
		t.Fatalf("tile table missing:\n%s", out)
	}
	for _, w := range []string{"    1  ", "    2  ", "    4  ", "    8  "} {
		if !strings.Contains(out, w) {
			t.Fatalf("tile table missing width row %q:\n%s", w, out)
		}
	}
}

func TestToolXccEmitAsmReassembles(t *testing.T) {
	out := runTool(t, "xcc", "-S", "-width", "2", "testdata/sum.mc")
	asmPath := filepath.Join(t.TempDir(), "sum.xasm")
	// Strip the stderr-style summary lines that xcc prints before the
	// assembly (they go to stderr, but CombinedOutput interleaves).
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "compiled:") || strings.HasPrefix(line, "globals:") {
			continue
		}
		keep = append(keep, line)
	}
	if err := os.WriteFile(asmPath, []byte(strings.Join(keep, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	sim := runTool(t, "xsim", "-mem", "4098=10", "-peek", "4096:2", asmPath)
	// The data layout places out at 4096 and n at 4098 (out[2] then n).
	if !strings.Contains(sim, "M(4096..4097) = [385 1]") {
		t.Fatalf("reassembled program wrong:\n%s", sim)
	}
}

func TestToolVSimRunsVLIWStyleCode(t *testing.T) {
	// Compile par-free minic, emit assembly, run it on the VLIW machine.
	out := runTool(t, "xcc", "-S", "-width", "4", "testdata/sum.mc")
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "compiled:") || strings.HasPrefix(line, "globals:") {
			continue
		}
		keep = append(keep, line)
	}
	asmPath := filepath.Join(t.TempDir(), "sum4.xasm")
	if err := os.WriteFile(asmPath, []byte(strings.Join(keep, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	sim := runTool(t, "vsim", "-mem", "4098=10", "-peek", "4096:2", asmPath)
	if !strings.Contains(sim, "M(4096..4097) = [385 1]") {
		t.Fatalf("vsim execution wrong:\n%s", sim)
	}
}

func TestToolXBenchListsAndRunsOne(t *testing.T) {
	list := runTool(t, "xbench", "-list")
	for _, name := range []string{"trace10", "speedup", "tiles", "ablation"} {
		if !strings.Contains(list, name) {
			t.Fatalf("xbench -list missing %q:\n%s", name, list)
		}
	}
	out := runTool(t, "xbench", "-exp", "trace10")
	if !strings.Contains(out, "Cycle 13") || !strings.Contains(out, "{0,1}{2}{3}") {
		t.Fatalf("trace10 output wrong:\n%s", out)
	}
}

// xbenchExperiments is every xbench experiment except throughput, whose
// wall-clock line varies run to run.
const xbenchExperiments = "models,isa,tproc,ll12,minmax,trace10,bitcount,ioports,tiles,proto,regfile,speedup,ablation,chaos,profile"

// TestToolXBenchExperimentsGolden pins the paper experiments' output
// byte for byte, serially and with two sweep workers: every table is
// seeded, so neither the worker count nor an engine refactor may move a
// single byte of it.
func TestToolXBenchExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/xbench_experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []string{"1", "2"} {
		got := runTool(t, "xbench", "-parallel", width, "-exp", xbenchExperiments)
		if got != string(want) {
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
				var g, w string
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Fatalf("-parallel %s: output differs from the golden at line %d:\ngot  %q\nwant %q", width, i+1, g, w)
				}
			}
		}
	}
}

// TestToolCheckpointEveryZeroIsUsageError: -checkpoint with a zero
// interval would run to completion and leave an empty checkpoint file
// that a later -resume cannot use, so both simulators refuse the
// combination up front with the usage exit code and create no file.
func TestToolCheckpointEveryZeroIsUsageError(t *testing.T) {
	for _, tool := range []string{"xsim", "vsim"} {
		ck := filepath.Join(t.TempDir(), "ck.log")
		cmd := exec.Command(filepath.Join(toolBinDir, tool),
			"-checkpoint", ck, "-checkpoint-every", "0", "testdata/tproc.xasm")
		out, err := cmd.CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Fatalf("%s: err = %v, want exit status 2\n%s", tool, err, out)
		}
		if !strings.Contains(string(out), "-checkpoint-every 0") {
			t.Fatalf("%s: usage error does not name the flag:\n%s", tool, out)
		}
		if _, err := os.Stat(ck); !os.IsNotExist(err) {
			t.Fatalf("%s: checkpoint file created despite the usage error (stat: %v)", tool, err)
		}
	}
}
