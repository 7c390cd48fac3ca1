// Command cqp-lint runs the project's static-analysis suite (package
// cqp/internal/analysis) as a go vet tool:
//
//	go build -o cqp-lint ./cmd/cqp-lint
//	go vet -vettool=$PWD/cqp-lint ./...
//
// It speaks cmd/go's unitchecker protocol. cmd/go probes the tool with
// -V=full and -flags, then hands it a JSON .cfg per package (file lists
// plus export data for every dependency). Findings that survive
// //lint:allow filtering go to stderr as file:line:col: [analyzer]
// message, and exit status 2 marks a package with findings.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cqp/internal/analysis"
)

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		// The suite takes no per-run flags.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(unitcheckerMain(args[0]))
	default:
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which cqp-lint) [packages]")
		os.Exit(2)
	}
}

// vetConfig is the part of the JSON configuration cmd/go writes for
// each package (see cmd/go/internal/work: the unitchecker protocol)
// that the tool consumes.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// printVersion answers cmd/go's `-V=full` probe. The build ID must
// change when the binary changes (it keys the vet result cache), so it
// is a content hash of the executable.
func printVersion() {
	prog := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", prog, h.Sum(nil))
}

// unitcheckerMain handles one per-package vet invocation. Exit status 0
// means no findings, 2 means findings (printed to stderr) — the
// convention cmd/go expects from vet tools.
func unitcheckerMain(cfgFile string) int {
	cfg, err := readVetConfig(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqp-lint:", err)
		return 1
	}
	// The suite exports no cross-package facts, but the protocol
	// requires the facts file to exist before cmd/go will cache the
	// result.
	defer func() {
		if cfg.VetxOutput != "" {
			os.WriteFile(cfg.VetxOutput, []byte{}, 0o666)
		}
	}()
	if cfg.VetxOnly {
		return 0
	}

	// Lint scope is shipped code: drop _test.go files. The in-package
	// test variant then reduces to the plain package; the external
	// _test package reduces to nothing.
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "cqp-lint:", err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, info, err := analysis.TypeCheck(cfg.ImportPath, fset, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "cqp-lint:", err)
		return 1
	}

	findings, err := analysis.Lint(fset, files, pkg, info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqp-lint:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

func readVetConfig(path string) (*vetConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &cfg, nil
}
