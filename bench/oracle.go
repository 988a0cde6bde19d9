package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"

	"tnpu/internal/compiler"
	"tnpu/internal/e2e"
	"tnpu/internal/exp"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/multinpu"
	"tnpu/internal/npu"
)

// The oracle is recorded on the per-block reference paths (npu.ForcePerBlock
// and multinpu.ForceBlockInterleave), so it does not depend on the fast
// paths whose outputs it checks.
//
//go:embed testdata/expected.json
var oracleJSON []byte

// truth is one cell's reference result.
type truth struct {
	Cycles  uint64 `json:"cycles"`
	Traffic uint64 `json:"traffic"`
}

type oracle struct {
	CodeVersion string `json:"code_version"`
	// Regen holds the sha256 of the rendered regeneration per model set
	// ("all" for the 14 workloads).
	Regen map[string]string `json:"regen_sha256"`
	// Cells covers every (model, class, scheme, count 1-3) cell.
	Cells map[string]truth `json:"cells"`
	// E2E covers the end-to-end flow for unsecure, baseline and tnpu.
	E2E map[string]truth `json:"e2e"`
	// Serve holds the sha256 of the body of every distinct serve request.
	Serve map[string]string `json:"serve_sha256"`
}

// e2eSchemes are the schemes Figure 17 and the one-shot end-to-end calls
// simulate.
var e2eSchemes = []memprot.Scheme{memprot.Unsecure, memprot.Baseline, memprot.TreeLess}

func cellKey(short string, class exp.Class, scheme memprot.Scheme, count int) string {
	return fmt.Sprintf("%s/%s/%s/x%d", short, class, scheme, count)
}

func e2eKey(short string, class exp.Class, scheme memprot.Scheme) string {
	return fmt.Sprintf("%s/%s/%s", short, class, scheme)
}

func modelSetName(models []string) string {
	if len(models) == 0 {
		return "all"
	}
	return strings.Join(models, ",")
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// loadOracle decodes the embedded oracle and refuses one recorded for
// another simulator revision.
func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if o.CodeVersion != exp.CodeVersion {
		return nil, fmt.Errorf("oracle recorded for code version %q, simulator is %q: re-record it with 'bash bench/run.sh -record'",
			o.CodeVersion, exp.CodeVersion)
	}
	return &o, nil
}

func (o *oracle) checkRegen(models []string, out string) error {
	want, ok := o.Regen[modelSetName(models)]
	if !ok {
		return fmt.Errorf("oracle has no regeneration digest for models %q", modelSetName(models))
	}
	if got := digest(out); got != want {
		return fmt.Errorf("regeneration digest %s, want %s", got, want)
	}
	return nil
}

func (o *oracle) checkCell(key string, cycles, traffic uint64) error {
	return check(o.Cells, key, cycles, traffic)
}

func (o *oracle) checkE2E(key string, cycles, traffic uint64) error {
	return check(o.E2E, key, cycles, traffic)
}

func (o *oracle) checkServe(url string, body []byte) error {
	want, ok := o.Serve[url]
	if !ok {
		return fmt.Errorf("%s: not in the oracle", url)
	}
	if got := digest(string(body)); got != want {
		return fmt.Errorf("%s: body sha256 %s, want %s", url, got, want)
	}
	return nil
}

func check(m map[string]truth, key string, cycles, traffic uint64) error {
	want, ok := m[key]
	if !ok {
		return fmt.Errorf("%s: not in the oracle", key)
	}
	if cycles != want.Cycles || traffic != want.Traffic {
		return fmt.Errorf("%s: cycles %d traffic %d, want cycles %d traffic %d", key, cycles, traffic, want.Cycles, want.Traffic)
	}
	return nil
}

// recordOracle recomputes the oracle on the reference paths and writes it
// to path. The model sets name the regenerations whose digests it keeps.
func recordOracle(path string, workers int, modelSets [][]string) error {
	npu.ForcePerBlock(true)
	multinpu.ForceBlockInterleave(true)
	defer npu.ForcePerBlock(false)
	defer multinpu.ForceBlockInterleave(false)

	o := oracle{
		CodeVersion: exp.CodeVersion,
		Regen:       map[string]string{},
		Cells:       map[string]truth{},
		E2E:         map[string]truth{},
		Serve:       map[string]string{},
	}
	for _, set := range modelSets {
		var out strings.Builder
		if err := regenerate(newRunner(set, workers), nil, 0, &out); err != nil {
			return err
		}
		o.Regen[modelSetName(set)] = digest(out.String())
	}
	if err := recordServe(o.Serve, workers); err != nil {
		return err
	}

	type job struct {
		short string
		class exp.Class
	}
	var jobs []job
	for _, short := range model.ShortNames() {
		for _, class := range exp.Classes() {
			jobs = append(jobs, job{short, class})
		}
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make([]error, len(jobs))
		next = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cells, e2es, err := recordJob(jobs[i].short, jobs[i].class)
				errs[i] = err
				mu.Lock()
				for k, v := range cells {
					o.Cells[k] = v
				}
				for k, v := range e2es {
					o.E2E[k] = v
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var data strings.Builder
	enc := json.NewEncoder(&data)
	enc.SetEscapeHTML(false) // keep the & in serve URLs readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(o); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(data.String()), 0o644)
}

// recordServe fetches every distinct serve request once from a server
// with no memo store and keeps the digest of each body.
func recordServe(digests map[string]string, workers int) error {
	dir, err := os.MkdirTemp("", "serve-record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(workers, dir, "off")
	if err != nil {
		return err
	}
	cl := newClient(workers)
	for _, url := range servePaths(serveModel) {
		rep := cl.get(s.base + url)
		if rep.status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", url, rep.status, rep.body)
			break
		}
		digests[url] = digest(string(rep.body))
	}
	cl.close()
	if serr := s.stop(); err == nil {
		err = serr
	}
	return err
}

// recordJob simulates every cell and end-to-end flow of one model on one
// class.
func recordJob(short string, class exp.Class) (cells, e2es map[string]truth, err error) {
	m, err := model.ByShort(short)
	if err != nil {
		return nil, nil, err
	}
	cfg := class.Config()
	prog, err := compiler.Compile(m, cfg.CompilerConfig())
	if err != nil {
		return nil, nil, err
	}
	cells, e2es = map[string]truth{}, map[string]truth{}
	for _, scheme := range memprot.AllSchemes() {
		for count := 1; count <= 3; count++ {
			res, err := multinpu.Run(prog, scheme, cfg, count)
			if err != nil {
				return nil, nil, err
			}
			cells[cellKey(short, class, scheme, count)] = truth{res.Cycles, res.Traffic.Total()}
		}
	}
	for _, scheme := range e2eSchemes {
		res, err := e2e.Run(prog, scheme, cfg)
		if err != nil {
			return nil, nil, err
		}
		e2es[e2eKey(short, class, scheme)] = truth{res.Total, res.Traffic.Total()}
	}
	return cells, e2es, nil
}
