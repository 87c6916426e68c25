package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// env owns everything a benchmark run leaves on the machine: the built
// binaries, a temp dir and the child processes. close undoes all of it
// and is reached on every exit path, signals included.
type env struct {
	root string // repository checkout
	bin  string // built binaries
	tmp  string // this run's scratch, removed on close
	out  string // span files of the traced run

	mu    sync.Mutex
	procs []*proc
	done  bool
}

// sutProcs is the GOMAXPROCS every daemon runs under: the load model is
// sized for the two cores of the reference box.
func sutProcs() int { return min(runtime.NumCPU(), 2) }

// newEnv builds the binaries the harness drives
// (outside every metric) and creates the run's temp dir.
func newEnv(root string) (*env, error) {
	if root == "" {
		return nil, errors.New("pass -root, the repository checkout (run.sh does)")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin"), out: filepath.Join(build, "out")}
	for _, d := range []string{e.bin, e.out, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	if err := e.build(root, "./cmd/css-controller", "./cmd/css-gateway", "./cmd/css-audit"); err != nil {
		e.close()
		return nil, err
	}
	if err := e.build(filepath.Join(root, "benchmark"), "./echo"); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) build(dir string, pkgs ...string) error {
	cmd := exec.Command("go", append([]string{"build", "-o", e.bin + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %v: %w\n%s", pkgs, err, out)
	}
	return nil
}

// close kills every child still running, waits for it, and removes the
// temp dir. Safe to call more than once and from the signal handler.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	first := !e.done
	e.done = true
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	if first {
		os.RemoveAll(e.tmp)
	}
}

// proc is one child process of the harness.
type proc struct {
	name string
	role string // "controller", "gateway", "follower" or "echo"
	url  string // HTTP base URL
	data string // data dir, if any
	cmd  *exec.Cmd
	log  string

	exited  chan struct{} // closed once the process has been waited for
	waitErr error
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// stop asks the daemon to drain (SIGTERM) so its stores close cleanly,
// and waits for it; a daemon that does not exit in time is killed and
// reported.
func (p *proc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		if p.waitErr != nil {
			return fmt.Errorf("%s: exit: %w (log %s)", p.name, p.waitErr, p.log)
		}
		return nil
	case <-time.After(15 * time.Second):
		p.kill()
		return fmt.Errorf("%s: did not drain within 15s (log %s)", p.name, p.log)
	}
}

// spawn starts a built binary with its output in the run's temp dir.
func (e *env) spawn(p *proc, binary string, args ...string) (*proc, error) {
	p.log = filepath.Join(e.tmp, p.name+".log")
	logf, err := os.Create(p.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	p.cmd = exec.Command(filepath.Join(e.bin, binary), args...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(sutProcs()))
	// The child must not outlive a harness that is killed outright.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return nil, errors.New("harness is shutting down")
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", p.name, err)
	}
	p.exited = make(chan struct{})
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	e.procs = append(e.procs, p)
	return p, nil
}

// forget drops stopped processes from the cleanup list.
func (e *env) forget(ps []*proc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	keep := e.procs[:0]
outer:
	for _, p := range e.procs {
		for _, q := range ps {
			if p == q {
				continue outer
			}
		}
		keep = append(keep, p)
	}
	e.procs = keep
}

// run executes a built tool to completion and returns its output.
func (e *env) run(binary string, args ...string) (string, error) {
	cmd := exec.Command(filepath.Join(e.bin, binary), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitHTTP polls url until it answers 200 or 204, the process dies, or
// the deadline passes.
func waitHTTP(ctx context.Context, client *http.Client, p *proc, path string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(p.url + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before answering %s (log %s)", p.name, path, p.log)
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s never answered %s (last error %v, log %s)", p.name, path, err, p.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
