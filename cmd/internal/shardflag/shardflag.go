// Package shardflag registers, validates and dispatches the -shard*
// flags that pxql, pxqld and pxqlexperiments share:
//
//	-shards N          cut each quadratic pair walk into N specs
//	-shard-workers K   run the specs on K worker subprocesses
//	-shard-remote a,b  run them on socket workers at these addresses
//	-shard-token T     the socket handshake secret (or PXQL_SHARD_TOKEN)
//	-shard-worker      serve shard tasks on stdin/stdout (spawned by
//	                   -shard-workers), or on TCP with -listen
//
// A binary calls Register before flag.Parse, ServeWorker right after it,
// and Pool to learn which fleet, if any, the flags name.
package shardflag

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"perfxplain/internal/shard"
)

// TokenEnv is the environment variable the token is read from when no
// -shard-token is given.
const TokenEnv = "PXQL_SHARD_TOKEN"

// Flags holds the parsed shard flags.
type Flags struct {
	Shards  int
	Workers int
	Worker  bool
	// Listen is the address a -shard-worker serves remote coordinators
	// on; empty serves stdin/stdout.
	Listen string
	Remote string
	Token  string
}

// Register defines the shard flags on fs. With workerListen it also
// defines -listen, the TCP address of a -shard-worker; pxqld leaves it
// out, because its -listen is the HTTP address.
func Register(fs *flag.FlagSet, workerListen bool) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Shards, "shards", 0, "cut each quadratic pair walk into N self-contained specs (0 = eight per core); the answer is identical at every setting")
	fs.IntVar(&f.Workers, "shard-workers", 0, "execute the specs on K worker subprocesses instead of this process (requires -shards)")
	fs.BoolVar(&f.Worker, "shard-worker", false, "serve shard tasks on stdin/stdout and exit (internal: spawned by -shard-workers)")
	fs.StringVar(&f.Remote, "shard-remote", "", "execute the specs on remote socket workers at these comma-separated host:port addresses (requires -shards and a token)")
	fs.StringVar(&f.Token, "shard-token", "", "shared auth token for remote shard workers (or set "+TokenEnv+")")
	if workerListen {
		fs.StringVar(&f.Listen, "listen", "", "with -shard-worker: listen on this TCP address (e.g. :9071) and serve remote coordinators (requires a token)")
	}
	return f
}

func (f *Flags) token() string {
	if f.Token != "" {
		return f.Token
	}
	return os.Getenv(TokenEnv)
}

// ServeWorker runs the worker loop when -shard-worker was given and
// reports whether it did; err is the loop's failure. prog names the
// binary in the one line a TCP worker prints.
func (f *Flags) ServeWorker(prog string) (bool, error) {
	if !f.Worker {
		return false, nil
	}
	if f.Listen == "" {
		return true, shard.Worker(os.Stdin, os.Stdout)
	}
	fmt.Fprintf(os.Stderr, "%s: serving shard workers on %s\n", prog, f.Listen)
	return true, shard.ListenAndServe(f.Listen, f.token())
}

// Pool validates the flags and returns the worker fleet they name; ok is
// false when the specs run in this process.
func (f *Flags) Pool() (cfg shard.PoolConfig, ok bool, err error) {
	switch {
	case f.Workers > 0 && f.Shards <= 0:
		return cfg, false, errors.New("-shard-workers requires -shards")
	case f.Remote == "":
		return shard.PoolConfig{Workers: f.Workers}, f.Workers > 0, nil
	case f.Shards <= 0:
		return cfg, false, errors.New("-shard-remote requires -shards")
	case f.token() == "":
		return cfg, false, fmt.Errorf("-shard-remote requires -shard-token (or %s)", TokenEnv)
	}
	cfg = shard.PoolConfig{Workers: f.Workers, Token: f.token()}
	for _, a := range strings.Split(f.Remote, ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.Addrs = append(cfg.Addrs, a)
		}
	}
	return cfg, len(cfg.Addrs) > 0 || f.Workers > 0, nil
}
