package shardflag

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"perfxplain/internal/shard"
)

func TestPoolValidation(t *testing.T) {
	t.Setenv(TokenEnv, "")
	for _, tc := range []struct {
		args    []string
		want    shard.PoolConfig
		sharded bool
		err     string
	}{
		{args: nil},
		{args: []string{"-shards", "4"}},
		{args: []string{"-shards", "4", "-shard-workers", "2"}, want: shard.PoolConfig{Workers: 2}, sharded: true},
		{args: []string{"-shard-workers", "2"}, err: "-shard-workers requires -shards"},
		{args: []string{"-shard-remote", "h:1"}, err: "-shard-remote requires -shards"},
		{args: []string{"-shards", "4", "-shard-remote", "h:1"}, err: "-shard-remote requires -shard-token (or PXQL_SHARD_TOKEN)"},
		{
			args:    []string{"-shards", "4", "-shard-remote", " h:1, ,h:2", "-shard-token", "s"},
			want:    shard.PoolConfig{Addrs: []string{"h:1", "h:2"}, Token: "s"},
			sharded: true,
		},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := Register(fs, true)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		cfg, sharded, err := f.Pool()
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("%v: error %v, want %q", tc.args, err, tc.err)
			}
		case err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case sharded != tc.sharded || !reflect.DeepEqual(cfg, tc.want):
			t.Errorf("%v: %+v sharded=%v, want %+v sharded=%v", tc.args, cfg, sharded, tc.want, tc.sharded)
		}
	}
}

func TestTokenFromEnvironment(t *testing.T) {
	t.Setenv(TokenEnv, "from-env")
	f := &Flags{Shards: 2, Remote: "h:1"}
	cfg, sharded, err := f.Pool()
	if err != nil || !sharded || cfg.Token != "from-env" {
		t.Errorf("token from %s: %+v sharded=%v err=%v", TokenEnv, cfg, sharded, err)
	}
}
